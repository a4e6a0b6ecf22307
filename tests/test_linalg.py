"""Eigendecomposition, biorthonormal systems, and matrix functions."""
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pht.antilinear import _axis_matrix
from pht.errors import (
    ComplexSpectrumError,
    NonFiniteError,
    NotDiagonalizableError,
    PHTError,
)
from pht.linalg import (
    EIGVEC_CONDITION_LIMIT,
    IDENTITY2,
    PAULI,
    REALITY_RTOL,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    SpectrumClass,
    _condition_bounds,
    _frobenius_norm,
    _norm_in_range,
    _pauli_exp,
    _real_if_real,
    as_square_matrix,
    as_state_vector,
    biorthonormalize,
    eigendecompose,
    matrix_exp,
)
from pht.metric import build_eta_plus, hermitize

from conftest import random_similarity

ATOL = 1e-12
DUALITY_ATOL = 1e-10


def test_as_square_matrix_validates():
    with pytest.raises(ValueError):
        as_square_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_square_matrix(np.zeros(4))
    with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
        as_square_matrix(np.zeros((0, 0)))
    with pytest.raises(NonFiniteError):
        as_square_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteError):
        as_square_matrix([[1j * np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteError):
        as_square_matrix([[complex(0.0, np.inf), 0.0], [0.0, 1.0]])
    m = as_square_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex


def test_as_state_vector_validates():
    with pytest.raises(ValueError):
        as_state_vector([[1.0, 2.0]])
    with pytest.raises(NonFiniteError):
        as_state_vector([1.0, np.inf])
    with pytest.raises(NonFiniteError):
        as_state_vector([1.0, complex(0.0, np.inf)])
    assert as_state_vector([1, 1j]).dtype == complex


def test_eigendecompose_orders_by_descending_real_part():
    h = np.diag([1.0, 3.0, 2.0]).astype(complex)
    data = eigendecompose(h)
    npt.assert_allclose(data.eigenvalues, [3.0, 2.0, 1.0], atol=ATOL)
    # columns are genuine unit-norm eigenvectors in matching order
    for k, w in enumerate(data.eigenvalues):
        v = data.eigenvectors[:, k]
        npt.assert_allclose(h @ v, w * v, atol=ATOL)
        npt.assert_allclose(np.linalg.norm(v), 1.0, atol=ATOL)


def test_eigendecompose_breaks_real_part_ties_by_imag():
    data = eigendecompose(np.diag([1.0 - 2.0j, 1.0 + 2.0j]))
    npt.assert_allclose(data.eigenvalues, [1.0 + 2.0j, 1.0 - 2.0j], atol=ATOL)
    assert data.classification is SpectrumClass.CONJUGATE_PAIRS


def test_eigendecompose_classification():
    assert eigendecompose(SIGMA1).classification is SpectrumClass.REAL_DIAGONALIZABLE
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +/- i
    assert eigendecompose(rotation).classification is SpectrumClass.CONJUGATE_PAIRS
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    data = eigendecompose(jordan)
    assert data.classification is SpectrumClass.NEAR_DEFECTIVE
    assert data.eigvec_condition > 1e8


def test_eigendecompose_reality_tolerance_is_relative():
    h = np.diag([1.0, 2.0 + 1e-12j])
    assert eigendecompose(h).classification is SpectrumClass.REAL_DIAGONALIZABLE
    strict = eigendecompose(h, reality_rtol=1e-15)
    assert strict.classification is SpectrumClass.CONJUGATE_PAIRS
    # the decomposition records the tolerance that classified it
    assert strict.reality_rtol == 1e-15
    assert eigendecompose(h).reality_rtol == REALITY_RTOL


@pytest.mark.parametrize("h", [[[1.0, 2.0], [0.5, -1.0]], [[2.0, 1.0j], [1.0j, -2.0]]], ids=["real", "complex"])
def test_eigendecompose_record_is_a_read_only_copy(h):
    h = np.array(h, dtype=complex)
    original = h.copy()
    data = eigendecompose(h)
    for array in (data.matrix, data.eigenvalues, data.eigenvectors):
        with pytest.raises(ValueError):
            array[0] = 5.0
    # later writes to the caller's array reach neither the record nor what it builds
    system = biorthonormalize(h)
    h[0, 0] = 7.0
    assert np.array_equal(data.matrix, original)
    assert np.array_equal(biorthonormalize(data).phi, system.phi)


@pytest.mark.parametrize("rtol", [-1.0, -5e-324, float("nan")])
def test_eigendecompose_refuses_a_negative_tolerance(eig_calls, rtol):
    with pytest.raises(ValueError, match="reality_rtol must be >= 0"):
        eigendecompose(np.eye(2), reality_rtol=rtol)
    assert eig_calls == []


@pytest.mark.parametrize("normalization", ["unit", "transpose"])
def test_biorthonormalize_takes_the_decomposition_of_its_matrix(eig_calls, normalization):
    if normalization == "transpose":
        h = np.array([[2.0, 1.0j], [1.0j, -2.0]])
    else:
        h, _ = random_similarity(np.random.default_rng(13), 4)
    from_record = biorthonormalize(eigendecompose(h), normalization=normalization)
    assert len(eig_calls) == 1
    from_matrix = biorthonormalize(h, normalization=normalization)
    for name in ("eigenvalues", "psi", "phi"):
        assert np.array_equal(getattr(from_record, name), getattr(from_matrix, name))


def test_biorthonormalize_decides_against_the_tolerance_of_the_record():
    h = np.diag([1.0, 2.0 + 5e-9j])  # |Im w| = 5e-9 exceeds the default bound 3e-9
    with pytest.raises(ComplexSpectrumError, match="reality bound 3.000e-09"):
        biorthonormalize(h)
    with pytest.raises(ComplexSpectrumError, match="reality bound 3.000e-12"):
        biorthonormalize(eigendecompose(h, reality_rtol=1e-12))
    system = biorthonormalize(eigendecompose(h, reality_rtol=1e-6))
    assert np.array_equal(system.eigenvalues, [2.0, 1.0])


def test_biorthonormalize_duality_and_completeness():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5, 8):
        h, w_true = random_similarity(rng, dim)
        system = biorthonormalize(h)
        npt.assert_allclose(system.eigenvalues, w_true, atol=1e-8)
        gram = system.phi.conj().T @ system.psi
        npt.assert_allclose(gram, np.eye(dim), atol=DUALITY_ATOL)
        assert system.completeness_residual() < 1e-12
        for k in range(dim):
            psi = system.psi[:, k]
            npt.assert_allclose(h @ psi, system.eigenvalues[k] * psi, atol=1e-8)
            # phi_n is a right eigenvector of H^dagger
            phi = system.phi[:, k]
            npt.assert_allclose(
                h.conj().T @ phi, system.eigenvalues[k] * phi, atol=1e-8
            )


def test_biorthonormalize_handles_degenerate_eigenspace():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    s = q @ np.diag([1.0, 1.3, 0.8])
    h = s @ np.diag([2.0, 2.0, -1.0]) @ np.linalg.inv(s)
    system = biorthonormalize(h)
    npt.assert_allclose(system.phi.conj().T @ system.psi, np.eye(3), atol=DUALITY_ATOL)
    assert system.completeness_residual() < 1e-12


def test_exact_cluster_with_an_ill_conditioned_raw_basis():
    # eig's basis inside an exactly degenerate cluster is arbitrary, so its
    # condition can exceed cond(S) several times over; the cluster is still
    # found whole, and the unit system's residual follows that condition
    eps = np.finfo(float).eps
    ratios = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 9))
        k = int(rng.integers(2, d))
        s = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        w = np.concatenate([np.ones(k), rng.uniform(-3.0, -0.5, d - k)])
        spectral = eigendecompose(s @ np.diag(w) @ np.linalg.inv(s))
        assert spectral.classification is SpectrumClass.REAL_DIAGONALIZABLE
        assert spectral._clusters[0][0] == list(range(k))
        residual = biorthonormalize(spectral).completeness_residual()
        assert residual <= 4 * d * eps * spectral.eigvec_condition
        ratios.append(spectral.eigvec_condition / np.linalg.cond(s))
    assert max(ratios) > 2.0


def _conditioned_matrix(seed: int, d: int, log_cond: float, kind: str) -> np.ndarray:
    """A matrix whose eigenvector condition is near ``10**log_cond``, of one of four kinds.

    ``band``: distinct real eigenvalues, ``S`` real with singular values
    spread geometrically to ``10**log_cond``.  ``pairs``: the same ``S`` with
    conjugate pairs.  ``cluster``: an exactly repeated eigenvalue with a
    complex ``S``, as in the test above.  ``singular``: a scaled shift,
    optionally on the diagonal ``a 1``, whose ``eig`` basis is singular or
    nearly so.
    """
    rng = np.random.default_rng(seed)
    if kind == "singular":
        return rng.uniform(0.5, 2.0) * np.eye(d, k=1) + (rng.uniform(-1.0, 1.0) if seed % 2 else 0.0) * np.eye(d)
    complex_basis = kind == "cluster"
    q1, _ = np.linalg.qr(rng.normal(size=(d, d)) + complex_basis * 1j * rng.normal(size=(d, d)))
    q2, _ = np.linalg.qr(rng.normal(size=(d, d)) + complex_basis * 1j * rng.normal(size=(d, d)))
    s = q1 @ np.diag(np.logspace(0.0, log_cond, d)) @ q2
    if kind == "pairs":
        core = np.zeros((d, d))
        for k in range(0, d - 1, 2):
            a, b = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
            core[k:k + 2, k:k + 2] = [[a, b], [-b, a]]
        if d % 2:
            core[-1, -1] = rng.uniform(-2.0, 2.0)
    else:
        w = rng.uniform(-3.0, 3.0, d)
        if kind == "cluster":
            w[: max(2, d // 2)] = 1.0
        core = np.diag(w)
    return s @ core @ np.linalg.inv(s)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 12),
    st.floats(0.0, 11.0),
    st.sampled_from(["band", "pairs", "cluster", "singular"]),
)
@example(0, 4, 8.0, "band")
@example(1, 3, 0.0, "singular")
@example(2, 5, 0.0, "singular")
@example(3, 6, 1.0, "cluster")
def test_near_defective_verdict_is_the_condition_number_against_the_limit(seed, d, log_cond, kind):
    spectral = eigendecompose(_conditioned_matrix(seed, d, log_cond, kind))
    v, v_inv = spectral.eigenvectors, spectral.eigenvectors_inv
    cond = float(np.linalg.cond(_real_if_real(v)))
    assert spectral.eigvec_condition == cond or (np.isnan(cond) and np.isnan(spectral.eigvec_condition))
    near_defective = spectral.classification is SpectrumClass.NEAR_DEFECTIVE
    assert near_defective == (not cond <= EIGVEC_CONDITION_LIMIT)
    if v_inv is None:
        assert near_defective
        return
    # the widened bounds that decide the verdict without an SVD
    lo, hi = _condition_bounds(v_inv)
    if cond <= EIGVEC_CONDITION_LIMIT:
        assert lo <= cond <= hi
    assert not lo > EIGVEC_CONDITION_LIMIT or near_defective
    assert not hi <= EIGVEC_CONDITION_LIMIT or not near_defective
    # max kappa_i <= cond_2(V) <= ||V||_F ||V^-1||_F, to the rounding of the
    # inverse and of the SVD, each about d eps cond(V) relative; beyond
    # cond(V) ~ 1 / (d eps) the computed inverse has no digit to bound
    rounding = 64 * d * np.finfo(float).eps * cond
    if rounding < 1.0:
        kappa = np.linalg.norm(v, axis=0) * np.linalg.norm(v_inv, axis=1)
        assert kappa.max() <= cond * (1.0 + rounding)
        assert cond <= np.linalg.norm(v) * np.linalg.norm(v_inv) * (1.0 + rounding)


@pytest.mark.parametrize("h", [np.eye(4, k=1), 2.0 * np.eye(5, k=-1), (1.0 + 1.0j) * np.eye(3, k=1)],
                         ids=["shift-4", "shift-5", "complex-shift-3"])
def test_a_singular_eigenvector_matrix_is_near_defective_with_an_infinite_condition(h):
    spectral = eigendecompose(h)
    assert spectral.eigenvectors_inv is None
    assert spectral.classification is SpectrumClass.NEAR_DEFECTIVE
    assert spectral.eigvec_condition == np.inf
    with pytest.raises(NotDiagonalizableError, match="eigenvector condition number inf exceeds"):
        biorthonormalize(spectral)


def test_a_well_conditioned_decomposition_takes_no_svd_and_its_dual_basis_no_inverse(monkeypatch):
    rng = np.random.default_rng(5)
    matrices = random_similarity(rng, 6)[0], _real_similarity(rng, [np.diag([2.0, 2.0, 1.0, -1.0])])
    calls = []
    for name in ("svd", "cond", "inv", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    for h in matrices:
        spectral = eigendecompose(h)
        assert calls == ["inv"]
        system = biorthonormalize(spectral)
        assert calls == ["inv"]
        npt.assert_allclose(system.phi.conj().T @ system.psi, np.eye(len(h)), atol=DUALITY_ATOL)
        # the condition number is one SVD on first read, and is kept
        assert spectral.eigvec_condition == spectral.eigvec_condition
        assert calls == ["inv", "cond"]
        calls.clear()


@pytest.mark.parametrize(
    "h", [np.array([[5.0]]), 2.0 * np.eye(3), np.zeros((3, 3))], ids=["d1", "one-cluster", "zero"]
)
def test_one_cluster_has_no_separation_ratio(h):
    assert eigendecompose(h)._clusters == ([list(range(h.shape[0]))], 0.0)


@pytest.mark.parametrize("j", [0, 600, -600])
def test_separation_ratio_is_the_norm_over_the_smallest_cluster_gap(j):
    # gaps 2 and 3 between the clusters {3}, {1, 1}, {-2}; ||H||_F = sqrt(15)
    clusters, ratio = eigendecompose(np.ldexp(np.diag([3.0, 1.0, 1.0, -2.0]), j))._clusters
    assert clusters == [[0], [1, 2], [3]]
    assert ratio == np.sqrt(15.0) / 2.0


def test_biorthonormalize_rejects_complex_spectrum():
    with pytest.raises(ComplexSpectrumError, match=r"1\.000e\+00 exceeds its reality bound 2\.000e-09"):
        biorthonormalize(np.array([[0.0, -1.0], [1.0, 0.0]]))
    # the reported eigenvalue is the one past its own bound, not the largest |Im w|
    with pytest.raises(ComplexSpectrumError, match=r"1\.000e-03 exceeds"):
        biorthonormalize(np.diag([1e12 + 1e2j, 1.0 + 1e-3j]))
    # the bound quoted is the one that classified, read from the record
    for h, rtol in [(np.diag([1e12 + 1e2j, 1.0 + 1e-3j]), REALITY_RTOL), (np.diag([3.0, 2.0 + 1e-6j]), 1e-7)]:
        spectral = eigendecompose(h, rtol)
        w, bounds = spectral.eigenvalues, spectral._reality_bounds
        k = int(np.argmax(np.abs(w.imag) - bounds))
        assert bounds[k] == rtol * (1.0 + abs(w[k]))
        with pytest.raises(ComplexSpectrumError) as raised:
            biorthonormalize(spectral)
        assert f"|Im w| = {abs(w[k].imag):.3e} exceeds its reality bound {bounds[k]:.3e};" in str(raised.value)


def test_eigendecompose_only_decomposes():
    # every verdict is the record's, taken on first read and then kept
    spectral = eigendecompose(np.array([[1.0, 1.0], [2.0**-54, 1.0]]))
    derived = ("classification", "eigvec_condition", "_reality_bounds", "_measured", "_clusters")
    assert not set(derived) & set(vars(spectral))
    assert spectral.classification is SpectrumClass.NEAR_DEFECTIVE
    # its bounds straddle the limit, so the verdict read the condition number
    assert "eigvec_condition" in vars(spectral) and spectral.eigvec_condition > EIGVEC_CONDITION_LIMIT
    assert spectral.classification is spectral.classification


def test_biorthonormalize_rejects_near_defective():
    with pytest.raises(NotDiagonalizableError):
        biorthonormalize(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_biorthonormalize_rejects_unknown_normalization(eig_calls):
    with pytest.raises(ValueError):
        biorthonormalize(np.eye(2), normalization="fancy")
    # the name is checked before the decomposition and its spectrum gates
    with pytest.raises(ValueError, match="unknown normalization 'foo'"):
        biorthonormalize(np.array([[0.0, 1.0], [-1.0, 0.0]]), normalization="foo")
    assert eig_calls == []


def test_transpose_normalization_properties():
    # complex symmetric input with real nondegenerate spectrum
    from pht.families import SymmetricFamilyParams, symmetric_hamiltonian

    rng = np.random.default_rng(3)
    for _ in range(25):
        t = rng.uniform(0.5, 2.5)
        p = SymmetricFamilyParams(
            rng.uniform(-1, 1), rng.uniform(-0.9, 0.9) * t, t, rng.uniform(0, 2 * np.pi)
        )
        h = symmetric_hamiltonian(p)
        system = biorthonormalize(h, normalization="transpose")
        for k in range(2):
            sign = 1.0 if k % 2 == 0 else -1.0
            psi = system.psi[:, k]
            # indefinite self-products alternate +1, -1 down the spectrum
            npt.assert_allclose(psi @ psi, sign, atol=ATOL)
            npt.assert_allclose(system.phi[:, k], sign * np.conj(psi), atol=ATOL)
        npt.assert_allclose(system.phi.conj().T @ system.psi, np.eye(2), atol=DUALITY_ATOL)
        assert system.completeness_residual() < 1e-12


def test_transpose_normalization_rejections():
    with pytest.raises(ValueError, match="symmetric"):
        biorthonormalize(np.array([[1.0, 2.0], [0.5, -1.0]]), normalization="transpose")
    with pytest.raises(ValueError, match="nondegenerate"):
        biorthonormalize(np.eye(2), normalization="transpose")


def _transpose_gate_refuses(h) -> bool:
    try:
        biorthonormalize(h, normalization="transpose")
    except ValueError as exc:
        return "complex symmetric" in str(exc)
    except PHTError:
        pass  # refused by a later gate
    return False


small_integer_matrices = st.integers(2, 4).flatmap(
    lambda dim: st.lists(st.integers(-8, 8), min_size=2 * dim * dim, max_size=2 * dim * dim).map(
        lambda v: np.reshape(v, (2, dim, dim)).astype(float)
    )
).map(lambda p: p[0] + 1j * p[1])


@settings(max_examples=60, deadline=None)
@given(small_integer_matrices, st.booleans(), st.floats(min_value=1e-12, max_value=1e300))
@example(np.array([[1.0, 1.5], [0.0, -1.0]]), False, 1e-12)
@example(np.array([[1.0, 1.5], [0.0, -1.0]]), False, 1e300)
def test_transpose_gate_verdict_does_not_depend_on_scale(h, symmetrize, scale):
    # integer entries: a non-symmetric h has relative asymmetry far above the tolerance
    if symmetrize:
        h = h + h.T
    assert _transpose_gate_refuses(scale * h) == _transpose_gate_refuses(h)


def _real_similarity(rng, blocks):
    """``S diag(blocks) S^{-1}`` with a real, mildly conditioned ``S``."""
    d = sum(b.shape[0] for b in blocks)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    s = q @ np.diag(np.exp(rng.uniform(-0.5, 0.5, size=d)))
    core = np.zeros((d, d))
    k = 0
    for b in blocks:
        core[k:k + b.shape[0], k:k + b.shape[0]] = b
        k += b.shape[0]
    return s @ core @ np.linalg.inv(s)


def test_real_operator_is_decomposed_in_real_arithmetic(eig_calls):
    h = _real_similarity(np.random.default_rng(5), [np.diag([3.0, 1.0, -2.0])]).astype(complex)
    eigendecompose(h)
    assert eig_calls == [np.float64]
    # the choice follows the values: one tiny imaginary entry keeps the complex routine
    h[0, 1] += 1e-300j
    eig_calls.clear()
    eigendecompose(h)
    assert eig_calls == [np.complex128]


def test_real_operator_results_stay_complex():
    rng = np.random.default_rng(6)
    symmetric = rng.normal(size=(4, 4))
    for h, normalization in [
        (_real_similarity(rng, [np.diag([2.0, 1.0, -0.5, -3.0])]), "unit"),
        (symmetric + symmetric.T, "transpose"),
    ]:
        spectral = eigendecompose(h)
        system = biorthonormalize(h, normalization=normalization)
        metric = build_eta_plus(system)
        arrays = [spectral.eigenvalues, spectral.eigenvectors, system.psi, system.phi,
                  metric.eta_plus, metric.rho_plus, metric.rho_plus_inv, hermitize(h, metric)]
        assert [a.dtype for a in arrays] == [np.complex128] * len(arrays)
        assert system.eigenvalues.dtype == np.float64  # a biorthonormal system has real eigenvalues
        if normalization == "unit":
            # negative pivots are rotated by exactly -1, so nothing picks up a 1e-16 phase
            assert not any(a.imag.any() for a in arrays)


def test_real_operator_conjugate_pairs_are_exact():
    blocks = [np.array([[a, b], [-b, a]]) for a, b in [(2.0, 0.5), (0.3, 1.7), (-1.0, 0.2)]]
    h = _real_similarity(np.random.default_rng(8), blocks)
    data = eigendecompose(h.astype(complex))
    assert data.classification is SpectrumClass.CONJUGATE_PAIRS
    w, v = data.eigenvalues, data.eigenvectors
    assert np.all(w[0::2].imag > 0)
    assert np.array_equal(w[1::2], w[0::2].conj())
    assert np.array_equal(v[:, 1::2], v[:, 0::2].conj())
    npt.assert_allclose(h @ v, v * w, atol=1e-12)


def test_real_values_decompose_alike_in_either_dtype():
    rng = np.random.default_rng(9)
    h = _real_similarity(rng, [np.diag([1.5, 0.5, -1.0, -2.5])])
    pairs = _real_similarity(rng, [np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag([2.0, -2.0])])
    for m in (h, pairs):
        a, b = eigendecompose(m), eigendecompose(m.astype(complex))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert a.eigvec_condition == b.eigvec_condition
    a, b = biorthonormalize(h), biorthonormalize(h.astype(complex))
    assert np.array_equal(a.psi, b.psi) and np.array_equal(a.phi, b.phi)
    ma, mb = build_eta_plus(a), build_eta_plus(b)
    for x, y in [(ma.eta_plus, mb.eta_plus), (ma.rho_plus, mb.rho_plus),
                 (hermitize(h, ma), hermitize(h.astype(complex), mb))]:
        assert np.array_equal(x, y)


def test_transpose_normalization_of_real_symmetric_input_keeps_imaginary_psi():
    # psi_n^T psi_n = -1 makes the second column purely imaginary; a real result
    # array would have dropped that imaginary part
    h = np.array([[1.0, 0.5, 0.0], [0.5, -1.0, 0.3], [0.0, 0.3, 2.0]])
    system = biorthonormalize(h, normalization="transpose")
    assert system.psi.dtype == np.complex128
    psi = system.psi[:, 1]
    assert not psi.real.any() and np.abs(psi.imag).max() > 0.5
    npt.assert_allclose(system.psi.T @ system.psi, np.diag([1.0, -1.0, 1.0]), atol=ATOL)
    npt.assert_allclose(h @ system.psi, system.psi * system.eigenvalues, atol=ATOL)
    npt.assert_allclose(system.phi.conj().T @ system.psi, np.eye(3), atol=DUALITY_ATOL)


def test_matrix_exp_pauli_identity():
    # exp(i a sigma) = cos(a) 1 + i sin(a) sigma for each Pauli matrix
    for sigma in PAULI:
        for a in (0.0, 0.3, -1.2, np.pi):
            expected = np.cos(a) * IDENTITY2 + 1j * np.sin(a) * sigma
            npt.assert_allclose(matrix_exp(1j * a * sigma), expected, atol=ATOL)


def test_pauli_exp_matches_dense_exponential():
    # half angles of [-2 pi, 2 pi], the range the reductions and tau roots use
    rng = np.random.default_rng(2003)
    for _ in range(200):
        theta = rng.uniform(-np.pi, np.pi)
        for axis in (*PAULI, _axis_matrix(rng.uniform(0.0, 2.0 * np.pi))):
            expected = matrix_exp(1j * theta * axis)
            npt.assert_allclose(_pauli_exp(theta, axis), expected, rtol=0, atol=1e-15)


def test_matrix_exp_partial_sum_oracle():
    rng = np.random.default_rng(5)
    a = 0.1 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    total = np.zeros((4, 4), dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 30):
        total += term
        term = term @ a / k
    npt.assert_allclose(matrix_exp(a), total, atol=1e-13)


def test_pauli_constants():
    for sigma in PAULI:
        npt.assert_allclose(sigma @ sigma, IDENTITY2, atol=0)
    npt.assert_allclose(SIGMA1 @ SIGMA2, 1j * SIGMA3, atol=0)
    npt.assert_allclose(SIGMA2 @ SIGMA3, 1j * SIGMA1, atol=0)
    npt.assert_allclose(SIGMA3 @ SIGMA1, 1j * SIGMA2, atol=0)


def _general_formula_record(matrix, rtol):
    """``(w, v, v^-1, class, matrix)`` by the formulas for any spectrum.

    The real copy of a real-valued matrix is copied again, the spectrum is
    sorted by ``lexsort`` on ``(-Im w, -Re w)``, every eigenvalue is held
    to be no NaN and ``Im w = 0`` or ``|Im w| <= rtol (1 + |w|)`` after the
    cast to complex, and the SVD decides the near-defective verdict.
    """
    m = _real_if_real(as_square_matrix(matrix)).copy()
    w, v = np.linalg.eig(m)
    order = np.lexsort((-w.imag, -w.real))
    w, v = w[order], v[:, order]
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        v_inv = None
    near_defective = not np.linalg.cond(v) <= EIGVEC_CONDITION_LIMIT
    w, v = w.astype(complex), v.astype(complex)
    with np.errstate(invalid="ignore"):
        real = np.all(~np.isnan(w) & ((w.imag == 0.0) | (np.abs(w.imag) <= rtol * (1.0 + np.abs(w)))))
    if near_defective:
        cls = SpectrumClass.NEAR_DEFECTIVE
    else:
        cls = SpectrumClass.REAL_DIAGONALIZABLE if real else SpectrumClass.CONJUGATE_PAIRS
    return w, v, v_inv, cls, m


def _record_cases():
    rng = np.random.default_rng(23)
    s = rng.normal(size=(5, 5)) + 2.0 * np.eye(5)
    sc = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return {
        "real-real-spectrum": s @ np.diag([3.0, 1.0, -0.5, 2.0, -2.0]) @ np.linalg.inv(s),
        "real-conjugate-pairs": rng.normal(size=(6, 6)),
        "real-rotation": [[0.0, -1.0], [1.0, 0.0]],
        "complex-real-spectrum": sc @ np.diag([1.0, -1.0, 0.5, 2.0]) @ np.linalg.inv(sc),
        "complex-spectrum": rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)),
        "real-exact-cluster": s @ np.diag([1.0, 1.0, 1.0, -2.0, 0.5]) @ np.linalg.inv(s),
        "complex-exact-cluster": sc @ np.diag([2.0, 2.0, -1.0, -1.0]) @ np.linalg.inv(sc),
        "scalar": 2.0 * np.eye(3),
        "zero": np.zeros((3, 3)),
        "near-defective": [[1.0, 1.0], [0.0, 1.0 + 1e-12]],
        "defective-singular-v": [[0.0, 0.0], [1.0, 0.0]],
        "shift-singular-v": np.eye(4, k=1),
        "upper-1e308": [[1e308, 1e308j], [0.0, -1e308]],
        "rotation-1e308": [[1e308, 1e308], [-1e308, 1e308]],
        "upper-1.6e308": [[8e307, 1.2e308], [0.0, 1.6e308]],
        # eig overflows one eigenvalue to inf: a real spectrum under any rtol
        "ones-1e308": [[1e308, 1e308], [1e308, 1e308]],
    }


@pytest.mark.parametrize("rtol", [0.0, REALITY_RTOL, 1e-3])
@pytest.mark.parametrize("name", sorted(_record_cases()))
def test_eigendecompose_matches_the_general_formulas(name, rtol):
    # the real-spectrum read (eig's dtype), the one argsort and the one copy
    # of a real matrix give the arrays and the class of the general formulas
    matrix = np.asarray(_record_cases()[name])
    with np.errstate(invalid="ignore"):
        record = eigendecompose(matrix, rtol)
    w, v, v_inv, cls, m = _general_formula_record(matrix, rtol)
    assert record.classification is cls
    assert np.array_equal(record.eigenvalues, w, equal_nan=True)
    assert np.array_equal(record.eigenvectors, v, equal_nan=True)
    assert (record.eigenvectors_inv is None) == (v_inv is None)
    if v_inv is not None:
        assert np.array_equal(record.eigenvectors_inv, v_inv, equal_nan=True)
    assert np.array_equal(record.matrix, m) and record.matrix.dtype == m.dtype
    assert not np.shares_memory(record.matrix, matrix)


@pytest.mark.filterwarnings("error")
def test_an_eigenvalue_with_no_imaginary_part_is_real_under_any_tolerance():
    # eig of this matrix returns the real [inf, 2.2e292]; rtol (1 + |w|) is
    # NaN for the infinite one under rtol = 0, and no bound is formed
    ones = np.array([[1e308, 1e308], [1e308, 1e308]])
    for rtol in (0.0, REALITY_RTOL):
        assert eigendecompose(ones, rtol).classification is SpectrumClass.REAL_DIAGONALIZABLE


@pytest.mark.parametrize("dtype", [float, complex])
def test_a_nan_eigenvalue_lands_on_near_defective(monkeypatch, dtype):
    # eig leaves a NaN in an eigenvalue and in its eigenvector together; the
    # near-defective verdict comes first, and reads the condition number of a
    # NaN column as NaN (its SVD would not converge)
    w = np.array([np.nan, 1.0], dtype=dtype)
    v = np.array([[np.nan, 0.0], [np.nan, 1.0]], dtype=dtype)
    monkeypatch.setattr(np.linalg, "eig", lambda m: (w.copy(), v.copy()))
    record = eigendecompose(np.eye(2))
    assert record.classification is SpectrumClass.NEAR_DEFECTIVE
    assert np.isnan(record.eigvec_condition)


@pytest.mark.parametrize("w", [[np.nan, 1.0], [np.nan + 0j, 1.0], [complex(1.0, np.nan), 1.0]], ids=str)
def test_a_nan_eigenvalue_is_never_real(monkeypatch, w):
    # Im w of a real-typed NaN, or of nan + 0j, is exactly 0; the NaN itself
    # refuses the real class, whatever its (here finite) eigenvector holds
    w = np.array(w)
    monkeypatch.setattr(np.linalg, "eig", lambda m: (w.copy(), np.eye(2, dtype=w.dtype)))
    for rtol in (0.0, REALITY_RTOL, 1e300):
        assert eigendecompose(np.eye(2), rtol).classification is SpectrumClass.CONJUGATE_PAIRS


def test_frobenius_norm_is_numpys_bit_for_bit_and_reports_no_overflow():
    # the norm of every gate: np.linalg.norm's value for every layout, and an
    # overflow to inf with no warning, so _norm_in_range needs no errstate
    rng = np.random.default_rng(29)
    for d in (1, 2, 7, 32):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for a in (m, m.T, m.conj().T, m.real, m.real.T, m[:, ::2]):
            assert _frobenius_norm(a) == float(np.linalg.norm(a))
    huge = np.array([[1e308, 1e308j], [0.0, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _frobenius_norm(huge) == np.inf
        assert _frobenius_norm(huge.real) == np.inf
        scaled, norm, e = _norm_in_range(huge)
    assert e == 1024 and norm == _frobenius_norm(np.ldexp(huge.view(float), -1024).view(complex))
