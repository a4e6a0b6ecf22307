"""Antilinear operators, generalized time reversal, and exactness checks."""
import functools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pht.antilinear import (
    FIXED_POINT_MARGIN,
    PT_RESIDUAL_TOL,
    AntilinearOperator,
    ExactnessReport,
    TimeReversalParams,
    apply_antilinear,
    check_exactness,
    check_pt_symmetry,
    is_hermitian_antilinear_involution,
    make_time_reversal,
    unitary_sqrt_of_tau,
)
from pht.errors import (
    DimensionMismatchError,
    NotPTSymmetricError,
    SingularParityError,
)
from pht.families import (
    GeneralFamilyParams,
    SymmetricFamilyParams,
    general_t_hamiltonian,
    parity_from_angle,
    symmetric_hamiltonian,
)
from pht.linalg import (
    EIGVEC_CONDITION_LIMIT,
    SIGMA2,
    SIGMA3,
    SpectralData,
    _condition_bounds,
    biorthonormalize,
    eigendecompose,
)

from conftest import integer_grid_matrices, random_exact_symmetric_params, scale_by_power_of_two

ATOL = 1e-12

angle = st.floats(min_value=0.0, max_value=2.0 * np.pi, allow_nan=False)


def test_apply_is_antilinear():
    rng = np.random.default_rng(2)
    tau = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    op = AntilinearOperator(tau)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    a = 1.2 - 0.4j
    npt.assert_allclose(op(a * psi), np.conj(a) * op(psi), atol=ATOL)
    # identity linear part is plain conjugation
    conj = AntilinearOperator(np.eye(2))
    npt.assert_allclose(conj([1.0 + 2.0j, -1.0j]), [1.0 - 2.0j, 1.0j], atol=0)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_antilinear(AntilinearOperator(np.eye(2)), np.ones(3))


def test_composition_rules():
    rng = np.random.default_rng(8)
    t1 = AntilinearOperator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    t2 = AntilinearOperator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    # T1 T2 is linear with matrix tau1 conj(tau2)
    npt.assert_allclose(t1.compose_antilinear(t2) @ psi, t1(t2(psi)), atol=ATOL)
    npt.assert_allclose(t1.squared() @ psi, t1(t1(psi)), atol=ATOL)


def test_sigma2_is_rejected_as_involution():
    # unitary but antisymmetric: squares to -1 (Kramers case), so not Hermitian
    op = AntilinearOperator(SIGMA2)
    check = is_hermitian_antilinear_involution(op)
    assert not check.passed
    assert check.symmetry_residual > 1.0
    assert check.unitarity_residual < 1e-15
    npt.assert_allclose(op.squared(), -np.eye(2), atol=0)


def test_nonunitary_symmetric_rejected():
    check = is_hermitian_antilinear_involution(AntilinearOperator(2.0 * np.eye(2)))
    assert not check.passed
    assert check.symmetry_residual < 1e-15
    assert check.unitarity_residual > 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e200j, 1e-200])
def test_an_involution_far_from_unit_scale_fails_without_a_warning(scale):
    # tau^dagger tau overflows (a complex product gives inf * 0 = NaN), or
    # underflows to 0 and leaves the residual ||-1||_F
    for tau in (scale * np.eye(2), scale * np.array([[0.6, 0.8j], [0.8j, 0.6]])):
        check = is_hermitian_antilinear_involution(AntilinearOperator(tau))
        assert not check.passed
        assert check.symmetry_residual < 1e-15
        assert check.unitarity_residual == (np.inf if abs(scale) > 1.0 else np.sqrt(2.0))


@settings(max_examples=60, deadline=None)
@given(angle, angle, angle)
def test_time_reversal_family_is_hermitian_involution(gamma, xi, zeta):
    op = make_time_reversal(TimeReversalParams(gamma, xi, zeta))
    check = is_hermitian_antilinear_involution(op)
    assert check.passed
    npt.assert_allclose(op.squared(), np.eye(2), atol=1e-12)


def test_time_reversal_params_wrap_mod_2pi():
    p = TimeReversalParams(2.0 * np.pi + 0.3, -0.5, 7.0)
    assert p.gamma == pytest.approx(0.3)
    assert p.zeta == pytest.approx(7.0 - 2.0 * np.pi)
    assert 0.0 <= p.xi < 2.0 * np.pi


def test_unitary_sqrt_squares_to_tau():
    rng = np.random.default_rng(13)
    for _ in range(50):
        params = TimeReversalParams(*rng.uniform(0.0, 2.0 * np.pi, size=3))
        u = unitary_sqrt_of_tau(params)
        tau = make_time_reversal(params).tau
        npt.assert_allclose(u @ u, tau, atol=ATOL)
        npt.assert_allclose(u @ u.conj().T, np.eye(2), atol=ATOL)
        npt.assert_allclose(u, u.T, atol=ATOL)


def test_tau_action_is_conjugation_in_rotated_frame():
    # tau conj(psi) = U conj(U^{-1} psi) for the symmetric unitary root U
    rng = np.random.default_rng(17)
    for _ in range(20):
        params = TimeReversalParams(*rng.uniform(0.0, 2.0 * np.pi, size=3))
        op = make_time_reversal(params)
        u = unitary_sqrt_of_tau(params)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        npt.assert_allclose(op(psi), u @ np.conj(u.conj().T @ psi), atol=ATOL)


def test_check_pt_symmetry_family():
    conj = AntilinearOperator(np.eye(2))
    rng = np.random.default_rng(21)
    for _ in range(20):
        r, s, t, phi = random_exact_symmetric_params(rng)
        h = symmetric_hamiltonian(SymmetricFamilyParams(r, s, t, phi))
        assert check_pt_symmetry(h, parity_from_angle(phi), conj) < 1e-13
    # the symmetry of the family persists into the broken regime
    h = symmetric_hamiltonian(SymmetricFamilyParams(0.0, 2.0, 1.0, 0.0))
    assert check_pt_symmetry(h, parity_from_angle(0.0), conj) < 1e-13
    # generic complex matrices are not symmetric under P(0) . conjugation
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert check_pt_symmetry(m, parity_from_angle(0.0), conj) > 1e-3


def test_check_pt_symmetry_validation():
    conj = AntilinearOperator(np.eye(2))
    with pytest.raises(SingularParityError, match=r"condition number 0\.000e\+00 <= 1\.0e-13"):
        check_pt_symmetry(np.eye(2), np.zeros((2, 2)), conj)
    with pytest.raises(DimensionMismatchError):
        check_pt_symmetry(np.eye(3), np.eye(3), conj)
    assert check_pt_symmetry(np.zeros((2, 2)), np.eye(2), conj) == 0.0


@settings(max_examples=100, deadline=None)
@given(integer_grid_matrices(), st.integers(-1000, 1000))
def test_check_pt_symmetry_is_bit_identical_under_power_of_two_scaling(h, j):
    dim = h.shape[0]
    parity = np.diag([(-1.0) ** k for k in range(dim)])
    conj = AntilinearOperator(np.eye(dim))
    assert check_pt_symmetry(scale_by_power_of_two(h, j), parity, conj) == check_pt_symmetry(h, parity, conj)


@settings(max_examples=100, deadline=None)
@given(integer_grid_matrices(count=3), st.integers(-1000, 1000), st.integers(-1000, 1000))
# P and tau each in range, their product's squared entries below the double range
@example((np.diag([0.0, 0.0, 2.0**-10 * 1j]), 2.0**-229 * np.eye(3)[::-1],
          np.diag([0.0, 0.0, 2.0**-299 * 1j])), 229, 299)
# P and tau each in range, their product's squared entries above it
@example((1j * np.array([[1.0, 2.0], [3.0, 4.0]]), 2.0**299 * np.eye(2), 2.0**299 * np.eye(2)),
         -299, -299)
def test_check_pt_symmetry_scales_with_the_parity_and_tau_bit_for_bit(matrices, j, k):
    # the residual is homogeneous of degree 1 in P and in tau; a residual
    # that overflows reads inf on both sides
    h, parity, tau = matrices
    assume(np.linalg.cond(parity) < 1e12)
    residual = check_pt_symmetry(h, parity, AntilinearOperator(tau))
    scaled = check_pt_symmetry(
        h, scale_by_power_of_two(parity, j), AntilinearOperator(scale_by_power_of_two(tau, k))
    )
    with np.errstate(over="ignore"):
        assert scaled == np.ldexp(residual, j + k)


def test_check_exactness_exact_family():
    conj = AntilinearOperator(np.eye(2))
    rng = np.random.default_rng(27)
    for _ in range(20):
        r, s, t, phi = random_exact_symmetric_params(rng)
        h = symmetric_hamiltonian(SymmetricFamilyParams(r, s, t, phi))
        parity = parity_from_angle(phi)
        report = check_exactness(h, parity, conj)
        assert report.exact
        assert report.failure_reason is None
        pt_linear = parity @ conj.tau
        for k in range(2):
            psi = report.fixed_eigenvectors[:, k]
            npt.assert_allclose(pt_linear @ np.conj(psi), psi, atol=1e-9)
            # still an eigenvector of H after the phase adjustment
            w = np.vdot(psi, h @ psi) / np.vdot(psi, psi)
            npt.assert_allclose(h @ psi, w * psi, atol=1e-9)


def test_check_exactness_broken_family():
    conj = AntilinearOperator(np.eye(2))
    h = symmetric_hamiltonian(SymmetricFamilyParams(0.0, 2.0, 1.0, 0.0))
    report = check_exactness(h, parity_from_angle(0.0), conj)
    assert not report.exact
    assert report.failure_reason == "complex_eigenvalues"
    assert report.fixed_eigenvectors is None


def test_check_exactness_defective():
    # real Jordan block commutes with plain conjugation but is not diagonalizable
    h = np.array([[1.0, 1.0], [0.0, 1.0]])
    report = check_exactness(h, np.eye(2), AntilinearOperator(np.eye(2)))
    assert not report.exact
    assert report.failure_reason == "not_diagonalizable"


def test_check_exactness_requires_the_symmetry():
    # a pair above the commutator gate gets a report, with the residual it
    # compared; atol moves the gate
    rng = np.random.default_rng(33)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    conj = AntilinearOperator(np.eye(2))
    residual = check_pt_symmetry(m, np.eye(2), conj)
    assert residual > PT_RESIDUAL_TOL
    report = check_exactness(m, np.eye(2), conj)
    assert report == ExactnessReport(False, None, "not_pt_symmetric", residual)
    # m's residual is of the order of ||P tau||: no atol opens the gate
    assert check_exactness(m, np.eye(2), conj, atol=np.inf) == report
    # past the gate, the spectrum decides: a real H with a complex spectrum,
    # moved off the symmetry by 1e-6
    h = np.array([[1.0, 2.0], [-2.0, 1.0]]) + 1e-6j * m
    residual = check_pt_symmetry(h, np.eye(2), conj)
    assert residual > PT_RESIDUAL_TOL
    assert check_exactness(h, np.eye(2), conj).failure_reason == "not_pt_symmetric"
    loose = check_exactness(h, np.eye(2), conj, atol=2.0 * residual)
    assert loose == ExactnessReport(False, None, "complex_eigenvalues", residual)


def test_check_exactness_refuses_a_residual_that_is_large_at_the_scale_of_pt():
    # [[1, 2], [0.5, -1]] does not commute with sigma_3 K: its eigenvectors
    # are no eigenvectors of sigma_3 K.  Under tau = 1e-12 its residual,
    # 1.6e-12, is below the default atol, and under atol = inf any residual
    # is; relative to ||P tau||_F it is 1.17 either way, which no budget for
    # rounding covers
    h = np.array([[1.0, 2.0], [0.5, -1.0]])
    tiny = check_exactness(h, SIGMA3, AntilinearOperator(1e-12 * np.eye(2)))
    assert tiny.pt_residual < PT_RESIDUAL_TOL
    assert (tiny.exact, tiny.fixed_eigenvectors, tiny.failure_reason) == (False, None, "not_pt_symmetric")
    opened = check_exactness(h, SIGMA3, AntilinearOperator(np.eye(2)), atol=np.inf)
    assert (opened.exact, opened.fixed_eigenvectors, opened.failure_reason) == (False, None, "not_pt_symmetric")
    for j in (-1000, -1, 1, 1000):
        for p, t in ((scale_by_power_of_two(SIGMA3, j), np.eye(2)), (SIGMA3, scale_by_power_of_two(np.eye(2), j))):
            assert check_exactness(h, p, AntilinearOperator(t), atol=np.inf).failure_reason == "not_pt_symmetric"


def test_check_exactness_refuses_a_residual_too_large_for_the_eigenvalue_gaps():
    # The same residual (4e-9, within the default atol) moves the eigenvectors
    # of diag(0, g, 1) by about 4e-9 / g: it is rounding against g = 1e-3,
    # and against g = 1e-7 the eigenvectors are no longer decided by it
    e = np.random.default_rng(0).normal(size=(3, 3))
    conj = AntilinearOperator(np.eye(3))
    wide = check_exactness(np.diag([0.0, 1e-3, 1.0]) + 1e-9j * e, np.eye(3), conj)
    narrow = check_exactness(np.diag([0.0, 1e-7, 1.0]) + 1e-9j * e, np.eye(3), conj)
    assert wide.pt_residual == pytest.approx(narrow.pt_residual, rel=1e-6) and wide.pt_residual < PT_RESIDUAL_TOL
    assert wide.exact
    assert (narrow.exact, narrow.failure_reason) == (False, "not_pt_symmetric")


def test_check_exactness_reads_a_pt_that_vanishes_as_n_equal_to_0_on_every_spectrum():
    # PT f = 0 f for every f: a zero tau is exact on a degenerate H as on a
    # nondegenerate one, with the eigenvectors as they are
    for h in (np.array([[1.0, 2.0], [0.5, -1.0]]), np.diag([1.0, 1.0, -1.0])):
        spectral = eigendecompose(h)
        report = check_exactness(spectral, np.eye(len(h)), AntilinearOperator(np.zeros_like(h)))
        assert report.exact and report.pt_residual == 0.0
        assert np.array_equal(report.fixed_eigenvectors, spectral.eigenvectors)
    # a tau that vanishes on the cluster only: N = 0 there, |N| = 1 on e_3
    report = check_exactness(np.diag([1.0, 1.0, -1.0]), np.eye(3), AntilinearOperator(np.diag([0.0, 0.0, 1.0])))
    assert report.exact
    # and one that does not vanish on it, with (PT)^2 = 0 there, is refused
    nilpotent = np.zeros((3, 3))
    nilpotent[0, 1] = 1.0
    with pytest.raises(NotPTSymmetricError, match="exceeds its budget"):
        check_exactness(np.diag([1.0, 1.0, -1.0]), np.eye(3), AntilinearOperator(nilpotent))


def _degenerate_hamiltonians(rng, count):
    """Pairs ``(H, tau)`` with a k-fold eigenvalue, commuting with ``PT = tau K``.

    A real ``H = S diag(w) S^-1`` (d 3-24, k 2-6) commutes with plain
    conjugation; ``u H u^dagger`` for a symmetric unitary ``u`` commutes with
    ``tau = u u^T`` times conjugation.
    """
    for _ in range(count):
        d = int(rng.integers(3, 25))
        k = int(rng.integers(2, min(d, 6) + 1))
        levels = rng.uniform(-3.0, 3.0) + 0.5 * np.arange(d - k + 1)
        w = np.concatenate([levels, np.full(k - 1, rng.choice(levels))])
        s = rng.normal(size=(d, d))
        h = s @ np.diag(w) @ np.linalg.inv(s)
        yield h, np.eye(d)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        u = q @ q.T
        yield u @ h @ u.conj().T, u @ u.T


def test_check_exactness_degenerate_eigenspace():
    # H = 2*I with PT = sigma_3 . conjugation: every vector is an eigenvector,
    # and the fixed combinations span the space over the reals
    h = 2.0 * np.eye(2)
    report = check_exactness(h, SIGMA3, AntilinearOperator(np.eye(2)))
    assert report.exact
    fixed = report.fixed_eigenvectors
    pt_linear = SIGMA3
    for k in range(2):
        npt.assert_allclose(pt_linear @ np.conj(fixed[:, k]), fixed[:, k], atol=1e-10)
        npt.assert_allclose(np.linalg.norm(fixed[:, k]), 1.0, atol=1e-12)
    assert abs(np.linalg.det(fixed)) > 0.5  # genuinely independent columns

    for h, tau in _degenerate_hamiltonians(np.random.default_rng(41), 20):
        d = h.shape[0]
        report = check_exactness(h, np.eye(d), AntilinearOperator(tau))
        assert report.exact
        fixed = report.fixed_eigenvectors
        assert np.abs(tau @ np.conj(fixed) - fixed).max() <= 1e-9
        npt.assert_allclose(np.linalg.norm(fixed, axis=0), 1.0, atol=1e-12)
        rayleigh = np.einsum("ij,ij->j", fixed.conj(), h @ fixed)
        eig_residual = np.linalg.norm(h @ fixed - fixed * rayleigh, axis=0).max()
        assert eig_residual <= 1e-9 * np.linalg.norm(h)
        # independent columns: fixed passes the package's own diagonalizability gate
        assert np.linalg.cond(fixed) < EIGVEC_CONDITION_LIMIT


def _non_scalar_cluster():
    """``(H, tau)``: on the cluster of ``diag(1, 1, -1)``, ``(PT)^2`` is not a multiple of 1.

    ``tau = [[1, .5], [.5, 1]]`` there gives ``|<e_k, PT e_k>| = 1``, but it
    squares to ``[[1.25, 1], [1, 1.25]]``, so no basis of the cluster is made
    of eigenvectors of ``PT``: only the returned columns themselves show it.
    """
    tau = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return np.diag([1.0, 1.0, -1.0]), tau


def test_check_exactness_refuses_a_pt_that_is_not_an_involution():
    # T = 2K commutes with a real H and squares to 4: every eigenvector is an
    # eigenvector of PT, with PT f = 2 f, so the symmetry is exact, with the
    # columns of T = K
    h = np.array([[1.0, 2.0], [0.5, -1.0]])
    doubled = check_exactness(h, np.eye(2), AntilinearOperator(2.0 * np.eye(2)))
    plain = check_exactness(h, np.eye(2), AntilinearOperator(np.eye(2)))
    assert doubled.exact and plain.exact
    assert np.array_equal(doubled.fixed_eigenvectors, plain.fixed_eigenvectors)
    fixed = doubled.fixed_eigenvectors
    pt_fixed = 2.0 * np.conj(fixed)  # tau conj(f)
    npt.assert_allclose(pt_fixed, 2.0 * fixed, rtol=0, atol=1e-15)

    # a cluster on which (PT)^2 is no positive multiple of 1 is refused
    h, tau = _non_scalar_cluster()
    with pytest.raises(NotPTSymmetricError, match=r"PT / \|N\| does not act as an involution"):
        check_exactness(h, np.eye(3), AntilinearOperator(tau))
    # and so is one on which it is -1: sigma_2 K squares to -1 (Kramers), so
    # no vector of the cluster is an eigenvector of PT
    h = np.diag([1.0, 1.0, -1.0])
    tau = np.zeros((3, 3), dtype=complex)
    tau[:2, :2], tau[2, 2] = SIGMA2, 1.0
    with pytest.raises(NotPTSymmetricError, match=r"PT / \|N\| does not act as an involution"):
        check_exactness(h, np.eye(3), AntilinearOperator(tau))

    # an involution that is not unitary still fixes its eigenvectors:
    # P = [[1, x], [0, -1]] squares to 1, and H = a + b P commutes with P K
    parity = np.array([[1.0, 40.0], [0.0, -1.0]])
    report = check_exactness(0.3 * np.eye(2) + 0.7 * parity, parity, AntilinearOperator(np.eye(2)))
    assert report.exact
    fixed = report.fixed_eigenvectors
    assert np.abs(parity @ np.conj(fixed) - fixed).max() <= 1e-12


@pytest.mark.parametrize("case", ["real", "general-t", "cluster"])
def test_check_exactness_takes_no_condition_number_svd_within_its_budget(monkeypatch, case):
    # the defect is within the budget at cond(V) = 1, its least value, so the
    # record's condition number (an SVD) is never read
    h, parity, tau = _handle_case(case)
    spectral = eigendecompose(h)
    refused, refused_tau = _non_scalar_cluster()
    refused = eigendecompose(refused)
    reads = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: reads.append(1) or cond(*a, **k))
    assert check_exactness(spectral, parity, AntilinearOperator(tau)).exact
    assert check_exactness(spectral, parity, AntilinearOperator(2.0 * tau)).exact
    assert reads == []
    # a refusal reads it once, for the budget its message states
    with pytest.raises(NotPTSymmetricError, match="exceeds its budget"):
        check_exactness(refused, np.eye(3), AntilinearOperator(refused_tau))
    assert reads == [1]


@pytest.mark.parametrize("atol", [np.nan, -1.0, -np.inf])
def test_check_exactness_refuses_an_atol_that_is_nan_or_negative(eig_calls, atol):
    # such an atol would pass no residual, and call a symmetric pair not PT-symmetric
    with pytest.raises(ValueError, match=f"atol must be >= 0, got {atol!r}"):
        check_exactness([[1.0, 2.0], [0.5, -1.0]], np.eye(2), AntilinearOperator(np.eye(2)), atol=atol)
    assert eig_calls == []
    report = check_exactness([[1.0, 2.0], [0.5, -1.0]], np.eye(2), AntilinearOperator(np.eye(2)), atol=0.0)
    assert report.exact and report.pt_residual == 0.0


def test_a_pair_that_fails_the_gate_never_classifies_its_record(monkeypatch):
    # max kappa_i and ||V||_F ||V^-1||_F straddle the limit here, so the
    # classification would need an SVD; sigma_3 does not commute with H
    spectral = eigendecompose([[1.0, 1.0], [2.0**-54, 1.0]])
    lo, hi = _condition_bounds(spectral.eigenvectors_inv)
    assert lo <= EIGVEC_CONDITION_LIMIT < hi
    reads = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: reads.append(1) or cond(*a, **k))
    report = check_exactness(spectral, SIGMA3, AntilinearOperator(np.eye(2)))
    assert report.failure_reason == "not_pt_symmetric"
    assert reads == []
    assert "classification" not in vars(spectral) and "_clusters" not in vars(spectral)
    # read now, the verdict takes its SVD
    assert spectral.classification.value == "near-defective" and reads == [1]


def _handle_case(case):
    """``(H, P, tau)`` for the record-versus-matrix comparison below."""
    rng = np.random.default_rng(61)
    if case == "real":
        s = rng.normal(size=(5, 5)) + 2.0 * np.eye(5)
        return s @ np.diag([2.0, 1.0, 0.5, -1.0, -3.0]) @ np.linalg.inv(s), np.eye(5), np.eye(5)
    if case == "general-t":
        base = GeneralFamilyParams(0.3, 0.6, 1.2, 0.4, 0.7)
        system = general_t_hamiltonian(base, TimeReversalParams(0.4, 1.1, 2.0))
        return system.hamiltonian, system.parity, system.time_reversal.tau
    if case == "cluster":
        _, (h, tau) = _degenerate_hamiltonians(rng, 1)
        return h, np.eye(h.shape[0]), tau
    if case == "complex-spectrum":
        return symmetric_hamiltonian(SymmetricFamilyParams(0.0, 2.0, 1.0, 0.0)), SIGMA3, np.eye(2)
    if case == "near-defective":
        return np.array([[1.0, 1.0], [1e-18, 1.0]]), np.eye(2), np.eye(2)
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), np.eye(2), np.eye(2)


@pytest.mark.parametrize("case", ["real", "general-t", "cluster", "complex-spectrum", "near-defective"])
def test_check_exactness_takes_the_decomposition_of_its_matrix(eig_calls, case):
    h, parity, tau = _handle_case(case)
    spectral = eigendecompose(h)
    del eig_calls[:]
    from_record = check_exactness(spectral, parity, AntilinearOperator(tau))
    assert eig_calls == []
    from_matrix = check_exactness(h, parity, AntilinearOperator(tau))
    assert len(eig_calls) == 1
    assert from_record.exact == from_matrix.exact == (case in ("real", "general-t", "cluster"))
    assert from_record.failure_reason == from_matrix.failure_reason
    if from_matrix.exact:
        assert np.array_equal(from_record.fixed_eigenvectors, from_matrix.fixed_eigenvectors)
    else:
        assert from_record.fixed_eigenvectors is from_matrix.fixed_eigenvectors is None


def test_check_exactness_refuses_a_record_of_a_matrix_without_the_symmetry(eig_calls):
    h, parity, tau = _handle_case("not-pt")
    spectral = eigendecompose(h)
    reports = [check_exactness(hamiltonian, parity, AntilinearOperator(tau)) for hamiltonian in (spectral, h)]
    assert reports[0] == reports[1]
    assert reports[0].failure_reason == "not_pt_symmetric" and reports[0].pt_residual > PT_RESIDUAL_TOL
    # the matrix is decomposed before the PT gate, the record not again
    assert len(eig_calls) == 2


def test_check_exactness_decides_against_the_tolerance_of_the_record():
    h = np.diag([1.0, 2.0 + 5e-9j])  # |Im w| = 5e-9 exceeds the default bound 3e-9
    conj = AntilinearOperator(np.eye(2))
    for hamiltonian in (h, eigendecompose(h, reality_rtol=1e-12)):
        assert check_exactness(hamiltonian, np.eye(2), conj).failure_reason == "complex_eigenvalues"
    report = check_exactness(eigendecompose(h, reality_rtol=1e-6), np.eye(2), conj)
    assert report.exact
    assert np.array_equal(report.fixed_eigenvectors, [[0.0, 1.0], [1.0, 0.0]])


def _scale_cases():
    """``{name: (H, P, tau)}`` for the scale tests below: each kind of column."""
    real, parity, tau = _handle_case("real")
    cluster, _ = next(_degenerate_hamiltonians(np.random.default_rng(5), 1))
    involution = np.array([[1.0, 40.0], [0.0, -1.0]])
    return {
        "real": (real, parity, tau),
        "2K": (np.array([[1.0, 2.0], [0.5, -1.0]]), np.eye(2), 2.0 * np.eye(2)),
        "real-cluster": (cluster, np.eye(len(cluster)), np.eye(len(cluster))),
        "complex-cluster": _handle_case("cluster"),
        "non-unitary-involution": (0.3 * np.eye(2) + 0.7 * involution, involution, np.eye(2)),
        "general-t": _handle_case("general-t"),
    }


@pytest.mark.parametrize(
    "name", ["real", "2K", "real-cluster", "complex-cluster", "non-unitary-involution", "general-t"]
)
def test_check_exactness_does_not_change_with_the_scale_of_p_and_tau(name):
    # The defect and its budget are homogeneous of degree 0 in P and in tau,
    # and the columns are normalized at the power-of-two scale of P tau, so
    # 2^j P and 2^j tau give the same verdict and the same bits.  The
    # commutator gate is of degree 1 (it is the CLI's --atol), so it is
    # opened here: near 2^1000 a residual of 1e-16 is past any threshold.
    h, parity, tau = _scale_cases()[name]
    spectral = eigendecompose(h)
    report = check_exactness(spectral, parity, AntilinearOperator(tau), atol=np.inf)
    assert report.exact
    bits = report.fixed_eigenvectors.tobytes()
    for j in (-1000, -1, 1, 1000):
        for p, t in ((scale_by_power_of_two(parity, j), tau), (parity, scale_by_power_of_two(tau, j))):
            scaled = check_exactness(spectral, p, AntilinearOperator(t), atol=np.inf)
            assert scaled.exact and scaled.fixed_eigenvectors.tobytes() == bits
    # T = c K for any c > 0: the same verdict, and for a real H with a
    # nondegenerate spectrum under P = 1 the same bits, as N = c |psi|^2 is
    # real and positive
    same_bits = name in ("real", "2K")
    for c in (3.0, 0.1, 1e200, 1e-200):
        scaled = check_exactness(spectral, parity, AntilinearOperator(c * tau), atol=np.inf)
        assert scaled.exact
        assert (scaled.fixed_eigenvectors.tobytes() == bits) or not same_bits


def _pt_pairs(rng):
    """``(H, P, tau)`` with the symmetry exact: clusters, general T, non-unitary P, T = c K."""
    for h, tau in _degenerate_hamiltonians(rng, 12):
        yield h, np.eye(len(h)), tau
    for _ in range(12):
        base = GeneralFamilyParams(*rng.uniform(-1.0, 1.0, 2), rng.uniform(1.2, 2.0), *rng.uniform(-1.0, 1.0, 2))
        system = general_t_hamiltonian(base, TimeReversalParams(*rng.uniform(0.0, 2.0 * np.pi, 3)))
        yield system.hamiltonian, system.parity, rng.uniform(0.1, 10.0) * system.time_reversal.tau
    for _ in range(12):
        # P = S diag(+-1) S^-1 is an involution, and H = a + b P commutes with P K
        d = int(rng.integers(2, 9))
        s = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
        parity = s @ np.diag(rng.choice([-1.0, 1.0], d)) @ np.linalg.inv(s)
        yield rng.normal() * np.eye(d) + rng.normal() * parity, parity, np.eye(d)


def test_pt_maps_each_column_to_its_modulus_times_itself_within_the_budget():
    # PT f = |N| f, N = <f, PT f>, to within the first-order budget stated in
    # check_exactness: FIXED_POINT_MARGIN (rho + eps) cond(V) (1 + d ||H|| / sep),
    # with rho the commutator residual relative to ||P tau||_F
    eps = np.finfo(float).eps
    for h, parity, tau in _pt_pairs(np.random.default_rng(71)):
        spectral = eigendecompose(h)
        time_reversal = AntilinearOperator(tau)
        report = check_exactness(spectral, parity, time_reversal)
        assert report.exact
        lin = parity @ tau
        size = np.linalg.norm(lin)
        f = report.fixed_eigenvectors
        pt_f = lin @ np.conj(f)
        modulus = np.abs(np.einsum("ij,ij->j", f.conj(), pt_f))
        defect = np.linalg.norm(pt_f - modulus * f, axis=0).max() / size
        _, h_over_sep = spectral._clusters
        rho = check_pt_symmetry(h, parity, time_reversal) / size
        budget = FIXED_POINT_MARGIN * (rho + eps) * spectral.eigvec_condition * (1.0 + len(h) * h_over_sep)
        assert defect <= budget


@pytest.mark.filterwarnings("error")
def test_a_huge_parity_leaves_the_fixed_point_budget_finite():
    # ||P||_F overflows unless scaled.  The defect and its budget are read at
    # the power-of-two scale of P tau, so nothing overflows, and the budget
    # cannot read inf and pass any defect.  H and P share their eigenvectors
    # (1, +-1) / sqrt(2), with PT f = (1e308 +- 9e307) f.
    huge = np.array([[1e308, 9e307], [9e307, 1e308]])
    report = check_exactness([[1.0, 2.0], [2.0, 1.0]], huge, AntilinearOperator(np.eye(2)))
    assert report.exact and report.pt_residual == 0.0
    npt.assert_allclose(np.abs(report.fixed_eigenvectors), np.sqrt(0.5), rtol=0, atol=1e-15)
    # a cluster on which (PT)^2 is not a multiple of 1 is refused at any scale
    h, tau = _non_scalar_cluster()
    with pytest.raises(NotPTSymmetricError, match="exceeds its budget"):
        check_exactness(h, 1e308 * np.eye(3), AntilinearOperator(1e308 * tau))


@pytest.mark.parametrize("d", [2, 7, 32])
def test_real_pt_gate_matches_complex_arithmetic(d):
    # With H, P and tau real-valued the products run in real arithmetic.  Two
    # roundings of a d x d product A B differ by at most 2 d eps ||A||_F ||B||_F.
    eps = np.finfo(float).eps
    flip = np.eye(d)[::-1]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        # the commutator, against the same products of the complex-typed operands
        a = rng.normal(size=(d, d))
        h = a + flip @ a @ flip + 1e-9 * rng.normal(size=(d, d))
        tau = rng.uniform(0.5, 2.0) * np.eye(d)
        lin, hc = flip.astype(complex) @ tau.astype(complex), h.astype(complex)
        reference = np.linalg.norm(hc @ lin - lin @ np.conj(hc)) / np.linalg.norm(h)
        got = check_pt_symmetry(h, flip, AntilinearOperator(tau))
        assert abs(got - reference) <= 6 * d * eps * np.linalg.norm(lin)

        # the fixed eigenvectors under P = 1, T = K, against T = e^{i theta} K,
        # whose complex tau sends every product to complex arithmetic: its
        # fixed points are e^{i theta / 2} f, up to sign, so their moduli agree
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        s = q @ np.diag(np.exp(rng.uniform(-0.5, 0.5, d)))
        h = s @ np.diag(rng.uniform(-3.0, 3.0, d)) @ np.linalg.inv(s)
        spectral = eigendecompose(h)
        report = check_exactness(spectral, np.eye(d), AntilinearOperator(np.eye(d)))
        rotated = check_exactness(spectral, np.eye(d), AntilinearOperator(np.exp(0.7j) * np.eye(d)))
        assert report.exact and rotated.exact
        fixed = report.fixed_eigenvectors
        assert fixed.dtype == complex
        npt.assert_allclose(np.abs(fixed), np.abs(rotated.fixed_eigenvectors), rtol=0, atol=8 * d * eps)
        npt.assert_allclose(np.conj(fixed), fixed, rtol=0, atol=8 * d * eps)


def test_check_exactness_measures_h_once(monkeypatch):
    # one scaling measurement of H and one cluster scan serve every reader of
    # the record, in the CLI's order: the transpose convention (which refuses
    # the degenerate spectrum after its gates), the unit one, the PT check
    from pht import antilinear, linalg

    h = np.diag([2.0, 1.0, 1.0, -1.0])
    spectral = eigendecompose(h)
    measured, scans = [], []
    norm_in_range = linalg._norm_in_range

    def counting(m):
        measured.append(m is spectral.matrix)
        return norm_in_range(m)

    scan = SpectralData.__dict__["_clusters"].func
    counting_scan = functools.cached_property(lambda self: scans.append(1) or scan(self))
    counting_scan.__set_name__(SpectralData, "_clusters")
    monkeypatch.setattr(antilinear, "_norm_in_range", counting)
    monkeypatch.setattr(linalg, "_norm_in_range", counting)
    monkeypatch.setattr(SpectralData, "_clusters", counting_scan)
    with pytest.raises(ValueError, match="nondegenerate spectrum"):
        biorthonormalize(spectral, normalization="transpose")
    assert measured == [True] and scans == [1]
    biorthonormalize(spectral)
    assert check_exactness(spectral, np.eye(4), AntilinearOperator(np.eye(4))).exact
    # H once, then P in the singularity gate and tau; the clusters once
    assert measured == [True, False, False] and scans == [1]
