"""Metric construction, hermitization, and weighted inner products."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pht.errors import (
    ComplexSpectrumError,
    DimensionMismatchError,
    NotDiagonalizableError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotPseudoHermitianError,
    PHTError,
    SingularWeightError,
)
from pht.families import SymmetricFamilyParams, symmetric_hamiltonian, symmetric_operators
from pht.linalg import SIGMA3, biorthonormalize, eigendecompose
from pht.metric import (
    InnerProductKind,
    MetricOperator,
    build_charge_conjugation,
    build_eta_plus,
    build_generalized_parity,
    hermitize,
    inner_product,
    map_observable,
    metric_from_hamiltonian,
    verify_pseudo_hermiticity,
)

from conftest import integer_grid_matrices, random_similarity, scale_by_power_of_two

ATOL = 1e-12
INVARIANT_ATOL = 1e-10

# Closed-form values at (r, s, t, phi) = (0, 1, 2, 0), alpha = pi/6.
SEC_A = 1.1547005383792517
TAN_A = 0.5773502691896258
R_PLUS = 1.0379548493020425
R_MINUS = -0.27811916365045
SQRT3 = 1.7320508075688772

FAMILY_POINT = SymmetricFamilyParams(0.0, 1.0, 2.0, 0.0)


def family_system():
    return biorthonormalize(symmetric_hamiltonian(FAMILY_POINT), normalization="transpose")


def test_build_eta_plus_family_golden():
    metric = build_eta_plus(family_system())
    expected_eta = np.array([[SEC_A, 1j * TAN_A], [-1j * TAN_A, SEC_A]])
    expected_rho = np.array([[R_PLUS, -1j * R_MINUS], [1j * R_MINUS, R_PLUS]])
    npt.assert_allclose(metric.eta_plus, expected_eta, atol=ATOL)
    npt.assert_allclose(metric.rho_plus, expected_rho, atol=ATOL)
    npt.assert_allclose(metric.rho_plus @ metric.rho_plus_inv, np.eye(2), atol=ATOL)


def test_build_parity_and_charge_family_golden():
    system = family_system()
    npt.assert_allclose(build_generalized_parity(system), np.diag([1.0, -1.0]), atol=ATOL)
    expected_charge = np.array([[SEC_A, 1j * TAN_A], [1j * TAN_A, -SEC_A]])
    npt.assert_allclose(build_charge_conjugation(system), expected_charge, atol=ATOL)


def test_metric_is_positive_and_consistent():
    rng = np.random.default_rng(19)
    for dim in (2, 4, 7):
        h, _ = random_similarity(rng, dim)
        metric = build_eta_plus(biorthonormalize(h))
        w = np.linalg.eigvalsh(metric.eta_plus)
        assert w[0] > 0.0
        npt.assert_allclose(metric.rho_plus @ metric.rho_plus, metric.eta_plus, atol=1e-10)
        npt.assert_allclose(metric.rho_plus, metric.rho_plus.conj().T, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=8))
def test_charge_invariants_random(seed, dim):
    """C^2 = 1, [H, C] = 0, and C = eta^{-1} P for any real-spectrum input."""
    rng = np.random.default_rng(seed)
    h, _ = random_similarity(rng, dim)
    system = biorthonormalize(h)
    metric = build_eta_plus(system)
    parity = build_generalized_parity(system)
    charge = build_charge_conjugation(system)
    scale = np.linalg.norm(h)
    npt.assert_allclose(charge @ charge, np.eye(dim), atol=INVARIANT_ATOL)
    assert np.linalg.norm(h @ charge - charge @ h) < INVARIANT_ATOL * scale
    npt.assert_allclose(np.linalg.inv(metric.eta_plus) @ parity, charge, atol=INVARIANT_ATOL)
    npt.assert_allclose(parity, parity.conj().T, atol=INVARIANT_ATOL)
    # H is pseudo-Hermitian with respect to both the parity and the metric
    assert verify_pseudo_hermiticity(h, parity) < INVARIANT_ATOL
    assert verify_pseudo_hermiticity(h, metric.eta_plus) < INVARIANT_ATOL


def test_verify_pseudo_hermiticity_basics():
    h = np.diag([1.0, 2.0])
    assert verify_pseudo_hermiticity(h, np.eye(2)) < 1e-15
    assert verify_pseudo_hermiticity(np.zeros((2, 2)), np.eye(2)) == 0.0
    with pytest.raises(SingularWeightError, match=r"condition number 1\.000e-15 <= 1\.0e-13"):
        verify_pseudo_hermiticity(h, np.diag([1.0, 1e-15]))
    with pytest.raises(SingularWeightError):
        verify_pseudo_hermiticity(h, np.diag([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        verify_pseudo_hermiticity(h, np.eye(3))


@settings(max_examples=100, deadline=None)
@given(integer_grid_matrices(count=2), st.integers(-1000, 1000))
# sigma_3-pseudo-Hermitian, with a weight whose unscaled product overflows
@example((np.array([[1.0, 2.0], [-2.0, 1.0]]), SIGMA3), 1023)
def test_verify_pseudo_hermiticity_is_bit_identical_under_power_of_two_weight_scaling(matrices, j):
    # the residual is homogeneous of degree 0 in W
    h, weight = matrices
    assume(np.linalg.cond(weight) < 1e12)
    scaled = verify_pseudo_hermiticity(h, scale_by_power_of_two(weight, j))
    assert scaled == verify_pseudo_hermiticity(h, weight)


# Upper triangular with a distinct real diagonal, so the spectrum is real.
real_spectrum_grid_matrices = integer_grid_matrices().map(
    lambda m: np.triu(m, 1) + np.diag(m.diagonal().real)
).filter(lambda h: len(set(h.diagonal())) == len(h))


@settings(max_examples=100, deadline=None)
# 2^j H is exact for j in [-1064, 1013]: its parts are multiples of 2^-1074 below 2^1023
@given(real_spectrum_grid_matrices, st.integers(-1064, 1013))
# formed unscaled, the partner of 2^-1060 H would lose its low bits to subnormals
@example(np.array([[1.0, 1.5], [0.0, 2.0]], dtype=complex), -1060)
def test_hermitize_is_bit_identical_under_power_of_two_scaling_of_h(h, j):
    # the partner is homogeneous of degree 1 in H
    try:
        metric = metric_from_hamiltonian(h)
    except (NotDiagonalizableError, NotPositiveDefiniteError):
        assume(False)
    scaled = scale_by_power_of_two(h, j)
    try:
        partner = hermitize(h, metric)
    except NotPseudoHermitianError:
        # an ill-conditioned H refused at one scale is refused at every scale
        with pytest.raises(NotPseudoHermitianError):
            hermitize(scaled, metric)
        return
    # past the double range a part reads inf, and 1j * inf a NaN
    with np.errstate(over="ignore", invalid="ignore"):
        expected = scale_by_power_of_two(partner, j)
    assume(np.isfinite(expected).all())
    npt.assert_array_equal(hermitize(scaled, metric), expected)


def test_hermitize_family_golden():
    h = symmetric_hamiltonian(FAMILY_POINT)
    out = hermitize(h, build_eta_plus(family_system()))
    npt.assert_allclose(out, np.diag([SQRT3, -SQRT3]), atol=ATOL)
    # At d = 2 the Hermitian partner of a complex symmetric H does not depend
    # on the normalization.  H = S diag(w) S^T with S a complex rotation by z;
    # |Im z| <= 1 keeps cond(S) <= e^2, so roundoff stays near 1e-14.
    rng = np.random.default_rng(43)
    for _ in range(50):
        z = complex(rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0))
        s = np.array([[np.cos(z), -np.sin(z)], [np.sin(z), np.cos(z)]])
        h = s @ np.diag(rng.uniform(-3.0, 3.0, size=2)) @ s.T
        unit = hermitize(h, metric_from_hamiltonian(h))
        transpose = hermitize(h, metric_from_hamiltonian(h, normalization="transpose"))
        assert np.linalg.norm(unit - transpose) <= 1e-12 * np.linalg.norm(unit)


def test_hermitize_spectrum_preserved():
    rng = np.random.default_rng(23)
    h, w_true = random_similarity(rng, 6)
    metric = metric_from_hamiltonian(h)
    out = hermitize(h, metric)
    npt.assert_allclose(out, out.conj().T, atol=1e-9 * np.linalg.norm(out))
    npt.assert_allclose(np.sort(np.linalg.eigvalsh(out))[::-1], w_true, atol=1e-8)


def test_hermitize_rejects_wrong_metric():
    identity_metric = MetricOperator(np.eye(2), np.eye(2), np.eye(2))
    h = np.array([[1.0, 1.0], [0.0, 2.0]])  # not Hermitian, so not I-pseudo-Hermitian
    other = metric_from_hamiltonian(np.array([[1.0, 0.0], [1.0, 2.0]]))
    good = metric_from_hamiltonian(h)
    nan_root = MetricOperator(good.eta_plus, np.full((2, 2), np.nan), good.rho_plus_inv)
    for metric in (identity_metric, other, nan_root):
        with pytest.raises(NotPseudoHermitianError):
            hermitize(h, metric)
    with pytest.raises(DimensionMismatchError):
        hermitize(np.eye(3), good)


@pytest.mark.parametrize("normalization", ["unit", "transpose"])
def test_hermitize_accepts_every_metric_built_near_the_exceptional_point(normalization):
    eps = np.finfo(float).eps
    built = 0
    for k in range(1, 13):
        for phi in (0.0, 0.3, 1.1):
            # s / t = 1 - 10^-k: cond(V) grows like 10^(k/2)
            p = SymmetricFamilyParams(0.2, 1.0 - 10.0**-k, 1.0, phi)
            h = symmetric_hamiltonian(p)
            try:
                metric = metric_from_hamiltonian(h, normalization=normalization)
            except PHTError:
                continue
            built += 1
            partner = hermitize(h, metric)
            if p.is_exact:
                want = symmetric_operators(p).hermitian_h
                bound = 64 * eps * eigendecompose(h).eigvec_condition ** 2
                assert np.linalg.norm(partner - want) <= bound * np.linalg.norm(want), (k, phi)
    # every point builds, so the sweep reaches cond(V) ~ 1e6
    assert built == 36


def test_map_observable_roundtrip():
    rng = np.random.default_rng(29)
    h, _ = random_similarity(rng, 4)
    metric = metric_from_hamiltonian(h)
    o = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    o = o + o.conj().T
    tilde = map_observable(o, metric)
    npt.assert_allclose(map_observable(tilde, metric, "from_tilde"), o, atol=1e-10)
    # image is self-adjoint in the eta_plus product: eta O~ = O~^dagger eta
    eta = metric.eta_plus
    npt.assert_allclose(eta @ tilde, tilde.conj().T @ eta, atol=1e-9)
    with pytest.raises(ValueError):
        map_observable(o, metric, "sideways")
    with pytest.raises(DimensionMismatchError):
        map_observable(np.eye(3), metric)


def test_inner_product_kinds():
    psi = np.array([1.0, 1.0j])
    phi = np.array([0.5, -2.0])
    assert inner_product(psi, phi) == pytest.approx(np.vdot(psi, phi))
    assert inner_product(psi, phi, InnerProductKind.euclidean()) == pytest.approx(
        np.vdot(psi, phi)
    )
    sigma3 = InnerProductKind.pseudo_eta(np.diag([1.0, -1.0]))
    assert inner_product(psi, psi, sigma3) == pytest.approx(0.0)  # null direction
    metric = build_eta_plus(family_system())
    kind = InnerProductKind.metric_eta(metric)
    assert inner_product(psi, psi, kind).real > 0.0


def test_inner_product_is_conjugate_linear_in_first_slot():
    rng = np.random.default_rng(31)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    phi = rng.normal(size=3) + 1j * rng.normal(size=3)
    a = 0.7 - 1.3j
    npt.assert_allclose(
        inner_product(a * psi, phi), np.conj(a) * inner_product(psi, phi), atol=ATOL
    )
    npt.assert_allclose(
        inner_product(psi, a * phi), a * inner_product(psi, phi), atol=ATOL
    )


def test_inner_product_validation():
    with pytest.raises(DimensionMismatchError):
        inner_product(np.ones(2), np.ones(3))
    with pytest.raises(NotHermitianError):
        InnerProductKind.pseudo_eta(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(SingularWeightError):
        InnerProductKind.pseudo_eta(np.diag([1.0, 0.0]))
    kind = InnerProductKind.pseudo_eta(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        inner_product(np.ones(2), np.ones(2), kind)


def test_rho_maps_metric_to_euclidean_geometry():
    # rho^{-1} is an isometry from the Euclidean product onto the eta product.
    # The spectral norm of rho^{-H} eta rho^{-1} - 1 bounds
    # |<rho^{-1} psi, eta rho^{-1} phi> - <psi, phi>| over all unit psi, phi.
    rng = np.random.default_rng(37)
    h, _ = random_similarity(rng, 5)
    for metric, bound in ((build_eta_plus(family_system()), 1e-10), (metric_from_hamiltonian(h), 1e-9)):
        r = metric.rho_plus_inv
        assert np.linalg.norm(r.conj().T @ metric.eta_plus @ r - np.eye(metric.dim), 2) < bound


def test_metric_from_hamiltonian_matches_composition():
    rng = np.random.default_rng(41)
    h, _ = random_similarity(rng, 3)
    direct = metric_from_hamiltonian(h)
    composed = build_eta_plus(biorthonormalize(h))
    npt.assert_allclose(direct.eta_plus, composed.eta_plus, atol=0)


def test_metric_from_hamiltonian_takes_the_decomposition_of_its_matrix(eig_calls):
    h, _ = random_similarity(np.random.default_rng(43), 3)
    from_record = metric_from_hamiltonian(eigendecompose(h))
    assert len(eig_calls) == 1
    from_matrix = metric_from_hamiltonian(h)
    for name in ("eta_plus", "rho_plus", "rho_plus_inv"):
        assert np.array_equal(getattr(from_record, name), getattr(from_matrix, name))
    # a loose tolerance on the record admits a spectrum that the default refuses
    near_real = np.diag([1.0, 2.0 + 5e-9j])
    with pytest.raises(ComplexSpectrumError):
        metric_from_hamiltonian(near_real)
    loose = metric_from_hamiltonian(eigendecompose(near_real, reality_rtol=1e-6))
    assert np.array_equal(loose.eta_plus, np.eye(2))


def test_build_eta_plus_rejects_invalid_system():
    # a rank-deficient phi set cannot come from a valid biorthonormal system
    from pht.linalg import BiorthonormalSystem

    bad = BiorthonormalSystem(
        np.array([1.0, 2.0]),
        np.eye(2, dtype=complex),
        np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex),
    )
    with pytest.raises(NotPositiveDefiniteError, match=r"0\.000e\+00 is not above 2\.000e-13"):
        build_eta_plus(bad)


def _real_quasi_hermitian(rng, d):
    """``S diag(w) S^-1`` with a real ``S`` (cond below ~3) and distinct real ``w``."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    s = q @ np.diag(np.exp(rng.uniform(-0.5, 0.5, d)))
    return s @ np.diag(rng.uniform(-3.0, 3.0, d)) @ np.linalg.inv(s)


@pytest.mark.parametrize("d", [2, 7, 32])
def test_real_operators_take_real_products_that_match_complex_arithmetic(d):
    # Each product of real-valued operands runs in real arithmetic and is cast
    # back.  The reference forms the same product of the complex-typed
    # operands, which numpy always hands to the complex routine.  Two ways of
    # rounding a d x d product A B differ by at most 2 d eps |A| |B|, so in
    # Frobenius norms by 2 d eps ||A||_F ||B||_F, and a product of three
    # factors by twice that.
    eps = np.finfo(float).eps
    signs = np.resize([1.0, -1.0], d)
    for seed in range(10):
        h = _real_quasi_hermitian(np.random.default_rng(seed), d)
        system = biorthonormalize(h)
        psi, phi = system.psi, system.phi
        metric = build_eta_plus(system)
        rho, rho_inv = metric.rho_plus, metric.rho_plus_inv
        # rho_plus from the real eigenvectors of eta_plus, combined in complex arithmetic
        w, v = np.linalg.eigh(metric.eta_plus.real)
        v = v.astype(complex)
        hc = h.astype(complex)
        cases = {
            "eta": (metric.eta_plus, phi @ phi.conj().T, [phi, phi]),
            "rho": (rho, (v * np.sqrt(w)) @ v.conj().T, [v * np.sqrt(w), v]),
            "parity": (build_generalized_parity(system), (phi * signs) @ phi.conj().T, [phi, phi]),
            "charge": (build_charge_conjugation(system), (psi * signs) @ phi.conj().T, [psi, phi]),
            "partner": (hermitize(h, metric), rho @ hc @ rho_inv, [rho, h, rho_inv]),
            "to_tilde": (map_observable(h, metric), rho_inv @ hc @ rho, [rho_inv, h, rho]),
        }
        for name, (value, reference, factors) in cases.items():
            assert value.dtype == complex, name
            # a real product cast back has no negative-zero imaginary part
            assert not value.imag.any() and not np.signbit(value.imag).any(), name
            bound = 2 * (len(factors) - 1) * d * eps * np.prod([np.linalg.norm(f) for f in factors])
            assert np.linalg.norm(value - reference) <= bound, (name, seed)


def test_hermitize_validates_h_once(monkeypatch):
    # the partner's product takes H as hermitize validated and scaled it
    from pht import metric as metric_module

    h = symmetric_hamiltonian(SymmetricFamilyParams(0.2, 0.5, 1.0, 0.3))
    metric = metric_from_hamiltonian(h)
    validated = []
    as_square = metric_module.as_square_matrix
    monkeypatch.setattr(metric_module, "as_square_matrix", lambda m: validated.append(1) or as_square(m))
    hermitize(h, metric)
    assert validated == [1]
    # map_observable still validates its own operand
    map_observable(h, metric)
    assert validated == [1, 1]
