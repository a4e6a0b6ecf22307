"""Metric construction, hermitization, and weighted inner products."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pht.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotPseudoHermitianError,
    SingularWeightError,
)
from pht.families import SymmetricFamilyParams, symmetric_hamiltonian
from pht.linalg import biorthonormalize
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

from conftest import random_similarity

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
    with pytest.raises(NotPseudoHermitianError):
        hermitize(h, identity_metric)


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
