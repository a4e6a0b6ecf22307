"""Antilinear operators, generalized time reversal, and exactness checks."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pht.antilinear import (
    AntilinearOperator,
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
    SymmetricFamilyParams,
    parity_from_angle,
    symmetric_hamiltonian,
)
from pht.linalg import SIGMA2, SIGMA3

from conftest import random_exact_symmetric_params

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
    rng = np.random.default_rng(33)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    with pytest.raises(NotPTSymmetricError):
        check_exactness(m, np.eye(2), AntilinearOperator(np.eye(2)))


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
