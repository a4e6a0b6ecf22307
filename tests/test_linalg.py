"""Eigendecomposition, biorthonormal systems, and matrix functions."""
import numpy as np
import numpy.testing as npt
import pytest

from pht.antilinear import _axis_matrix
from pht.errors import (
    ComplexSpectrumError,
    NonFiniteError,
    NotDiagonalizableError,
)
from pht.linalg import (
    IDENTITY2,
    PAULI,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    SpectrumClass,
    _pauli_exp,
    as_square_matrix,
    as_state_vector,
    biorthonormalize,
    eigendecompose,
    matrix_exp,
)

from conftest import random_similarity

ATOL = 1e-12
DUALITY_ATOL = 1e-10


def test_as_square_matrix_validates():
    with pytest.raises(ValueError):
        as_square_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_square_matrix(np.zeros(4))
    with pytest.raises(NonFiniteError):
        as_square_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteError):
        as_square_matrix([[1j * np.inf, 0.0], [0.0, 1.0]])
    m = as_square_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex


def test_as_state_vector_validates():
    with pytest.raises(ValueError):
        as_state_vector([[1.0, 2.0]])
    with pytest.raises(NonFiniteError):
        as_state_vector([1.0, np.inf])
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
    assert (
        eigendecompose(h, reality_rtol=1e-15).classification
        is SpectrumClass.CONJUGATE_PAIRS
    )


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


def test_biorthonormalize_rejects_complex_spectrum():
    with pytest.raises(ComplexSpectrumError, match=r"1\.000e\+00 exceeds its reality bound 2\.000e-09"):
        biorthonormalize(np.array([[0.0, -1.0], [1.0, 0.0]]))
    # the reported eigenvalue is the one past its own bound, not the largest |Im w|
    with pytest.raises(ComplexSpectrumError, match=r"1\.000e-03 exceeds"):
        biorthonormalize(np.diag([1e12 + 1e2j, 1.0 + 1e-3j]))


def test_biorthonormalize_rejects_near_defective():
    with pytest.raises(NotDiagonalizableError):
        biorthonormalize(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_biorthonormalize_rejects_unknown_normalization():
    with pytest.raises(ValueError):
        biorthonormalize(np.eye(2), normalization="fancy")


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
