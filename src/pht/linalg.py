"""Spectral decompositions and matrix functions for finite-dimensional operators.

Conventions used throughout the package:

* matrices are dense complex ``numpy`` arrays,
* a real-valued operator (every imaginary part exactly zero) is decomposed
  in real arithmetic, and the results are cast back, so they stay complex,
* eigenvalues are ordered by descending real part (ties by descending
  imaginary part),
* residuals are measured in the Frobenius norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ComplexSpectrumError,
    NonFiniteError,
    NotDiagonalizableError,
    PHTError,
)

# Relative tolerance deciding whether an eigenvalue counts as real.
REALITY_RTOL = 1e-9
# Eigenvector-matrix condition number beyond which we refuse to treat the
# input as diagonalizable.
EIGVEC_CONDITION_LIMIT = 1e8
# Eigenvalue gap, relative to ||H||_F, below which neighbours are clustered
# as a degenerate group.
DEGENERATE_GAP_RTOL = 1e-8
# Hermiticity tolerance for operators that must be Hermitian.
HERMITICITY_RTOL = 1e-10
# Relative reciprocal condition number below which a weight or parity
# operator is treated as singular.
WEIGHT_RCOND_LIMIT = 1e-13

IDENTITY2 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA1, SIGMA2, SIGMA3)


class SpectrumClass(str, Enum):
    """Coarse classification of a matrix spectrum."""

    REAL_DIAGONALIZABLE = "real-diagonalizable"
    CONJUGATE_PAIRS = "conjugate-pairs"
    NEAR_DEFECTIVE = "near-defective"


def as_square_matrix(matrix) -> np.ndarray:
    """Validate and convert input to a square complex array.

    Raises
    ------
    ValueError
        If the input is not a two-dimensional square array.
    NonFiniteError
        If any entry is NaN or infinite.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix contains non-finite entries")
    return m


def as_state_vector(state) -> np.ndarray:
    """Validate and convert input to a one-dimensional complex array."""
    v = np.asarray(state, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteError("state vector contains non-finite entries")
    return v


def _real_if_real(m: np.ndarray) -> np.ndarray:
    """``m.real`` when no imaginary part of ``m`` is nonzero, otherwise ``m``.

    Dense LAPACK calls take their operand through this helper: the real
    routines do about a quarter of the flops of the complex ones.  Callers
    cast the results back with ``astype(complex, copy=False)``.
    """
    return m if m.imag.any() else m.real


def _require_nonsingular(matrix: np.ndarray, error: type[PHTError], name: str) -> None:
    """Raise ``error`` when ``sigma_min / sigma_max <= WEIGHT_RCOND_LIMIT``."""
    sv = np.linalg.svd(_real_if_real(matrix), compute_uv=False)
    if sv[-1] <= WEIGHT_RCOND_LIMIT * sv[0]:
        raise error(
            f"{name} is numerically singular: reciprocal condition number "
            f"{sv[-1] / max(sv[0], 1e-300):.3e} <= {WEIGHT_RCOND_LIMIT:.1e}"
        )


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a (generally non-normal) square matrix.

    Attributes
    ----------
    eigenvalues : ndarray
        Complex eigenvalues, sorted by descending real part.
    eigenvectors : ndarray
        Right eigenvectors as columns, in the same order; each column has
        unit Euclidean norm.
    eigvec_condition : float
        Two-norm condition number of the eigenvector matrix.
    classification : SpectrumClass
        ``REAL_DIAGONALIZABLE``, ``CONJUGATE_PAIRS`` (complex eigenvalues
        present) or ``NEAR_DEFECTIVE``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eigvec_condition: float
    classification: SpectrumClass


def eigendecompose(matrix, reality_rtol: float = REALITY_RTOL) -> SpectralData:
    """Eigendecompose ``matrix`` and classify its spectrum.

    An eigenvalue ``w`` counts as real when ``|Im w| <= rtol * (1 + |w|)``.
    The matrix is flagged near-defective when the eigenvector matrix has
    condition number above ``EIGVEC_CONDITION_LIMIT``; that verdict takes
    precedence over the reality classification.
    """
    m = as_square_matrix(matrix)
    w, v = np.linalg.eig(_real_if_real(m))
    order = np.lexsort((-w.imag, -w.real))
    w, v = w[order], v[:, order]
    cond = float(np.linalg.cond(v))
    w, v = w.astype(complex, copy=False), v.astype(complex, copy=False)
    if not np.isfinite(cond) or cond > EIGVEC_CONDITION_LIMIT:
        cls = SpectrumClass.NEAR_DEFECTIVE
    elif np.all(np.abs(w.imag) <= reality_rtol * (1.0 + np.abs(w))):
        cls = SpectrumClass.REAL_DIAGONALIZABLE
    else:
        cls = SpectrumClass.CONJUGATE_PAIRS
    return SpectralData(w, v, cond, cls)


@dataclass(frozen=True)
class BiorthonormalSystem:
    """A biorthonormal eigensystem ``{psi_n, phi_n}`` with real eigenvalues.

    Columns of ``psi`` are right eigenvectors of ``H``; columns of ``phi``
    are right eigenvectors of ``H^dagger``; they satisfy
    ``<phi_n, psi_m> = delta_nm`` and ``sum_n psi_n phi_n^dagger = 1``.
    """

    eigenvalues: np.ndarray
    psi: np.ndarray
    phi: np.ndarray

    @property
    def dim(self) -> int:
        return self.psi.shape[0]

    def completeness_residual(self) -> float:
        """Frobenius distance of ``sum_n psi_n phi_n^dagger`` from identity."""
        d = self.psi @ self.phi.conj().T - np.eye(self.dim)
        return float(np.linalg.norm(d))


def _degenerate_clusters(eigenvalues: np.ndarray, scale: float) -> list[list[int]]:
    """Group indices of (sorted) eigenvalues whose gaps fall below tolerance."""
    gap = DEGENERATE_GAP_RTOL * max(scale, 1.0e-300)
    clusters: list[list[int]] = [[0]]
    for k in range(1, len(eigenvalues)):
        if abs(eigenvalues[k] - eigenvalues[k - 1]) < gap:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


def biorthonormalize(
    matrix,
    *,
    normalization: str = "unit",
    reality_rtol: float = REALITY_RTOL,
) -> BiorthonormalSystem:
    """Build a biorthonormal eigensystem for a diagonalizable real-spectrum matrix.

    Parameters
    ----------
    matrix : array_like
        Square matrix, diagonalizable with real spectrum.
    normalization : {"unit", "transpose"}
        ``"unit"`` keeps each ``psi_n`` at unit Euclidean norm with its
        largest-modulus entry rotated to the positive real axis, and takes
        the ``phi_n`` from the inverse eigenvector matrix (so duality is
        exact by construction).  ``"transpose"`` applies only to complex
        symmetric input with nondegenerate spectrum: eigenvectors are scaled
        so that ``psi_n^T psi_n = s_n`` with signs ``s_n = +,-,+,-...`` in
        descending-eigenvalue order, and ``phi_n = s_n * conj(psi_n)``.  The
        transpose convention reproduces the closed-form two-level operators
        verbatim.

    Raises
    ------
    NotDiagonalizableError
        If the eigenvector matrix is near-singular.
    ComplexSpectrumError
        If the spectrum is not real to within ``reality_rtol``.
    ValueError
        If ``normalization`` names neither convention (checked before any
        other work), or if ``"transpose"`` meets a matrix that is not complex
        symmetric (checked before the spectral gates), a degenerate spectrum
        or a self-orthogonal eigenvector.
    """
    if normalization not in ("unit", "transpose"):
        raise ValueError(f"unknown normalization {normalization!r}")
    m = as_square_matrix(matrix)
    return _biorthonormal(m, eigendecompose(m, reality_rtol), normalization, reality_rtol)


def _biorthonormal(
    m: np.ndarray, spectral: SpectralData, normalization: str, reality_rtol: float
) -> BiorthonormalSystem:
    """:func:`biorthonormalize` of the validated ``m`` from its decomposition ``spectral``.

    ``normalization`` must be ``"unit"`` or ``"transpose"``, and ``spectral``
    must come from ``eigendecompose(m, reality_rtol)``.  Callers that try both
    conventions pass one decomposition to each attempt.
    """
    scale = float(np.linalg.norm(m))
    if normalization == "transpose" and np.linalg.norm(m - m.T) > 1e-10 * (1.0 + scale):
        raise ValueError("transpose normalization requires a complex symmetric matrix")
    if spectral.classification is SpectrumClass.NEAR_DEFECTIVE:
        raise NotDiagonalizableError(
            f"eigenvector condition number {spectral.eigvec_condition:.3e} "
            f"exceeds {EIGVEC_CONDITION_LIMIT:.1e}"
        )
    if spectral.classification is SpectrumClass.CONJUGATE_PAIRS:
        w = spectral.eigenvalues
        bound = reality_rtol * (1.0 + np.abs(w))
        k = int(np.argmax(np.abs(w.imag) - bound))
        raise ComplexSpectrumError(
            f"matrix has complex eigenvalues; |Im w| = {abs(w[k].imag):.3e} exceeds its "
            f"reality bound {bound[k]:.3e}; no real biorthonormal system"
        )

    w = spectral.eigenvalues.real.copy()
    v = spectral.eigenvectors.copy()
    clusters = _degenerate_clusters(w, scale)

    if normalization == "unit":
        for cluster in clusters:
            if len(cluster) > 1:
                # Orthonormalize inside a degenerate cluster so the inverse
                # below stays well conditioned whatever basis eig picked.
                q, _ = np.linalg.qr(v[:, cluster])
                v[:, cluster] = q
        # conj(p) / |p| is exactly +-1 for a real pivot, so the eigenvectors
        # of a real matrix stay real and the inverse takes the real routine.
        pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        v *= np.conj(pivots) / np.abs(pivots)
        phi = np.linalg.inv(_real_if_real(v)).astype(complex, copy=False).conj().T
        return BiorthonormalSystem(w, v, phi)

    if any(len(c) > 1 for c in clusters):
        raise ValueError("transpose normalization requires a nondegenerate spectrum")
    psis = np.empty_like(v)
    phis = np.empty_like(v)
    for k in range(v.shape[1]):
        sign = 1.0 if k % 2 == 0 else -1.0
        c = v[:, k] @ v[:, k]
        if abs(c) < 1e-12:
            raise ValueError("self-orthogonal eigenvector; transpose normalization undefined")
        psis[:, k] = np.sqrt(sign / c + 0j) * v[:, k]
        phis[:, k] = sign * np.conj(psis[:, k])
    return BiorthonormalSystem(w, psis, phis)


def matrix_exp(matrix) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring, via scipy).

    scipy is imported on the first call rather than with the package, so
    ``import pht`` and every path that needs no dense exponential stay free
    of its import cost.
    """
    import scipy.linalg

    return scipy.linalg.expm(as_square_matrix(matrix))


def _pauli_exp(theta: float, axis: np.ndarray) -> np.ndarray:
    """``exp(i theta axis) = cos(theta) 1 + i sin(theta) axis`` in closed form.

    Valid only for an involutory ``axis`` (``axis @ axis = 1``), such as a
    Pauli matrix or a unit combination of anticommuting ones.
    """
    return np.cos(theta) * np.eye(axis.shape[0]) + 1j * np.sin(theta) * axis
