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

import math
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
# Relative residual tolerance for operators that must be Hermitian, and for
# the complex symmetry the transpose normalization requires.
HERMITICITY_RTOL = 1e-10
# Relative reciprocal condition number below which a weight or parity
# operator is treated as singular.
WEIGHT_RCOND_LIMIT = 1e-13
# Frobenius norms strictly inside this range are used as computed: a product
# of three operands in range, and its sum of squares, stay normal.  An operand
# outside it is first scaled by a power of two.
_PLAIN_NORM_RANGE = (2.0**-100, 2.0**100)

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
        If the input is not a non-empty two-dimensional square array.
    NonFiniteError
        If any entry is NaN or infinite.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
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


def _norm_in_range(m: np.ndarray) -> tuple[np.ndarray, float, int]:
    """``(m * 2**-e, ||m * 2**-e||_F, e)``, with ``e = 0`` when ``||m||_F`` is in range.

    The one scaling rule of the package.  Out of range (overflowing,
    underflowing or NaN), ``e`` is the binary exponent of the largest real or
    imaginary part of ``m``, so the scaled parts peak in ``[0.5, 1)``.  A power
    of two scales exactly (subnormal parts aside), so a quantity homogeneous in
    ``m`` keeps the bits it has wherever nothing overflows or underflows.  An
    operand in range is returned as it is, not copied.  A zero ``m`` gives
    ``(m, 0.0, 0)``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(m))
    if _PLAIN_NORM_RANGE[0] < norm < _PLAIN_NORM_RANGE[1]:
        return m, norm, 0
    parts = np.ascontiguousarray(m).view(float) if np.iscomplexobj(m) else m
    peak = float(np.abs(parts).max())
    if peak == 0.0:
        return m, 0.0, 0
    e = math.frexp(peak)[1]
    scaled = np.ldexp(parts, -e).view(m.dtype)
    return scaled, float(np.linalg.norm(scaled)), e


def _relative_residual(m: np.ndarray, residual_of) -> float:
    """``||residual_of(m)||_F / ||m||_F``, and 0 for a zero ``m``.

    The one relative-residual test of the package.  ``residual_of`` must be
    real-linear in ``m`` (a commutator, ``m - m^T``, ``m - m^dagger``), so it
    may receive ``m`` scaled by :func:`_norm_in_range`.  Its other operands
    must be in range too, as every caller scales them by the same rule.
    """
    m, norm, _ = _norm_in_range(m)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(residual_of(m))) / norm


def _require_nonsingular(matrix: np.ndarray, error: type[PHTError], name: str) -> tuple[np.ndarray, int]:
    """``(matrix * 2**-e, e)`` of :func:`_norm_in_range`, or ``error`` when singular.

    Singular means ``sigma_min / sigma_max <= WEIGHT_RCOND_LIMIT``, taken on the
    scaled operand, which leaves the ratio as it is and keeps ``sigma_max`` finite.
    """
    m, _, e = _norm_in_range(matrix)
    sv = np.linalg.svd(_real_if_real(m), compute_uv=False)
    if sv[-1] <= WEIGHT_RCOND_LIMIT * sv[0]:
        raise error(
            f"{name} is numerically singular: reciprocal condition number "
            f"{sv[-1] / max(sv[0], 1e-300):.3e} <= {WEIGHT_RCOND_LIMIT:.1e}"
        )
    return m, e


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
    reality_rtol : float
        The relative tolerance that decided ``classification``: an eigenvalue
        ``w`` counts as real when ``|Im w| <= reality_rtol * (1 + |w|)``.
    matrix : ndarray
        A copy of the matrix as it was decomposed: real when no imaginary
        part is nonzero, complex otherwise.  It and both arrays above are
        read-only, so the record can stand in for its matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eigvec_condition: float
    classification: SpectrumClass
    reality_rtol: float
    matrix: np.ndarray


def eigendecompose(matrix, reality_rtol: float = REALITY_RTOL) -> SpectralData:
    """Eigendecompose ``matrix`` and classify its spectrum.

    An eigenvalue ``w`` counts as real when ``|Im w| <= rtol * (1 + |w|)``.
    The matrix is flagged near-defective when the eigenvector matrix has
    condition number above ``EIGVEC_CONDITION_LIMIT``; that verdict takes
    precedence over the reality classification.  ``reality_rtol`` must be
    ``>= 0``; anything else raises ``ValueError``.
    """
    if not reality_rtol >= 0:
        raise ValueError(f"reality_rtol must be >= 0, got {reality_rtol!r}")
    m = _real_if_real(as_square_matrix(matrix)).copy()
    w, v = np.linalg.eig(m)
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
    for array in (w, v, m):
        array.flags.writeable = False
    return SpectralData(w, v, cond, cls, reality_rtol, m)


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


def _degenerate_clusters(spectral: SpectralData) -> tuple[list[list[int]], float]:
    """``(clusters, ||H||_F / sep)`` of ``spectral``'s (sorted) real eigenvalues.

    Neighbours join a cluster when their gap is at most
    ``DEGENERATE_GAP_RTOL * ||spectral.matrix||_F``; both sides are scaled by
    the power of two of :func:`_norm_in_range`, so the norm cannot overflow to
    ``inf`` and merge every eigenvalue.  ``sep`` is the smallest gap between
    neighbouring clusters, taken on the same scaled values, so the ratio does
    not change with the scale of ``H``; it is 0 for a single cluster.
    """
    _, scale, e = _norm_in_range(spectral.matrix)
    steps = np.abs(np.diff(np.ldexp(spectral.eigenvalues.real, -e)))
    split = steps > DEGENERATE_GAP_RTOL * scale
    bounds = [0, *(np.flatnonzero(split) + 1).tolist(), len(steps) + 1]
    clusters = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    return clusters, scale / steps[split].min(initial=np.inf)


def biorthonormalize(matrix, *, normalization: str = "unit") -> BiorthonormalSystem:
    """Build a biorthonormal eigensystem for a diagonalizable real-spectrum matrix.

    Parameters
    ----------
    matrix : array_like or SpectralData
        Square matrix, diagonalizable with real spectrum, or its
        :func:`eigendecompose` record, which is used as it is: the spectrum
        is then decided against that record's ``reality_rtol``, and callers
        that try both conventions decompose once.
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
        If the spectrum is not real to within ``REALITY_RTOL``.
    ValueError
        If ``normalization`` names neither convention (checked before any
        other work), or if ``"transpose"`` meets a matrix that is not complex
        symmetric (checked before the spectral gates), a degenerate spectrum
        or a self-orthogonal eigenvector.
    """
    if normalization not in ("unit", "transpose"):
        raise ValueError(f"unknown normalization {normalization!r}")
    spectral = matrix if isinstance(matrix, SpectralData) else eigendecompose(matrix)
    m = spectral.matrix
    if normalization == "transpose" and not _relative_residual(m, lambda a: a - a.T) <= HERMITICITY_RTOL:
        raise ValueError("transpose normalization requires a complex symmetric matrix")
    if spectral.classification is SpectrumClass.NEAR_DEFECTIVE:
        raise NotDiagonalizableError(
            f"eigenvector condition number {spectral.eigvec_condition:.3e} "
            f"exceeds {EIGVEC_CONDITION_LIMIT:.1e}"
        )
    if spectral.classification is SpectrumClass.CONJUGATE_PAIRS:
        w = spectral.eigenvalues
        bound = spectral.reality_rtol * (1.0 + np.abs(w))
        k = int(np.argmax(np.abs(w.imag) - bound))
        raise ComplexSpectrumError(
            f"matrix has complex eigenvalues; |Im w| = {abs(w[k].imag):.3e} exceeds its "
            f"reality bound {bound[k]:.3e}; no real biorthonormal system"
        )

    w = spectral.eigenvalues.real.copy()
    v = spectral.eigenvectors.copy()
    clusters, _ = _degenerate_clusters(spectral)

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
