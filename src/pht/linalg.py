"""Spectral decompositions and matrix functions for finite-dimensional operators.

Conventions used throughout the package:

* matrices are dense complex ``numpy`` arrays,
* a real-valued operator (every imaginary part exactly zero) is decomposed
  in real arithmetic, and the results are cast back, so they stay complex,
* a cubic product (a matrix product or an inverse) whose operands are all
  real-valued runs in real arithmetic too, and is cast back the same way;
  each operand's realness is read once per call, from its dtype or one
  ``.imag.any()``, so a real product gives the same values as the complex
  one up to rounding, and an imaginary part that would read ``-0.0`` reads
  ``0.0``,
* eigenvalues are ordered by descending real part (ties by descending
  imaginary part),
* residuals are measured in the Frobenius norm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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


def _all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()``, with the count taken in C (``ndarray.all`` has a Python wrapper)."""
    return np.count_nonzero(np.isfinite(a)) == a.size


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
    if not _all_finite(m):
        raise NonFiniteError("matrix contains non-finite entries")
    return m


def as_state_vector(state) -> np.ndarray:
    """Validate and convert input to a one-dimensional complex array."""
    v = np.asarray(state, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not _all_finite(v):
        raise NonFiniteError("state vector contains non-finite entries")
    return v


def _real_if_all_real(*ms: np.ndarray) -> tuple[np.ndarray, ...]:
    """The operands of one LAPACK call or product, as real arrays when all are real-valued.

    The real routines do about a quarter of the flops of the complex ones.
    When no operand has a nonzero imaginary part, each complex one is replaced
    by a contiguous copy of its real part (BLAS takes no operand with the
    stride of a complex array's real part); otherwise all are returned as
    they are.  The test stops at the first operand with a nonzero imaginary
    part, so no operand is read twice and a complex one spares the rest.
    Callers cast the results back with ``astype(complex, copy=False)``.
    """
    for m in ms:
        if m.dtype.kind == "c" and m.imag.any():
            return ms
    return tuple(np.ascontiguousarray(m.real) if m.dtype.kind == "c" else m for m in ms)


def _real_if_real(m: np.ndarray) -> np.ndarray:
    """:func:`_real_if_all_real` of one operand."""
    return _real_if_all_real(m)[0]


def _frobenius_norm(m: np.ndarray) -> float:
    """``float(np.linalg.norm(m))``, bit for bit, without a warning when it overflows to ``inf``.

    The same dot products of the real parts, summed in the same order, and
    the same root.  ``np.vdot`` of real vectors is that dot product, and
    unlike ``ndarray.dot`` it does not report overflow, nor does the sum of
    two Python floats, so callers need no ``np.errstate``.
    """
    x = m.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(float(np.vdot(re, re)) + float(np.vdot(im, im)))
    return math.sqrt(float(np.vdot(x, x)))


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
    norm = _frobenius_norm(m)
    if _PLAIN_NORM_RANGE[0] < norm < _PLAIN_NORM_RANGE[1]:
        return m, norm, 0
    parts = np.ascontiguousarray(m).view(float) if np.iscomplexobj(m) else m
    peak = float(np.abs(parts).max())
    if peak == 0.0:
        return m, 0.0, 0
    e = math.frexp(peak)[1]
    scaled = np.ldexp(parts, -e).view(m.dtype)
    return scaled, _frobenius_norm(scaled), e


def _relative_residual(m: np.ndarray, residual_of, norm: float | None = None) -> float:
    """``||residual_of(m)||_F / ||m||_F``, and 0 for a zero ``m``.

    The one relative-residual test of the package.  ``residual_of`` must be
    real-linear in ``m`` (a commutator, ``m - m^T``, ``m - m^dagger``), so it
    may receive ``m`` scaled by :func:`_norm_in_range`.  Its other operands
    must be in range too, as every caller scales them by the same rule.  A
    caller that has measured ``m`` already passes ``m`` and ``norm`` as
    :func:`_norm_in_range` returned them, and ``m`` is not measured again.
    """
    if norm is None:
        m, norm, _ = _norm_in_range(m)
    if norm == 0.0:
        return 0.0
    return _frobenius_norm(residual_of(m)) / norm


def _require_nonsingular(matrix: np.ndarray, error: type[PHTError], name: str) -> tuple[np.ndarray, int]:
    """``(matrix * 2**-e, e)`` of :func:`_norm_in_range`, or ``error`` when singular.

    Singular means ``sigma_min / sigma_max <= WEIGHT_RCOND_LIMIT``, taken on the
    scaled operand, which leaves the ratio as it is and keeps ``sigma_max`` finite.
    The operand is returned as :func:`_real_if_real` gives it to the SVD, so
    callers read its realness from its dtype.
    """
    m, _, e = _norm_in_range(matrix)
    m = _real_if_real(m)
    sv = np.linalg.svd(m, compute_uv=False)
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
    eigenvectors_inv : ndarray or None
        The inverse of ``eigenvectors``, computed once and used by every
        later step that needs it: the dual basis of :func:`biorthonormalize`
        and the coefficients of an evolution.  Real, and computed in real
        arithmetic, when the eigenvectors are real (a real matrix with a real
        spectrum), complex otherwise.  None when ``eigenvectors`` is exactly
        singular, which only a ``NEAR_DEFECTIVE`` record can be.
    classification : SpectrumClass
        ``REAL_DIAGONALIZABLE``, ``CONJUGATE_PAIRS`` (complex eigenvalues
        present) or ``NEAR_DEFECTIVE``.
    reality_rtol : float
        The relative tolerance that decided ``classification``: an eigenvalue
        ``w`` counts as real when ``|Im w| <= reality_rtol * (1 + |w|)``.
    matrix : ndarray
        A copy of the matrix as it was decomposed: real when no imaginary
        part is nonzero, complex otherwise.  It and the three arrays above
        are read-only, so the record can stand in for its matrix.
    eigvec_condition : float
        Two-norm condition number of the eigenvector matrix (a property): one
        SVD, taken on the first read unless :func:`eigendecompose` needed it
        to classify, and then cached.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eigenvectors_inv: np.ndarray | None
    classification: SpectrumClass
    reality_rtol: float
    matrix: np.ndarray

    @cached_property
    def eigvec_condition(self) -> float:
        """``cond_2`` of the eigenvectors, in real arithmetic when they are real."""
        return float(np.linalg.cond(_real_if_real(self.eigenvectors)))


# Relative margin per dimension by which _condition_bounds widens its bounds:
# 64 eps EIGVEC_CONDITION_LIMIT.  Up to the limit, the computed inverse and the
# SVD's condition number are each off by about d * eps * cond(V) relative,
# times a small constant (Higham, 2002, ch. 14); d times this margin covers
# both, and the rounding of the unit columns.
_CONDITION_MARGIN = 64.0 * np.finfo(float).eps * EIGVEC_CONDITION_LIMIT


def _condition_bounds(v_inv: np.ndarray) -> tuple[float, float]:
    """``(lo, hi)`` around ``np.linalg.cond(v)`` for unit columns ``v``, from the computed ``v^-1``.

    Wilkinson's ``kappa_i = ||v_i|| ||row_i(v^-1)||`` (Golub & Van Loan,
    section 7.2) and Frobenius norms bracket the condition number:
    ``max_i kappa_i <= cond_2(v) <= ||v||_F ||v^-1||_F``, where unit columns
    make ``kappa_i = ||row_i(v^-1)||`` and ``||v||_F = sqrt(d)``.  Each bound is
    widened by the relative margin ``m = d * _CONDITION_MARGIN`` for the
    rounding of the inverse and of the SVD.  So ``lo <= np.linalg.cond(v) <=
    hi`` wherever the condition number is at most ``EIGVEC_CONDITION_LIMIT``;
    ``lo`` above the limit means the condition number is above it too, since
    up to the limit ``lo`` stays below it; and ``hi`` at most the limit means
    it is at most the limit, since then ``v v^-1`` is within ``m`` of the
    identity.  The row sums come from ``einsum`` and their total from a
    Python ``sum``, neither of which reports overflow, and ``max`` keeps a
    NaN; an infinite bound still compares right, and a NaN one compares
    false.
    """
    d = v_inv.shape[0]
    parts = v_inv.view(float)
    kappa2 = np.einsum("ij,ij->i", parts, parts)
    margin = 1.0 + d * _CONDITION_MARGIN
    return math.sqrt(kappa2.max()) / margin, math.sqrt(d * sum(kappa2.tolist())) * margin


def eigendecompose(matrix, reality_rtol: float = REALITY_RTOL) -> SpectralData:
    """Eigendecompose ``matrix`` and classify its spectrum.

    An eigenvalue ``w`` counts as real when ``|Im w| <= rtol * (1 + |w|)``.
    The matrix is flagged near-defective when the eigenvector matrix has
    condition number above ``EIGVEC_CONDITION_LIMIT`` (or an infinite or NaN
    one); that verdict takes precedence over the reality classification.
    The eigenvectors are inverted once, and the inverse decides the verdict
    wherever its bounds (:func:`_condition_bounds`) clear the limit, so an
    SVD is taken only near the limit or for a singular eigenvector matrix.
    ``reality_rtol`` must be ``>= 0``; anything else raises ``ValueError``.

    A real-valued matrix is copied once, as the real copy that is decomposed
    and kept; a complex one is copied as it is.  ``eig`` of a real matrix
    returns a real ``w`` only when every ``Im w`` is exactly 0: such a
    spectrum is sorted by one stable ``argsort``, and it passes the reality
    test unless its bound ``rtol (1 + |w|)`` is NaN (a NaN eigenvalue, or an
    infinite one under ``rtol = 0``), which one maximum decides.
    """
    if not reality_rtol >= 0:
        raise ValueError(f"reality_rtol must be >= 0, got {reality_rtol!r}")
    m = _real_if_real(as_square_matrix(matrix))
    if m.dtype.kind == "c":
        # a real-valued matrix is already the fresh copy of its real part
        m = m.copy()
    w, v = np.linalg.eig(m)
    real_spectrum = w.dtype.kind == "f"
    order = np.argsort(-w, kind="stable") if real_spectrum else np.lexsort((-w.imag, -w.real))
    w, v = w[order], v[:, order]
    try:
        v_inv = np.linalg.inv(v)
        lo, hi = _condition_bounds(v_inv)
    except np.linalg.LinAlgError:
        v_inv, lo, hi = None, math.nan, math.nan
    # A bound that clears the limit gives the SVD's verdict; between the
    # bounds, or for a singular v (NaN bounds), the SVD decides.
    if lo > EIGVEC_CONDITION_LIMIT or hi <= EIGVEC_CONDITION_LIMIT:
        near_defective, cond = lo > EIGVEC_CONDITION_LIMIT, None
    else:
        cond = float(np.linalg.cond(v))
        near_defective = not cond <= EIGVEC_CONDITION_LIMIT
    if near_defective:
        cls = SpectrumClass.NEAR_DEFECTIVE
    elif (
        reality_rtol * (1.0 + np.abs(w).max()) >= 0.0
        if real_spectrum
        else np.count_nonzero(np.abs(w.imag) <= reality_rtol * (1.0 + np.abs(w))) == w.size
    ):
        cls = SpectrumClass.REAL_DIAGONALIZABLE
    else:
        cls = SpectrumClass.CONJUGATE_PAIRS
    w, v = w.astype(complex, copy=False), v.astype(complex, copy=False)
    for array in (w, v, v_inv, m):
        if array is not None:
            array.setflags(write=False)
    record = SpectralData(w, v, v_inv, cls, reality_rtol, m)
    if cond is not None:
        # the SVD that classified is the condition number; a later read reuses it
        object.__setattr__(record, "eigvec_condition", cond)
    return record


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


def _alternating_signs(n: int) -> np.ndarray:
    """``+1, -1, +1, ...``, ``n`` of them."""
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


def _degenerate_clusters(spectral: SpectralData, measured=None) -> tuple[list[list[int]], float]:
    """``(clusters, ||H||_F / sep)`` of ``spectral``'s (sorted) real eigenvalues.

    Neighbours join a cluster when their gap is at most
    ``DEGENERATE_GAP_RTOL * ||spectral.matrix||_F``; both sides are scaled by
    the power of two of :func:`_norm_in_range`, so the norm cannot overflow to
    ``inf`` and merge every eigenvalue.  ``sep`` is the smallest gap between
    neighbouring clusters, taken on the same scaled values, so the ratio does
    not change with the scale of ``H``; it is 0 for a single cluster.
    ``measured`` is ``_norm_in_range(spectral.matrix)`` when the caller has
    taken it already.
    """
    _, scale, e = _norm_in_range(spectral.matrix) if measured is None else measured
    x = spectral.eigenvalues.real
    if e:
        x = np.ldexp(x, -e)
    steps = np.abs(x[1:] - x[:-1])
    split = steps > DEGENERATE_GAP_RTOL * scale
    if np.count_nonzero(split) == split.size:
        # every eigenvalue its own cluster: every gap separates two
        return [[k] for k in range(len(x))], scale / steps.min(initial=np.inf)
    bounds = [0, *(np.flatnonzero(split) + 1).tolist(), len(x)]
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
        the ``phi_n`` from the record's inverse eigenvector matrix, rotated
        and (inside a degenerate cluster) recombined as the ``psi_n`` are,
        so duality holds to the rounding of that inverse.  ``"transpose"`` applies only to complex
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
    # the transpose gate and the clusters share one measurement of the matrix
    measured = _norm_in_range(spectral.matrix) if normalization == "transpose" else None
    if measured is not None:
        m, norm, _ = measured
        if not _relative_residual(m, lambda a: a - a.T, norm) <= HERMITICITY_RTOL:
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
    clusters, _ = _degenerate_clusters(spectral, measured)

    if normalization == "unit":
        # The dual basis is the record's V^-1, changed as V is: no inverse here.
        dual = spectral.eigenvectors_inv.astype(complex)
        for cluster in clusters:
            if len(cluster) > 1:
                # Orthonormalize inside a degenerate cluster, whatever basis
                # eig picked: V_c = Q R, so Q's dual rows are R V^-1[c, :].
                q, r = np.linalg.qr(v[:, cluster])
                v[:, cluster] = q
                dual[cluster] = r @ dual[cluster]
        # Rotate each pivot onto the positive real axis: V D has dual rows
        # D^-1 V^-1.  conj(p) / |p| is exactly +-1 for a real pivot, so the
        # eigenvectors of a real matrix and their duals stay real.
        pivots = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
        phases = np.conj(pivots) / np.abs(pivots)
        v *= phases
        dual /= phases[:, None]
        return BiorthonormalSystem(w, v, dual.conj().T)

    if any(len(c) > 1 for c in clusters):
        raise ValueError("transpose normalization requires a nondegenerate spectrum")
    # psi_n^T psi_n, one dot product per column (an einsum would round otherwise)
    c = np.array([v[:, k] @ v[:, k] for k in range(v.shape[1])])
    if np.count_nonzero(np.abs(c) < 1e-12):
        raise ValueError("self-orthogonal eigenvector; transpose normalization undefined")
    signs = _alternating_signs(v.shape[1])
    psis = np.sqrt(signs / c + 0j) * v
    return BiorthonormalSystem(w, psis, signs * np.conj(psis))


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
    return math.cos(theta) * np.eye(axis.shape[0]) + 1j * math.sin(theta) * axis
