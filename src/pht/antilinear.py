"""Antilinear operators, generalized time reversal, and exactness of PT-type symmetries.

An antilinear operator is stored through its linear part ``tau``: the action
is ``psi -> tau conj(psi)``.  A Hermitian antilinear involution is exactly a
symmetric unitary ``tau`` (then ``tau conj(tau) = 1`` follows); antisymmetric
unitaries like ``sigma_2`` square to ``-1`` and are rejected, which is how the
Kramers-degenerate case is kept out of scope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotPTSymmetricError, SingularParityError
from .linalg import (
    SIGMA1,
    SIGMA3,
    SpectralData,
    SpectrumClass,
    _degenerate_clusters,
    _norm_in_range,
    _pauli_exp,
    _real_if_all_real,
    _real_if_real,
    _relative_residual,
    _require_nonsingular,
    as_square_matrix,
    as_state_vector,
    eigendecompose,
)

# Residual bound for the symmetric/unitary tests of an involution.
INVOLUTION_ATOL = 1e-10
# PT-commutator residual above which a Hamiltonian is not PT-symmetric.
PT_RESIDUAL_TOL = 1e-8
# Multiple of check_exactness's first-order budget that a fixed point's defect
# may reach.  On 7400 random PT-symmetric inputs with an involutive PT (d 2-32,
# cond(V) up to 1e8, commutator residuals up to 1e-8) it reached 2.2 budgets.
FIXED_POINT_MARGIN = 64.0


@dataclass(frozen=True)
class AntilinearOperator:
    """Antilinear map ``psi -> tau conj(psi)`` stored via its linear part."""

    tau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau", as_square_matrix(self.tau))

    @property
    def dim(self) -> int:
        return self.tau.shape[0]

    def __call__(self, state) -> np.ndarray:
        return apply_antilinear(self, state)

    def compose_antilinear(self, other: "AntilinearOperator") -> np.ndarray:
        """Linear composition ``T1 . T2``: conjugations cancel to ``tau1 conj(tau2)``."""
        return self.tau @ np.conj(other.tau)

    def squared(self) -> np.ndarray:
        """Linear part of ``T^2``; the identity iff ``tau conj(tau) = 1``."""
        return self.compose_antilinear(self)


def apply_antilinear(operator: AntilinearOperator, state) -> np.ndarray:
    """Apply ``T: psi -> tau conj(psi)`` to a state vector."""
    v = as_state_vector(state)
    if v.shape[0] != operator.dim:
        raise DimensionMismatchError(f"state dim {v.shape[0]} != operator dim {operator.dim}")
    return operator.tau @ np.conj(v)


@dataclass(frozen=True)
class InvolutionCheck:
    """Result of testing whether an antilinear operator is a Hermitian involution."""

    passed: bool
    symmetry_residual: float
    unitarity_residual: float


def is_hermitian_antilinear_involution(operator: AntilinearOperator) -> InvolutionCheck:
    """Test ``tau^T = tau`` and ``tau^dagger tau = 1`` to within ``INVOLUTION_ATOL``.

    Both must hold for the antilinear map to be Hermitian and square to
    ``+1``.  A unitary but antisymmetric ``tau`` (e.g. ``sigma_2``) gives
    ``T^2 = -1`` and fails the first test.
    """
    tau = operator.tau
    sym = _relative_residual(tau, lambda t: t.T - t)
    uni = float(np.linalg.norm(tau.conj().T @ tau - np.eye(operator.dim)))
    return InvolutionCheck(sym <= INVOLUTION_ATOL and uni <= INVOLUTION_ATOL, sym, uni)


@dataclass(frozen=True)
class TimeReversalParams:
    """Angles ``(gamma, xi, zeta)`` for the symmetric-unitary family below."""

    gamma: float = 0.0
    xi: float = 0.0
    zeta: float = 0.0

    def __post_init__(self):
        two_pi = 2.0 * np.pi
        for name in ("gamma", "xi", "zeta"):
            object.__setattr__(self, name, float(getattr(self, name)) % two_pi)


def _axis_matrix(zeta: float) -> np.ndarray:
    # Unit combination in the sigma_1 / sigma_3 plane; sigma_2 is excluded
    # on purpose (it would break tau^T = tau).
    return math.cos(zeta) * SIGMA1 + math.sin(zeta) * SIGMA3


def make_time_reversal(params: TimeReversalParams) -> AntilinearOperator:
    """Generalized time reversal with linear part

    ``tau = e^{i gamma} (cos(xi) 1 + i sin(xi) (cos(zeta) sigma_1 + sin(zeta) sigma_3))``.

    Every ``tau`` of this form is symmetric unitary, and (up to the sign
    ambiguity of the square root) every 2x2 symmetric unitary arises this way.
    """
    tau = np.exp(1j * params.gamma) * _pauli_exp(params.xi, _axis_matrix(params.zeta))
    return AntilinearOperator(tau)


def unitary_sqrt_of_tau(params: TimeReversalParams) -> np.ndarray:
    """Symmetric unitary ``U`` with ``U^2 = tau``: half-angle exponential.

    ``U = e^{i gamma / 2} exp(i (xi/2) (cos(zeta) sigma_1 + sin(zeta) sigma_3))``;
    conjugation by ``U`` pulls the antilinear symmetry back to plain complex
    conjugation, since ``tau psi^* = U (U^{-1} psi)^*`` for symmetric unitary ``U``.
    """
    u = _pauli_exp(0.5 * params.xi, _axis_matrix(params.zeta))
    return np.exp(0.5j * params.gamma) * u


def check_pt_symmetry(hamiltonian, parity, time_reversal: AntilinearOperator) -> float:
    """Commutator residual of ``H`` with the antilinear product ``P . T``.

    ``[H, PT] = 0`` reads ``H P tau = P tau conj(H)`` on linear parts; the
    returned value is ``||H P tau - P tau conj(H)||_F / ||H||_F``.  It is
    homogeneous of degree 1 in ``P`` and in ``tau``, so each goes once through
    :func:`~pht.linalg._norm_in_range` (``P`` in the singularity gate) and the
    residual is scaled back by their powers of two: the product ``H P tau``
    can neither overflow nor underflow, and only a residual that itself leaves
    the double range reads ``inf`` or 0.  The products run in real arithmetic
    when ``H``, ``P`` and ``tau`` are all real-valued.

    Raises
    ------
    SingularParityError
        If ``parity`` is numerically singular.
    """
    return _pt_residual(_norm_in_range(as_square_matrix(hamiltonian)), parity, time_reversal)[0]


def _pt_residual(measured, parity, time_reversal: AntilinearOperator) -> tuple[float, np.ndarray]:
    """``(residual, P tau)``: :func:`check_pt_symmetry` for ``H`` as ``_norm_in_range`` measured it.

    The one body of the PT gate, shared by :func:`check_pt_symmetry` and
    :func:`check_exactness`, so that the latter measures ``H`` once and forms
    ``P tau`` once.  ``P tau`` is returned at the operands' own scale (the
    powers of two are exact), real when ``P`` and ``tau`` are real-valued.
    """
    h, norm, _ = measured
    p = as_square_matrix(parity)
    if h.shape != p.shape or p.shape[0] != time_reversal.dim:
        raise DimensionMismatchError("hamiltonian, parity and time reversal dims must agree")
    p, e_p = _require_nonsingular(p, SingularParityError, "parity operator")
    tau, _, e_tau = _norm_in_range(time_reversal.tau)
    if not np.iscomplexobj(p):
        # the gate has found P real-valued
        tau, h = _real_if_all_real(tau, h)
    lin = p @ tau
    residual = _relative_residual(h, lambda m: m @ lin - lin @ np.conj(m), norm)
    e = e_p + e_tau
    if not e:
        return residual, lin
    with np.errstate(over="ignore"):
        return float(np.ldexp(residual, e)), np.ldexp(lin.view(float), e).view(lin.dtype)


@dataclass(frozen=True)
class ExactnessReport:
    """Whether an antilinear symmetry is exact, and its fixed eigenvectors.

    ``exact`` is True when the spectrum is real and diagonalizable; then
    ``fixed_eigenvectors`` holds one eigenvector per column, rescaled to be
    pointwise invariant under ``PT``.  Otherwise ``failure_reason`` is
    ``"complex_eigenvalues"`` or ``"not_diagonalizable"``.
    """

    exact: bool
    fixed_eigenvectors: np.ndarray | None
    failure_reason: str | None


def _exactness_failure(classification: SpectrumClass) -> str | None:
    """``failure_reason`` of a PT-symmetric ``H`` with this spectrum; None when exact."""
    if classification is SpectrumClass.REAL_DIAGONALIZABLE:
        return None
    if classification is SpectrumClass.NEAR_DEFECTIVE:
        return "not_diagonalizable"
    return "complex_eigenvalues"


def _pt_fix_cluster(columns: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Combine degenerate eigenvectors into PT-fixed ones.

    ``chi`` holds the images ``PT psi`` of the ``columns``.  For each basis
    vector the candidates ``psi + PT psi`` and ``i (psi - PT psi)`` are both
    fixed points.  Fixed vectors form a real vector space, so the leading
    ``k`` left singular vectors of the candidates, taken as real vectors
    ``[Re; Im]``, are real combinations of fixed points: fixed themselves, of
    unit norm, and a complex basis of the eigenspace.
    """
    d, k = columns.shape
    candidates = np.concatenate([columns + chi, 1j * (columns - chi)], axis=1)
    u, _, _ = np.linalg.svd(np.concatenate([candidates.real, candidates.imag]), full_matrices=False)
    return u[:d, :k] + 1j * u[d:, :k]


def check_exactness(hamiltonian, parity, time_reversal: AntilinearOperator) -> ExactnessReport:
    """Decide exactness of the ``PT`` symmetry and produce fixed eigenvectors.

    The symmetry is exact when every eigenvector can be rescaled to a ``PT``
    fixed point, which for an involutive antilinear symmetry happens exactly
    when the spectrum is real and the matrix diagonalizable.  Nondegenerate
    eigenvectors satisfy ``PT psi = N psi`` with ``|N| = 1``, so the phase
    ``psi -> e^{i arg(N) / 2} psi`` fixes them; degenerate clusters are
    handled by real-linear combination.

    ``hamiltonian`` is a square matrix or its :func:`eigendecompose` record,
    which is used as it is: the spectrum is then real to within the record's
    ``reality_rtol``, and no second ``eig`` is made.  A matrix is decomposed
    first, and the ``PT`` gate reads the record's matrix either way; that
    matrix is measured once and ``P tau`` formed once for the gate, the
    clusters and the fixed points, in real arithmetic where all are real.

    Every returned column ``f`` is checked to be fixed.  Its defect is
    ``||N| - 1|`` for a nondegenerate eigenvector (that is ``|PT f - f|``
    when ``PT psi = N psi``) and ``|PT f - f|`` for a cluster column.  For an
    involution only the error of the computed eigenvectors is left.  They are
    exact for ``H + E`` with ``||E||`` about ``(rho + eps) ||H||_F``, ``rho``
    the commutator residual and ``eps`` the rounding of ``eig``; to first
    order that moves ``|N_n|`` by at most
    ``2 ||E|| ||V^-1|| sum_m 1 / |w_n - w_m|``, where ``||V^-1|| <= cond(V)``
    for unit columns and the sum is at most ``d / sep``, ``sep`` the smallest
    gap between clusters, which the routine that finds them measures too.
    Forming ``PT f`` rounds by about ``eps ||P tau||_F``, which a cluster's
    basis amplifies by at most ``cond(V)``.  The budget is therefore
    ``FIXED_POINT_MARGIN (rho + eps) cond(V) (||P tau||_F + d ||H||_F / sep)``.
    With ``T = 2K``, which squares to 4, every ``|N|`` is 2, far beyond it.
    ``cond(V)`` is the record's ``eigvec_condition``, an SVD, which is taken
    only when the defect exceeds the budget at ``cond(V) = 1``, its least
    value; the verdict is the same.

    Raises
    ------
    NotPTSymmetricError
        If the commutator residual exceeds ``PT_RESIDUAL_TOL``, or a fixed
        point's defect exceeds its budget, so that ``PT`` does not act as an
        involution on the eigenvectors.
    """
    spectral = hamiltonian if isinstance(hamiltonian, SpectralData) else eigendecompose(hamiltonian)
    measured = _norm_in_range(spectral.matrix)
    residual, lin = _pt_residual(measured, parity, time_reversal)
    if not residual <= PT_RESIDUAL_TOL:
        raise NotPTSymmetricError(
            f"PT commutator residual {residual:.3e} exceeds {PT_RESIDUAL_TOL:.1e}"
        )
    failure = _exactness_failure(spectral.classification)
    if failure is not None:
        return ExactnessReport(False, None, failure)

    v = spectral.eigenvectors
    chi = lin @ np.conj(v if np.iscomplexobj(lin) else _real_if_real(v))
    # <psi, PT psi> = N, since <psi, psi> = 1: arg N fixes psi, and |N| must be 1
    overlap = np.einsum("ij,ij->j", v.conj(), chi)
    fixed = v * np.exp(0.5j * np.angle(overlap))
    defect = np.abs(np.abs(overlap) - 1.0)
    clusters, h_over_sep = _degenerate_clusters(spectral, measured)
    for cluster in clusters:
        if len(cluster) > 1:
            fixed[:, cluster] = _pt_fix_cluster(v[:, cluster], chi[:, cluster])
            defect[cluster] = np.linalg.norm(lin @ np.conj(fixed[:, cluster]) - fixed[:, cluster], axis=0)
    rate = FIXED_POINT_MARGIN * (residual + np.finfo(float).eps)
    spread = np.linalg.norm(lin) + len(v) * h_over_sep
    # The budget grows with cond(V), whose least value is 1 (an SVD's ratio
    # sigma_max / sigma_min is at least 1 too): a defect within the budget at
    # 1 needs no SVD.
    if not defect.max() <= rate * spread:
        budget = rate * spectral.eigvec_condition * spread
        if not defect.max() <= budget:
            raise NotPTSymmetricError(
                f"PT fixed-point defect {defect.max():.3e} exceeds its budget {budget:.3e}: "
                "PT does not act as an involution on the eigenvectors"
            )
    return ExactnessReport(True, fixed, None)
