"""Antilinear operators, generalized time reversal, and exactness of PT-type symmetries.

An antilinear operator is stored through its linear part ``tau``: the action
is ``psi -> tau conj(psi)``.  A Hermitian antilinear involution is exactly a
symmetric unitary ``tau`` (then ``tau conj(tau) = 1`` follows); antisymmetric
unitaries like ``sigma_2`` square to ``-1`` and are rejected, which is how the
Kramers-degenerate case is kept out of scope.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, NotPTSymmetricError, SingularParityError
from .linalg import (
    REALITY_RTOL,
    SIGMA1,
    SIGMA3,
    SpectrumClass,
    _degenerate_clusters,
    _require_nonsingular,
    as_square_matrix,
    as_state_vector,
    eigendecompose,
    matrix_exp,
)

# Residual bound for the symmetric/unitary tests of an involution.
INVOLUTION_ATOL = 1e-10
# PT-commutator residual above which a Hamiltonian is not PT-symmetric.
PT_RESIDUAL_TOL = 1e-8
# How closely rescaled eigenvectors must satisfy PT psi = psi.
FIXED_POINT_TOL = 1e-9


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


def is_hermitian_antilinear_involution(
    operator: AntilinearOperator, atol: float = INVOLUTION_ATOL
) -> InvolutionCheck:
    """Test ``tau^T = tau`` and ``tau^dagger tau = 1`` to tolerance.

    Both must hold for the antilinear map to be Hermitian and square to
    ``+1``.  A unitary but antisymmetric ``tau`` (e.g. ``sigma_2``) gives
    ``T^2 = -1`` and fails the first test.
    """
    tau = operator.tau
    scale = max(float(np.linalg.norm(tau)), 1e-300)
    sym = float(np.linalg.norm(tau.T - tau)) / scale
    uni = float(np.linalg.norm(tau.conj().T @ tau - np.eye(operator.dim)))
    return InvolutionCheck(sym <= atol and uni <= atol, sym, uni)


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
    return np.cos(zeta) * SIGMA1 + np.sin(zeta) * SIGMA3


def make_time_reversal(params: TimeReversalParams) -> AntilinearOperator:
    """Generalized time reversal with linear part

    ``tau = e^{i gamma} (cos(xi) 1 + i sin(xi) (cos(zeta) sigma_1 + sin(zeta) sigma_3))``.

    Every ``tau`` of this form is symmetric unitary, and (up to the sign
    ambiguity of the square root) every 2x2 symmetric unitary arises this way.
    """
    tau = np.exp(1j * params.gamma) * (
        np.cos(params.xi) * np.eye(2) + 1j * np.sin(params.xi) * _axis_matrix(params.zeta)
    )
    return AntilinearOperator(tau)


def unitary_sqrt_of_tau(params: TimeReversalParams) -> np.ndarray:
    """Symmetric unitary ``U`` with ``U^2 = tau``: half-angle exponential.

    ``U = e^{i gamma / 2} exp(i (xi/2) (cos(zeta) sigma_1 + sin(zeta) sigma_3))``;
    conjugation by ``U`` pulls the antilinear symmetry back to plain complex
    conjugation, since ``tau psi^* = U (U^{-1} psi)^*`` for symmetric unitary ``U``.
    """
    u = matrix_exp(0.5j * params.xi * _axis_matrix(params.zeta))
    return np.exp(0.5j * params.gamma) * u


def check_pt_symmetry(hamiltonian, parity, time_reversal: AntilinearOperator) -> float:
    """Commutator residual of ``H`` with the antilinear product ``P . T``.

    ``[H, PT] = 0`` reads ``H P tau = P tau conj(H)`` on linear parts; the
    returned value is ``||H P tau - P tau conj(H)||_F / ||H||_F``.

    Raises
    ------
    SingularParityError
        If ``parity`` is numerically singular.
    """
    h = as_square_matrix(hamiltonian)
    p = as_square_matrix(parity)
    if h.shape != p.shape or p.shape[0] != time_reversal.dim:
        raise DimensionMismatchError("hamiltonian, parity and time reversal dims must agree")
    _require_nonsingular(p, SingularParityError, "parity operator")
    hnorm = float(np.linalg.norm(h))
    if hnorm == 0.0:
        return 0.0
    lin = p @ time_reversal.tau
    return float(np.linalg.norm(h @ lin - lin @ np.conj(h))) / hnorm


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


def _pt_fix_cluster(columns: np.ndarray, pt_linear: np.ndarray) -> np.ndarray:
    """Combine degenerate eigenvectors into PT-fixed ones.

    For each basis vector the candidates ``psi + PT psi`` and
    ``i (psi - PT psi)`` are both fixed points; picking a maximal
    real-independent subset (fixed vectors form a real vector space) yields a
    complex basis of the eigenspace.
    """
    k = columns.shape[1]
    candidates = []
    for j in range(k):
        psi = columns[:, j]
        chi = pt_linear @ np.conj(psi)
        candidates.append(psi + chi)
        candidates.append(1j * (psi - chi))
    stacked = np.array([np.concatenate([c.real, c.imag]) for c in candidates]).T
    _, _, pivots = scipy.linalg.qr(stacked, mode="economic", pivoting=True)
    chosen = []
    for j in pivots[:k]:
        vec = candidates[j]
        chosen.append(vec / np.linalg.norm(vec))
    return np.array(chosen).T


def check_exactness(
    hamiltonian,
    parity,
    time_reversal: AntilinearOperator,
    *,
    pt_tol: float = PT_RESIDUAL_TOL,
    reality_rtol: float = REALITY_RTOL,
) -> ExactnessReport:
    """Decide exactness of the ``PT`` symmetry and produce fixed eigenvectors.

    The symmetry is exact when every eigenvector can be rescaled to a ``PT``
    fixed point, which for an involutive antilinear symmetry happens exactly
    when the spectrum is real and the matrix diagonalizable.  Nondegenerate
    eigenvectors satisfy ``PT psi = N psi`` with ``|N| = 1``, so the phase
    ``psi -> e^{i arg(N) / 2} psi`` fixes them; degenerate clusters are
    handled by real-linear combination.

    Raises
    ------
    NotPTSymmetricError
        If the commutator residual exceeds ``pt_tol``.
    """
    h = as_square_matrix(hamiltonian)
    residual = check_pt_symmetry(h, parity, time_reversal)
    if residual > pt_tol:
        raise NotPTSymmetricError(f"PT commutator residual {residual:.3e} exceeds {pt_tol:.1e}")

    spectral = eigendecompose(h, reality_rtol)
    failure = _exactness_failure(spectral.classification)
    if failure is not None:
        return ExactnessReport(False, None, failure)

    pt_linear = as_square_matrix(parity) @ time_reversal.tau
    v = spectral.eigenvectors
    fixed = np.empty_like(v)
    for cluster in _degenerate_clusters(spectral.eigenvalues.real, float(np.linalg.norm(h))):
        if len(cluster) == 1:
            psi = v[:, cluster[0]]
            chi = pt_linear @ np.conj(psi)
            factor = np.vdot(psi, chi) / np.vdot(psi, psi)
            fixed[:, cluster[0]] = np.exp(0.5j * np.angle(factor)) * psi
        else:
            fixed[:, cluster] = _pt_fix_cluster(v[:, cluster], pt_linear)
    return ExactnessReport(True, fixed, None)
