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
    _frobenius_norm,
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
# Multiple of check_exactness's first-order budget that a column's defect may
# reach.  On 7238 random exact pairs (d 2-32, cond(S) up to 1e8 for
# H = S diag(w) S^-1, clusters of up to 5, commutator residuals up to 1e-8,
# T = K, u u^T K and c K) it reached 0.40 budgets.
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
    ``T^2 = -1`` and fails the first test.  A ``tau`` so large that
    ``tau^dagger tau`` overflows fails the second with an infinite
    ``unitarity_residual``, and no warning.
    """
    tau = operator.tau
    sym = _relative_residual(tau, lambda t: t.T - t)
    with np.errstate(over="ignore", invalid="ignore"):
        uni = _frobenius_norm(tau.conj().T @ tau - np.eye(operator.dim))
    # tau is finite, so a NaN is an overflowed tau^dagger tau (inf * 0 in a
    # complex product): a residual beyond the double range, as inf is
    uni = math.inf if math.isnan(uni) else uni
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


def _pt_residual(measured, parity, time_reversal: AntilinearOperator) -> tuple[float, float, np.ndarray]:
    """``(residual, scaled, P tau)``: :func:`check_pt_symmetry` for ``H`` as ``_norm_in_range`` measured it.

    The one body of the PT gate, shared by :func:`check_pt_symmetry` and
    :func:`check_exactness`.  The latter passes its record's ``_measured``,
    the measurement of ``H`` that the record takes once for every gate, and
    forms ``P tau`` once.  ``P tau`` is returned at the power-of-two scale that
    ``_norm_in_range`` gave ``P`` and ``tau``, real when both are real-valued.
    ``scaled`` is the residual of that ``P tau``, and ``residual`` is
    ``scaled`` scaled back by those powers (the powers of two are exact).
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
    scaled = _relative_residual(h, lambda m: m @ lin - lin @ np.conj(m), norm)
    e = e_p + e_tau
    if not e:
        return scaled, scaled, lin
    with np.errstate(over="ignore"):
        return float(np.ldexp(scaled, e)), scaled, lin


@dataclass(frozen=True)
class ExactnessReport:
    """Whether an antilinear symmetry is exact, and its eigenvectors normalized under ``PT``.

    ``exact`` is True when the pair passes the commutator gate, the
    spectrum is real and diagonalizable, and every eigenvector is an
    eigenvector of ``PT``; then ``fixed_eigenvectors`` holds
    one eigenvector ``f`` per column, with its phase chosen so that
    ``PT f = |N| f``.  Otherwise ``fixed_eigenvectors`` is None and
    ``failure_reason`` is ``"not_pt_symmetric"``, ``"complex_eigenvalues"``
    or ``"not_diagonalizable"``.  ``pt_residual`` is the commutator residual
    of :func:`check_pt_symmetry`, which the gate compared with its ``atol``
    (:func:`check_exactness` states the gate's second, scale-free part).
    """

    exact: bool
    fixed_eigenvectors: np.ndarray | None
    failure_reason: str | None
    pt_residual: float


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


def check_exactness(
    hamiltonian, parity, time_reversal: AntilinearOperator, *, atol: float = PT_RESIDUAL_TOL
) -> ExactnessReport:
    """Decide exactness of the ``PT`` symmetry by the paper's definition.

    The symmetry is exact when ``[H, PT] = 0`` and every eigenvector of ``H``
    is also an eigenvector of ``PT``.  The commutator gate compares the
    residual of :func:`check_pt_symmetry` with ``atol``, and asks that the
    eigenvector budget below, at ``cond(V) = 1``, stay below 1: a larger
    one would admit any defect of a unit column, so ``rho`` is then too
    large against the eigenvalue gaps to count as rounding, at any ``atol``
    and any scale of ``P`` and ``tau``.  A pair that fails either part gets
    the report ``failure_reason="not_pt_symmetric"``.  A complex or
    near-defective spectrum gets ``"complex_eigenvalues"`` or
    ``"not_diagonalizable"`` (the budget needs the gaps of a real spectrum,
    so there the second part is taken at ``sep = inf``).  Otherwise the
    eigenvectors are returned with their phases chosen so that
    ``PT f = |N| f``:

    * a nondegenerate eigenvector satisfies ``PT psi = N psi``, since ``PT``
      maps the eigenspace of a real ``E`` to itself, and
      ``psi -> e^{i arg(N) / 2} psi`` normalizes it;
    * on a degenerate cluster, ``(PT)^2`` must act as ``mu 1`` with
      ``mu >= 0``, as it does on a nondegenerate eigenvector, with
      ``mu = |N|^2``.  For ``mu > 0``, ``PT / sqrt(mu)`` is an antilinear
      involution there, and the columns are :func:`_pt_fix_cluster` of
      ``PT / sqrt(mu)``, with ``|N| = sqrt(mu)``.  ``mu`` is read as the mean
      of ``<psi, (PT)^2 psi>`` over the cluster's unit eigenvectors; where it
      is not positive the columns are kept and ``|N| = 0``, so ``PT`` must
      vanish on them, as it must on a nondegenerate eigenvector with
      ``N = 0``.  Any other cluster (``(PT)^2 = -1``, as for ``sigma_2 K``,
      or not a multiple of 1) fails the column check below, and is refused
      with :class:`~pht.errors.NotPTSymmetricError`.

    ``hamiltonian`` is a square matrix or its :func:`eigendecompose` record,
    which is used as it is: the spectrum is then real to within the record's
    ``reality_rtol``, and no second ``eig`` is made.  A matrix is decomposed
    first, and the ``PT`` gate reads the record's matrix either way.  The
    gate, the clusters and the spectrum class are the record's own:
    ``_measured``, its one measurement of the matrix (which
    :func:`~pht.linalg.biorthonormalize` reads too), ``_clusters`` and
    ``classification``, each taken on first read, so a pair that fails the
    gate never classifies the record.  ``P tau`` is formed once for the
    gate and the eigenvectors, in real arithmetic where all are real, and
    stays at the power-of-two scale that the gate gave it.

    Every returned column ``f`` is checked.  Its defect is
    ``|PT f - |N| f| / ||P tau||_F``: for a nondegenerate eigenvector, the
    part of ``PT psi`` orthogonal to ``psi``.  The defect and its budget are
    homogeneous of degree 0 in ``P`` and in ``tau``, so neither changes when
    either is rescaled.  Only the error of the computed eigenvectors is left
    when ``PT`` acts as above.  They are exact for ``H + E`` with ``||E||``
    about ``(rho + eps) ||H||_F``, ``rho`` the commutator residual relative to
    ``||P tau||_F`` and ``eps`` the rounding of ``eig``; to first order that
    moves an eigenvector by at most ``||E|| ||V^-1|| sum_m 1 / |w_n - w_m|``,
    where ``||V^-1|| <= cond(V)`` for unit columns and the sum is at most
    ``d / sep``, ``sep`` the smallest gap between clusters, which the
    record's ``_clusters`` measures with them.  That changes the defect by at
    most about three times as much.  Forming ``PT f`` rounds by about
    ``eps`` relative to ``||P tau||_F``, which a cluster's basis amplifies by
    at most ``cond(V)``.  The budget is therefore
    ``FIXED_POINT_MARGIN (rho + eps) cond(V) (1 + d ||H||_F / sep)``, a
    first-order estimate that holds only while it is small, which the gate's
    second part ensures at ``cond(V) = 1``.
    ``cond(V)`` is the record's ``eigvec_condition``, an SVD, which is taken
    only when the defect exceeds the budget at ``cond(V) = 1``, its least
    value; the verdict is the same.

    Raises
    ------
    ValueError
        If ``atol`` is NaN or negative, checked before any other work.
    SingularParityError
        If ``parity`` is numerically singular.
    NotPTSymmetricError
        If a column's defect exceeds its budget, as it does when ``(PT)^2``
        acts on a degenerate cluster as no multiple ``mu >= 0`` of the
        identity.
    """
    if not atol >= 0:
        raise ValueError(f"atol must be >= 0, got {atol!r}")
    spectral = hamiltonian if isinstance(hamiltonian, SpectralData) else eigendecompose(hamiltonian)
    residual, scaled, lin = _pt_residual(spectral._measured, parity, time_reversal)
    # a zero tau maps every vector to 0 = 0 f, with no residual to relate
    size = _frobenius_norm(lin) or 1.0
    rate = FIXED_POINT_MARGIN * (scaled / size + np.finfo(float).eps)
    if not (residual <= atol and rate < 1.0):
        return ExactnessReport(False, None, "not_pt_symmetric", residual)
    if spectral.classification is SpectrumClass.NEAR_DEFECTIVE:
        return ExactnessReport(False, None, "not_diagonalizable", residual)
    if spectral.classification is SpectrumClass.CONJUGATE_PAIRS:
        return ExactnessReport(False, None, "complex_eigenvalues", residual)
    clusters, h_over_sep = spectral._clusters
    spread = 1.0 + len(spectral.eigenvalues) * h_over_sep
    if not rate * spread < 1.0:
        return ExactnessReport(False, None, "not_pt_symmetric", residual)

    v = spectral.eigenvectors
    chi = lin @ np.conj(v if np.iscomplexobj(lin) else _real_if_real(v))
    # <psi, PT psi> = N, since <psi, psi> = 1: arg N normalizes psi
    overlap = np.einsum("ij,ij->j", v.conj(), chi)
    fixed = v * np.exp(0.5j * np.angle(overlap))
    # the part of PT psi orthogonal to psi
    defect = np.linalg.norm(chi - v * overlap, axis=0)
    for cluster in clusters:
        if len(cluster) > 1:
            columns = v[:, cluster]
            mu = np.einsum("ij,ij->j", columns.conj(), lin @ np.conj(chi[:, cluster])).real.mean()
            root = math.sqrt(mu) if mu > 0.0 else 0.0
            # |N| = 0 keeps the columns: PT must vanish on them
            fixed[:, cluster] = f = _pt_fix_cluster(columns, chi[:, cluster] / root) if root else columns
            defect[cluster] = np.linalg.norm(lin @ np.conj(f) - root * f, axis=0)
    defect = defect.max() / size
    # The budget grows with cond(V), whose least value is 1 (an SVD's ratio
    # sigma_max / sigma_min is at least 1 too): a defect within the budget at
    # 1 needs no SVD.
    if not defect <= rate * spread:
        budget = rate * spectral.eigvec_condition * spread
        if not defect <= budget:
            raise NotPTSymmetricError(
                f"PT eigenvector defect {defect:.3e} exceeds its budget {budget:.3e}: "
                "PT / |N| does not act as an involution on the eigenvectors"
            )
    return ExactnessReport(True, fixed, None, residual)
