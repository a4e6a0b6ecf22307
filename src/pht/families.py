"""Exactly solvable two-level families with antilinear symmetry.

The central object is the complex symmetric family

    H(r, s, t, phi) = [[r + t cos(phi) - i s sin(phi),  i s cos(phi) + t sin(phi)],
                       [i s cos(phi) + t sin(phi),      r - t cos(phi) + i s sin(phi)]],

which commutes with ``P(phi) . K`` (``K`` = conjugation) for the rotated
parity ``P(phi) = cos(phi) sigma_3 + sin(phi) sigma_1`` and has eigenvalues
``r +/- sqrt(t^2 - s^2)``: the symmetry is exact for ``|s| < |t|`` and
spontaneously broken beyond.  Everything downstream (metric, generalized
parity, charge-like symmetry, positive square root, Hermitian partner) has a
closed form in ``alpha = arcsin(s / t)``.

Two five-parameter extensions are reduced back to this family: a non-symmetric
variant with an extra antisymmetric coupling ``u``, and conjugations by the
symmetric unitaries of :mod:`pht.antilinear`, which trade plain conjugation
for a generalized time reversal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antilinear import AntilinearOperator, TimeReversalParams, unitary_sqrt_of_tau
from .errors import (
    BrokenSymmetryParamsError,
    DegenerateDirectionError,
    ExceptionalPointError,
    InvalidAxisError,
)
from .linalg import IDENTITY2, PAULI, SIGMA1, SIGMA2, BiorthonormalSystem, _pauli_exp

# Relative margin to the exceptional point |s| = |t| inside which the closed
# forms are refused.
EXCEPTIONAL_POINT_RTOL = 1e-12


@dataclass(frozen=True)
class SymmetricFamilyParams:
    """Parameters of the complex symmetric family; ``phi`` is taken mod 2*pi."""

    r: float
    s: float
    t: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * np.pi))

    @property
    def is_exact(self) -> bool:
        """Strictly inside the unbroken region, with margin to the exceptional point."""
        return abs(self.s) < abs(self.t) * (1.0 - EXCEPTIONAL_POINT_RTOL)

    @property
    def alpha(self) -> float:
        """Mixing angle ``arcsin(s / t)``, defined only in the exact regime."""
        if not self.is_exact:
            raise ExceptionalPointError(
                f"|s| = {abs(self.s)} is not below |t| = {abs(self.t)}; "
                "closed forms are singular at and beyond the exceptional point"
            )
        return float(np.arcsin(self.s / self.t))


@dataclass(frozen=True)
class GeneralFamilyParams:
    """Symmetric family plus an antisymmetric off-diagonal coupling ``u``."""

    r: float
    s: float
    t: float
    u: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * np.pi))

    @property
    def is_exact(self) -> bool:
        return abs(self.s) < float(np.hypot(self.t, self.u)) * (1.0 - EXCEPTIONAL_POINT_RTOL)


@dataclass(frozen=True)
class TwoLevelOperators:
    """Closed-form operator bundle for an exact symmetric-family point."""

    eta_plus: np.ndarray
    parity: np.ndarray
    charge: np.ndarray
    rho_plus: np.ndarray
    hermitian_h: np.ndarray


def symmetric_hamiltonian(p: SymmetricFamilyParams) -> np.ndarray:
    """Matrix of the complex symmetric family (any parameters, broken included)."""
    c, s_ = math.cos(p.phi), math.sin(p.phi)
    return np.array(
        [
            [p.r + p.t * c - 1j * p.s * s_, 1j * p.s * c + p.t * s_],
            [1j * p.s * c + p.t * s_, p.r - p.t * c + 1j * p.s * s_],
        ]
    )


def _family_amplitudes(alpha: float) -> tuple[float, float, float, float]:
    """Eigenvector amplitudes ``(a_+, b_+, a_-, b_-)``.

    Half-angle form of ``a_n = sin(alpha) / sqrt(2 (1 - n cos(alpha)) cos(alpha))``
    and ``b_n = (-1 + n cos(alpha)) / sqrt(...)``, which stays finite at
    ``alpha = 0`` where the printed quotients degenerate to 0/0.
    """
    root = math.sqrt(math.cos(alpha))
    sgn = 1.0 if alpha >= 0.0 else -1.0
    a_plus = sgn * math.cos(alpha / 2.0) / root
    b_plus = -sgn * math.sin(alpha / 2.0) / root
    a_minus = math.sin(alpha / 2.0) / root
    b_minus = -math.cos(alpha / 2.0) / root
    return a_plus, b_plus, a_minus, b_minus


def symmetric_eigensystem(p: SymmetricFamilyParams) -> BiorthonormalSystem:
    """Closed-form biorthonormal eigensystem of the symmetric family.

    Columns are ordered ``[psi_+, psi_-]`` with ``E_n = r + n t cos(alpha)``,
    ``phi_n = n conj(psi_n)``, and the transpose normalization
    ``psi_n^T psi_n = n``.  For ``t > 0`` this is descending eigenvalue order.

    Raises
    ------
    ExceptionalPointError
        When ``|s| >= |t| (1 - 1e-12)``: at the boundary the eigenvectors
        collapse onto each other and the normalization blows up.
    """
    alpha = p.alpha
    a_p, b_p, a_m, b_m = _family_amplitudes(alpha)
    half = p.phi / 2.0
    c, s_ = math.cos(half), math.sin(half)
    psi_plus = np.array([a_p * c + 1j * b_p * s_, a_p * s_ - 1j * b_p * c])
    psi_minus = np.array([a_m * c + 1j * b_m * s_, a_m * s_ - 1j * b_m * c])
    psi = np.column_stack([psi_plus, psi_minus])
    phi = np.column_stack([np.conj(psi_plus), -np.conj(psi_minus)])
    shift = p.t * math.cos(alpha)
    eigenvalues = np.array([p.r + shift, p.r - shift])
    return BiorthonormalSystem(eigenvalues, psi, phi)


def parity_from_angle(phi: float) -> np.ndarray:
    """Rotated parity ``cos(phi) sigma_3 + sin(phi) sigma_1``.

    Equal to ``exp(-i phi sigma_2 / 2) sigma_3 exp(i phi sigma_2 / 2)``:
    an involution with eigenvalues +1 and -1 for every angle.
    """
    return np.array([[math.cos(phi), math.sin(phi)], [math.sin(phi), -math.cos(phi)]], dtype=complex)


def symmetric_operators(p: SymmetricFamilyParams) -> TwoLevelOperators:
    """Closed forms of ``eta_plus``, parity, charge, ``rho_plus`` and ``h``.

    With ``sec = 1/cos(alpha)`` and ``tan = tan(alpha)``:

    * ``eta_plus = [[sec, i tan], [-i tan, sec]]`` (independent of ``phi``),
    * generalized parity ``P(phi)`` as in :func:`parity_from_angle`,
    * charge ``C = sec P(phi) + i tan (cos(phi) sigma_1 - sin(phi) sigma_3)``,
    * ``rho_plus = [[r_+, -i r_-], [i r_-, r_+]]`` with
      ``r_pm = (sqrt(sec - tan) +/- sqrt(sec + tan)) / 2``,
    * ``h = r 1 + t cos(alpha) P(phi)``, which equals
      ``rho_plus H rho_plus^{-1}`` for either sign of ``t`` (the radical
      ``sqrt(t^2 - s^2)`` form assumes ``t > 0``).

    Raises
    ------
    ExceptionalPointError
        Outside the exact regime.
    """
    alpha = p.alpha
    sec = 1.0 / math.cos(alpha)
    tan = np.tan(alpha)
    c, s_ = math.cos(p.phi), math.sin(p.phi)
    eta = np.array([[sec, 1j * tan], [-1j * tan, sec]])
    parity = parity_from_angle(p.phi)
    charge = np.array(
        [
            [sec * c - 1j * tan * s_, sec * s_ + 1j * tan * c],
            [sec * s_ + 1j * tan * c, -sec * c + 1j * tan * s_],
        ]
    )
    lo = math.sqrt(sec - tan)
    hi = math.sqrt(sec + tan)
    r_plus, r_minus = 0.5 * (lo + hi), 0.5 * (lo - hi)
    rho = np.array([[r_plus, -1j * r_minus], [1j * r_minus, r_plus]])
    h = p.r * IDENTITY2 + (p.t * math.cos(alpha)) * parity
    return TwoLevelOperators(eta, parity, charge, rho, h)


def pauli_rotation(axis: int, theta: float, target: int) -> np.ndarray:
    """Conjugate ``sigma_target`` by ``exp(-i theta sigma_axis / 2)``.

    Returns ``e^{-i theta sigma_i / 2} sigma_j e^{+i theta sigma_i / 2}``,
    which equals ``cos(theta) sigma_j + sin(theta) sum_k eps_ijk sigma_k``.

    Raises
    ------
    InvalidAxisError
        If ``axis`` or ``target`` is not one of 1, 2, 3.
    """
    for name, idx in (("axis", axis), ("target", target)):
        if idx not in (1, 2, 3):
            raise InvalidAxisError(f"{name} must be 1, 2 or 3, got {idx!r}")
    left = _pauli_exp(-0.5 * theta, PAULI[axis - 1])
    right = _pauli_exp(0.5 * theta, PAULI[axis - 1])
    return left @ PAULI[target - 1] @ right


def general_hamiltonian(p: GeneralFamilyParams) -> np.ndarray:
    """Five-parameter family: the symmetric one plus antisymmetric coupling ``u``.

    Equal to ``exp(-i phi sigma_2 / 2) (r 1 + i s sigma_1 + u sigma_2 + t sigma_3)
    exp(+i phi sigma_2 / 2)``; eigenvalues ``r +/- sqrt(t^2 + u^2 - s^2)``.
    """
    c, s_ = math.cos(p.phi), math.sin(p.phi)
    return np.array(
        [
            [p.r + p.t * c - 1j * p.s * s_, p.t * s_ + 1j * (p.s * c - p.u)],
            [p.t * s_ + 1j * (p.s * c + p.u), p.r - p.t * c + 1j * p.s * s_],
        ]
    )


@dataclass(frozen=True)
class SymmetricReduction:
    """Unitary reduction of the five-parameter family to the symmetric one."""

    h_prime: np.ndarray
    u1: np.ndarray
    params: SymmetricFamilyParams


def reduce_general_to_symmetric(p: GeneralFamilyParams) -> SymmetricReduction:
    """Rotate the ``u`` coupling away: ``H = U1 H' U1^{-1}``.

    ``H'`` is the symmetric family at ``(r, s, t', phi)`` with
    ``t' = hypot(t, u)``, and

        ``U1 = e^{-i phi sigma_2 / 2} e^{i beta sigma_1 / 2} e^{+i phi sigma_2 / 2}``

    with ``beta = atan2(u, t)`` in ``[0, 2 pi)``: the sigma_1 half-rotation
    turns ``t' sigma_3`` into ``t sigma_3 + u sigma_2`` and is conjugated by
    the same sigma_2 rotation that generates the ``phi`` dependence.  Works in
    the broken regime too; only the closed-form operator bundle needs
    exactness.

    Raises
    ------
    DegenerateDirectionError
        When ``t = u = 0`` and the rotation direction is undefined.
    """
    t_prime = float(np.hypot(p.t, p.u))
    if t_prime == 0.0:
        raise DegenerateDirectionError("t = u = 0: no direction to rotate from")
    beta = float(np.arctan2(p.u, p.t)) % (2.0 * np.pi)
    params = SymmetricFamilyParams(p.r, p.s, t_prime, p.phi)
    u1 = (
        _pauli_exp(-0.5 * p.phi, SIGMA2)
        @ _pauli_exp(0.5 * beta, SIGMA1)
        @ _pauli_exp(0.5 * p.phi, SIGMA2)
    )
    return SymmetricReduction(symmetric_hamiltonian(params), u1, params)


@dataclass(frozen=True)
class GeneralTSystem:
    """A Hamiltonian with its parity and generalized time reversal."""

    hamiltonian: np.ndarray
    parity: np.ndarray
    time_reversal: AntilinearOperator


def general_t_hamiltonian(
    base: GeneralFamilyParams, tparams: TimeReversalParams
) -> GeneralTSystem:
    """Conjugate a five-parameter family point into a generalized-T frame.

    With ``U = unitary_sqrt_of_tau(tparams)`` the triple is

        ``H = U H_check U^{-1}``, ``P = U P_check U^{-1}``, ``T: psi -> U^2 conj(psi)``,

    where ``(H_check, P_check, conjugation)`` is the plain general-family
    symmetry.  ``[H, PT] = 0`` and exactness carry over unchanged.

    Raises
    ------
    BrokenSymmetryParamsError
        If ``base`` lies outside the exact regime.
    """
    if not base.is_exact:
        raise BrokenSymmetryParamsError(
            f"|s| = {abs(base.s)} is not below sqrt(t^2 + u^2) = {np.hypot(base.t, base.u)}"
        )
    return _general_t_system(base, unitary_sqrt_of_tau(tparams))


def _general_t_system(base: GeneralFamilyParams, u: np.ndarray) -> GeneralTSystem:
    """The triple of :func:`general_t_hamiltonian` for ``U = u``, broken regime included."""
    u_inv = u.conj().T
    h = u @ general_hamiltonian(base) @ u_inv
    parity = u @ parity_from_angle(base.phi) @ u_inv
    return GeneralTSystem(h, parity, AntilinearOperator(u @ u))


@dataclass(frozen=True)
class HermitizeEquivalence:
    """Explicit similarity between a family point and a Hermitian matrix."""

    h_prime_hermitian: np.ndarray
    u2: np.ndarray


def hermitize_equivalence(p: GeneralFamilyParams) -> HermitizeEquivalence:
    """Compose the reduction with the metric square root: ``H = U2 h' U2^{-1}``.

    ``h'`` is the Hermitian partner of the reduced symmetric family and
    ``U2 = U1 rho'_+^{-1}``; unlike ``U1`` this similarity is not unitary,
    which is exactly the non-Hermiticity of ``H``.  The closed-form
    ``rho'_+ = [[r_+, -i r_-], [i r_-, r_+]]`` has determinant
    ``r_+^2 - r_-^2 = sqrt(sec^2 - tan^2) = 1``, so ``rho'_+^{-1} = conj(rho'_+)``
    and no inverse is computed.

    Raises
    ------
    DegenerateDirectionError
        When ``t = u = 0``.
    ExceptionalPointError
        Outside the exact regime (no positive metric to take a root of).
    """
    reduction = reduce_general_to_symmetric(p)
    ops = symmetric_operators(reduction.params)
    u2 = reduction.u1 @ ops.rho_plus.conj()
    return HermitizeEquivalence(ops.hermitian_h, u2)
