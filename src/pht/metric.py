"""Positive-definite metrics from biorthonormal systems, and everything they induce.

Given a biorthonormal eigensystem ``{psi_n, phi_n}`` of a diagonalizable
Hamiltonian with real spectrum, the canonical positive metric is

    eta_plus = sum_n phi_n phi_n^dagger,

with positive square root ``rho_plus``.  ``rho_plus H rho_plus^{-1}`` is then
Hermitian, and ``rho_plus`` is a unitary map from the metric inner product to
the Euclidean one.  Alternating-sign variants of the same sum produce the
generalized parity and the charge-conjugation-like symmetry operator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotPseudoHermitianError,
    SingularWeightError,
)
from .linalg import (
    HERMITICITY_RTOL,
    REALITY_RTOL,
    WEIGHT_RCOND_LIMIT,
    BiorthonormalSystem,
    _require_nonsingular,
    as_square_matrix,
    as_state_vector,
    biorthonormalize,
)

# Residual above which a (Hamiltonian, metric) pair is rejected as not
# pseudo-Hermitian.
PSEUDO_HERMITICITY_TOL = 1e-8


@dataclass(frozen=True)
class MetricOperator:
    """A positive-definite metric with its positive square root.

    Attributes
    ----------
    eta_plus : ndarray
        Hermitian positive-definite metric.
    rho_plus : ndarray
        Unique positive square root of ``eta_plus``.
    rho_plus_inv : ndarray
        Inverse of ``rho_plus``.
    """

    eta_plus: np.ndarray
    rho_plus: np.ndarray
    rho_plus_inv: np.ndarray

    @property
    def dim(self) -> int:
        return self.eta_plus.shape[0]


def _alternating_signs(n: int) -> np.ndarray:
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


def build_eta_plus(system: BiorthonormalSystem) -> MetricOperator:
    """Assemble ``eta_plus = sum_n phi_n phi_n^dagger`` and its square root.

    The sum is Hermitian positive definite whenever the ``phi_n`` span, which
    a valid biorthonormal system guarantees; the square root and its inverse
    come from one spectral decomposition.

    Raises
    ------
    NotPositiveDefiniteError
        If roundoff (or an invalid input system) leaves ``eta_plus`` with a
        non-positive eigenvalue.
    """
    phi = system.phi
    eta = phi @ phi.conj().T
    eta = 0.5 * (eta + eta.conj().T)
    w, v = np.linalg.eigh(eta)
    floor = WEIGHT_RCOND_LIMIT * max(abs(w[-1]), 1e-300)
    if w[0] <= floor:
        raise NotPositiveDefiniteError(
            f"metric eigenvalue {w[0]:.3e} is not above {floor:.3e} "
            f"({WEIGHT_RCOND_LIMIT:.0e} * largest eigenvalue)"
        )
    roots = np.sqrt(w)
    rho = (v * roots) @ v.conj().T
    rho_inv = (v * (1.0 / roots)) @ v.conj().T
    return MetricOperator(eta, rho, rho_inv)


def build_generalized_parity(system: BiorthonormalSystem) -> np.ndarray:
    """``P = sum_n s_n phi_n phi_n^dagger`` with signs ``+,-,+,-...``.

    Signs alternate in the system's storage order, which is descending in
    eigenvalue for systems produced by :func:`biorthonormalize`.
    """
    signs = _alternating_signs(system.dim)
    return (system.phi * signs) @ system.phi.conj().T


def build_charge_conjugation(system: BiorthonormalSystem) -> np.ndarray:
    """``C = sum_n s_n psi_n phi_n^dagger`` with the same alternating signs.

    Squares to the identity and commutes with the Hamiltonian the system was
    built from; equals ``eta_plus^{-1} P`` for the matching parity.
    """
    signs = _alternating_signs(system.dim)
    return (system.psi * signs) @ system.phi.conj().T


def verify_pseudo_hermiticity(hamiltonian, weight) -> float:
    """Relative residual ``||H^dagger - W H W^{-1}||_F / ||H||_F``.

    Raises
    ------
    SingularWeightError
        If ``weight`` is numerically singular.
    DimensionMismatchError
        If the operands have different dimensions.
    """
    h = as_square_matrix(hamiltonian)
    w = as_square_matrix(weight)
    if h.shape != w.shape:
        raise DimensionMismatchError(f"operator shapes differ: {h.shape} vs {w.shape}")
    _require_nonsingular(w, SingularWeightError, "weight operator")
    hnorm = float(np.linalg.norm(h))
    if hnorm == 0.0:
        return 0.0
    residual = h.conj().T - w @ h @ np.linalg.inv(w)
    return float(np.linalg.norm(residual)) / hnorm


def hermitize(hamiltonian, metric: MetricOperator, *, tol: float = PSEUDO_HERMITICITY_TOL) -> np.ndarray:
    """Map ``H`` to its Hermitian partner ``h = rho_plus H rho_plus^{-1}``.

    Raises
    ------
    NotPseudoHermitianError
        If ``H`` fails pseudo-Hermiticity with respect to ``metric.eta_plus``
        at relative residual ``tol``.
    """
    h = as_square_matrix(hamiltonian)
    residual = verify_pseudo_hermiticity(h, metric.eta_plus)
    if residual > tol:
        raise NotPseudoHermitianError(
            f"pseudo-Hermiticity residual {residual:.3e} exceeds {tol:.1e}"
        )
    return metric.rho_plus @ h @ metric.rho_plus_inv


def map_observable(observable, metric: MetricOperator, direction: str = "to_tilde") -> np.ndarray:
    """Conjugate an observable between the Hermitian and metric pictures.

    ``"to_tilde"`` sends a Hermitian observable ``O`` to its metric-picture
    image ``rho_plus^{-1} O rho_plus`` (self-adjoint in the ``eta_plus``
    inner product); ``"from_tilde"`` inverts the map.
    """
    o = as_square_matrix(observable)
    if o.shape[0] != metric.dim:
        raise DimensionMismatchError(f"observable dim {o.shape[0]} != metric dim {metric.dim}")
    if direction == "to_tilde":
        return metric.rho_plus_inv @ o @ metric.rho_plus
    if direction == "from_tilde":
        return metric.rho_plus @ o @ metric.rho_plus_inv
    raise ValueError(f"unknown direction {direction!r}")


@dataclass(frozen=True)
class InnerProductKind:
    """Tagged inner-product choice: Euclidean, indefinite weight, or metric.

    Build instances through :meth:`euclidean`, :meth:`pseudo_eta` or
    :meth:`metric_eta`; ``weight is None`` means the Euclidean product.
    """

    label: str
    weight: np.ndarray | None = None

    @classmethod
    def euclidean(cls) -> "InnerProductKind":
        return cls("euclidean")

    @classmethod
    def pseudo_eta(cls, weight) -> "InnerProductKind":
        """Indefinite product ``<psi, W phi>`` for Hermitian invertible ``W``."""
        w = as_square_matrix(weight)
        if np.linalg.norm(w - w.conj().T) > HERMITICITY_RTOL * (1.0 + np.linalg.norm(w)):
            raise NotHermitianError("pseudo inner-product weight must be Hermitian")
        _require_nonsingular(w, SingularWeightError, "pseudo inner-product weight")
        return cls("pseudo-eta", w)

    @classmethod
    def metric_eta(cls, metric: MetricOperator) -> "InnerProductKind":
        """Positive-definite product ``<psi, eta_plus phi>``."""
        return cls("metric-eta", metric.eta_plus)


def inner_product(psi, phi, kind: InnerProductKind | None = None) -> complex:
    """Weighted inner product, conjugate-linear in the first argument."""
    u = as_state_vector(psi)
    v = as_state_vector(phi)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"state dims differ: {u.shape[0]} vs {v.shape[0]}")
    if kind is None or kind.weight is None:
        return complex(np.vdot(u, v))
    if kind.weight.shape[0] != u.shape[0]:
        raise DimensionMismatchError(
            f"weight dim {kind.weight.shape[0]} != state dim {u.shape[0]}"
        )
    return complex(u.conj() @ kind.weight @ v)


def verify_rho_unitarity(metric: MetricOperator, trials: int = 100, seed: int = 0) -> float:
    """Check that ``rho_plus^{-1}`` maps Euclidean to metric geometry.

    Draws ``trials`` random pairs and returns the largest deviation
    ``|<rho^{-1} psi, eta rho^{-1} phi> - <psi, phi>|`` over unit-norm draws.
    """
    rng = np.random.default_rng(seed)
    d = metric.dim
    kind = InnerProductKind.metric_eta(metric)
    worst = 0.0
    for _ in range(trials):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        lhs = inner_product(metric.rho_plus_inv @ psi, metric.rho_plus_inv @ phi, kind)
        rhs = inner_product(psi, phi)
        worst = max(worst, abs(lhs - rhs))
    return worst


def metric_from_hamiltonian(
    hamiltonian,
    *,
    normalization: str = "unit",
    reality_rtol: float = REALITY_RTOL,
) -> MetricOperator:
    """Convenience composition: biorthonormalize ``H`` and build its metric."""
    return build_eta_plus(
        biorthonormalize(hamiltonian, normalization=normalization, reality_rtol=reality_rtol)
    )
