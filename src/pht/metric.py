"""Positive-definite metrics from biorthonormal systems, and everything they induce.

Given a biorthonormal eigensystem ``{psi_n, phi_n}`` of a diagonalizable
Hamiltonian with real spectrum, the canonical positive metric is

    eta_plus = sum_n phi_n phi_n^dagger,

with positive square root ``rho_plus``.  ``rho_plus H rho_plus^{-1}`` is then
Hermitian, and ``rho_plus`` is a unitary map from the metric inner product to
the Euclidean one.  Conversely ``H`` is ``eta_plus``-pseudo-Hermitian exactly
when that partner is Hermitian, so :func:`hermitize` decides on the partner it
returns.  Alternating-sign variants of the same sum produce the
generalized parity and the charge-conjugation-like symmetry operator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexSpectrumError,
    DimensionMismatchError,
    NoPositiveMetricError,
    NotDiagonalizableError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotPseudoHermitianError,
    SingularWeightError,
)
from .linalg import (
    HERMITICITY_RTOL,
    WEIGHT_RCOND_LIMIT,
    BiorthonormalSystem,
    _alternating_signs,
    _norm_in_range,
    _real_if_all_real,
    _real_if_real,
    _relative_residual,
    _require_nonsingular,
    as_square_matrix,
    as_state_vector,
    biorthonormalize,
)

# Relative anti-Hermitian part of the partner rho_plus H rho_plus^{-1} above
# which a (Hamiltonian, metric) pair is rejected as not pseudo-Hermitian.
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


def build_eta_plus(system: BiorthonormalSystem) -> MetricOperator:
    """Assemble ``eta_plus = sum_n phi_n phi_n^dagger`` and its square root.

    The sum is Hermitian positive definite whenever the ``phi_n`` span, which
    a valid biorthonormal system guarantees; the square root and its inverse
    come from one spectral decomposition.  For real-valued ``phi_n`` every
    step runs in real arithmetic, and the three operators are cast back.

    Raises
    ------
    NotPositiveDefiniteError
        If roundoff (or an invalid input system) leaves ``eta_plus`` with a
        non-positive eigenvalue.
    """
    phi = _real_if_real(system.phi)
    eta = phi @ phi.conj().T
    eta += eta.conj().T
    eta *= 0.5
    w, v = np.linalg.eigh(eta)
    floor = WEIGHT_RCOND_LIMIT * max(abs(w[-1]), 1e-300)
    if w[0] <= floor:
        raise NotPositiveDefiniteError(
            f"metric eigenvalue {w[0]:.3e} is not above {floor:.3e} "
            f"({WEIGHT_RCOND_LIMIT:.0e} * largest eigenvalue)"
        )
    roots = np.sqrt(w)
    v_h = v.conj().T
    rho = (v * roots) @ v_h
    rho_inv = (v * (1.0 / roots)) @ v_h
    return MetricOperator(
        eta.astype(complex, copy=False), rho.astype(complex, copy=False), rho_inv.astype(complex, copy=False)
    )


def _positive_metric(build_system, *args) -> MetricOperator:
    """``build_eta_plus(build_system(*args))``, or :class:`NoPositiveMetricError`.

    ``build_system`` returns a biorthonormal system.  A complex spectrum, a
    near-defective eigenbasis or an indefinite ``eta_plus`` each mean that no
    positive metric exists, and each is re-raised as that one error, whose
    message ends with the wrapped one: the measured value and its threshold.
    """
    try:
        return build_eta_plus(build_system(*args))
    except (ComplexSpectrumError, NotDiagonalizableError, NotPositiveDefiniteError) as exc:
        raise NoPositiveMetricError(
            f"no positive-definite metric exists for this Hamiltonian: {exc}"
        ) from exc


def build_generalized_parity(system: BiorthonormalSystem) -> np.ndarray:
    """``P = sum_n s_n phi_n phi_n^dagger`` with signs ``+,-,+,-...``.

    Signs alternate in the system's storage order, which is descending in
    eigenvalue for systems produced by :func:`biorthonormalize`.
    """
    signs = _alternating_signs(system.dim)
    phi = _real_if_real(system.phi)
    return ((phi * signs) @ phi.conj().T).astype(complex, copy=False)


def build_charge_conjugation(system: BiorthonormalSystem) -> np.ndarray:
    """``C = sum_n s_n psi_n phi_n^dagger`` with the same alternating signs.

    Squares to the identity and commutes with the Hamiltonian the system was
    built from; equals ``eta_plus^{-1} P`` for the matching parity.
    """
    signs = _alternating_signs(system.dim)
    phi, psi = _real_if_all_real(system.phi, system.psi)
    return ((psi * signs) @ phi.conj().T).astype(complex, copy=False)


def verify_pseudo_hermiticity(hamiltonian, weight) -> float:
    """Relative residual ``||H^dagger - W H W^{-1}||_F / ||H||_F``.

    The residual does not change under ``W -> c W``, so ``W`` is used as the
    singularity gate scales it: a power of two ``2**j W`` gives the same bits
    as ``W``, and a weight near the double range no overflow.

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
    w, _ = _require_nonsingular(w, SingularWeightError, "weight operator")
    w_inv = np.linalg.inv(w)
    h = h if np.iscomplexobj(w) else _real_if_real(h)
    return _relative_residual(h, lambda m: m.conj().T - w @ m @ w_inv)


def hermitize(hamiltonian, metric: MetricOperator) -> np.ndarray:
    """Map ``H`` to its Hermitian partner ``h = rho_plus H rho_plus^{-1}``.

    The partner is accepted when ``||h - h^dagger||_F / ||h||_F`` is at most
    ``PSEUDO_HERMITICITY_TOL``.  With ``eta_plus = rho_plus^2`` and ``rho_plus``
    Hermitian,
    ``H^dagger - eta_plus H eta_plus^{-1} = rho_plus (h^dagger - h) rho_plus^{-1}``,
    so in exact arithmetic this is the pseudo-Hermiticity of ``H`` with respect
    to ``eta_plus``.  Testing the partner decides on what the caller gets, and
    it needs no inverse of ``eta_plus``, whose roundoff grows with
    ``cond(eta_plus)``.

    The partner is homogeneous of degree 1 in ``H``, so it is formed by
    :func:`map_observable` from ``H`` scaled by
    :func:`~pht.linalg._norm_in_range`, gated, and scaled back by the same
    power of two: ``2**j H`` gives ``2**j h`` bit for bit, and only a partner
    that itself leaves the double range reads ``inf``.

    Raises
    ------
    DimensionMismatchError
        If ``metric`` has another dimension than ``H`` (from
        :func:`map_observable`).
    NotPseudoHermitianError
        If the partner's residual exceeds ``PSEUDO_HERMITICITY_TOL`` or is NaN.
    """
    h, _, e = _norm_in_range(as_square_matrix(hamiltonian))
    partner = _map_observable(h, metric, "from_tilde")
    residual = _relative_residual(partner, lambda p: p - p.conj().T)
    if not residual <= PSEUDO_HERMITICITY_TOL:
        raise NotPseudoHermitianError(
            f"pseudo-Hermiticity residual {residual:.3e} exceeds {PSEUDO_HERMITICITY_TOL:.1e}"
        )
    if not e:
        return partner
    with np.errstate(over="ignore"):
        return np.ldexp(partner.view(float), e).view(complex)


def map_observable(observable, metric: MetricOperator, direction: str = "to_tilde") -> np.ndarray:
    """Conjugate an observable between the Hermitian and metric pictures.

    ``"to_tilde"`` sends a Hermitian observable ``O`` to its metric-picture
    image ``rho_plus^{-1} O rho_plus`` (self-adjoint in the ``eta_plus``
    inner product); ``"from_tilde"`` inverts the map.  The two products run
    in real arithmetic when all three factors are real-valued.
    """
    return _map_observable(as_square_matrix(observable), metric, direction)


def _map_observable(o: np.ndarray, metric: MetricOperator, direction: str) -> np.ndarray:
    """:func:`map_observable` of an observable that :func:`~pht.linalg.as_square_matrix` has validated."""
    if o.shape[0] != metric.dim:
        raise DimensionMismatchError(f"observable dim {o.shape[0]} != metric dim {metric.dim}")
    if direction == "to_tilde":
        left, right = metric.rho_plus_inv, metric.rho_plus
    elif direction == "from_tilde":
        left, right = metric.rho_plus, metric.rho_plus_inv
    else:
        raise ValueError(f"unknown direction {direction!r}")
    o, left, right = _real_if_all_real(o, left, right)
    return (left @ o @ right).astype(complex, copy=False)


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
        if not _relative_residual(w, lambda a: a - a.conj().T) <= HERMITICITY_RTOL:
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


def metric_from_hamiltonian(hamiltonian, *, normalization: str = "unit") -> MetricOperator:
    """Build the metric of ``biorthonormalize(hamiltonian)``, which also takes a ``SpectralData``."""
    return build_eta_plus(biorthonormalize(hamiltonian, normalization=normalization))
