"""Schroedinger evolution ``psi(t) = exp(-i H (t - t0)) psi(t0)`` and norm tracking.

Units put hbar = 1.  For a quasi-Hermitian ``H`` the metric norm
``sqrt(<psi, eta_plus psi>)`` is a constant of motion even though the
Euclidean norm generally is not; in the spontaneously broken regime the
Euclidean norm grows like ``exp(|Im E| t)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexSpectrumError,
    NoPositiveMetricError,
    NotDiagonalizableError,
    NotPositiveDefiniteError,
    OutOfRangeError,
)
from .linalg import (
    SpectrumClass,
    as_square_matrix,
    as_state_vector,
    eigendecompose,
    matrix_exp,
)
from .metric import InnerProductKind, inner_product, metric_from_hamiltonian


@dataclass(frozen=True)
class EvolutionSpec:
    """A Hamiltonian, an initial state, and a time window ``[t0, t1]``."""

    hamiltonian: np.ndarray
    initial_state: np.ndarray
    t0: float = 0.0
    t1: float = 1.0
    steps: int = 100

    def __post_init__(self):
        h = as_square_matrix(self.hamiltonian)
        psi = as_state_vector(self.initial_state)
        if psi.shape[0] != h.shape[0]:
            raise ValueError(f"state dim {psi.shape[0]} != hamiltonian dim {h.shape[0]}")
        if not self.t1 > self.t0:
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "initial_state", psi)


def _propagated_state(spec: EvolutionSpec):
    """Return a callable ``t -> psi(t)``.

    Diagonalizable Hamiltonians are propagated spectrally (one decomposition,
    exact exponentials per sample); near-defective ones fall back to a dense
    matrix exponential per requested time.
    """
    spectral = eigendecompose(spec.hamiltonian)
    if spectral.classification is not SpectrumClass.NEAR_DEFECTIVE:
        w = spectral.eigenvalues
        v = spectral.eigenvectors
        coeff = np.linalg.solve(v, spec.initial_state)

        def state(t: float) -> np.ndarray:
            return v @ (np.exp(-1j * w * (t - spec.t0)) * coeff)

        return state

    return lambda t: evolve(spec, t)


def evolve(spec: EvolutionSpec, time: float) -> np.ndarray:
    """State at ``time``; only times inside the configured window are allowed.

    Raises
    ------
    OutOfRangeError
        If ``time`` lies outside ``[t0, t1]``.
    """
    if time < spec.t0 or time > spec.t1:
        raise OutOfRangeError(f"time {time} outside window [{spec.t0}, {spec.t1}]")
    return matrix_exp(-1j * spec.hamiltonian * (time - spec.t0)) @ spec.initial_state


@dataclass(frozen=True)
class NormTrajectory:
    """Norms sampled on the uniform grid ``linspace(t0, t1, steps + 1)``."""

    times: np.ndarray
    norms: np.ndarray
    kind: str = "euclidean"


def norm_trajectory(spec: EvolutionSpec, kind="euclidean") -> NormTrajectory:
    """Track the state norm across the evolution window.

    Parameters
    ----------
    spec : EvolutionSpec
    kind : str or InnerProductKind
        ``"euclidean"``, ``"metric"`` (builds the positive metric from
        ``spec.hamiltonian``), or an explicit :class:`InnerProductKind`.

    Raises
    ------
    NoPositiveMetricError
        If ``"metric"`` is requested for a Hamiltonian in the broken regime
        (complex spectrum or near-defective): no positive metric exists.
    """
    if isinstance(kind, InnerProductKind):
        ip = kind
    elif kind == "euclidean":
        ip = InnerProductKind.euclidean()
    elif kind == "metric":
        try:
            metric = metric_from_hamiltonian(spec.hamiltonian)
        except (ComplexSpectrumError, NotDiagonalizableError, NotPositiveDefiniteError) as exc:
            raise NoPositiveMetricError(
                "no positive-definite metric exists for this Hamiltonian"
            ) from exc
        ip = InnerProductKind.metric_eta(metric)
    else:
        raise ValueError(f"unknown norm kind {kind!r}")

    state = _propagated_state(spec)
    times = np.linspace(spec.t0, spec.t1, spec.steps + 1)
    norms = np.empty_like(times)
    for i, t in enumerate(times):
        psi = state(t)
        norms[i] = np.sqrt(abs(inner_product(psi, psi, ip).real))
    return NormTrajectory(times, norms, ip.label)


def fit_growth_rate(trajectory: NormTrajectory, skip_fraction: float = 0.4) -> float:
    """Least-squares exponent of ``norm ~ exp(rate * t)`` over the tail.

    The first ``skip_fraction`` of the window is dropped so that a decaying
    mode has died out before the fit; the slope of ``log norm`` against ``t``
    over the remainder is returned.
    """
    if not 0.0 <= skip_fraction < 1.0:
        raise ValueError("skip_fraction must lie in [0, 1)")
    t = trajectory.times
    cut = t[0] + skip_fraction * (t[-1] - t[0])
    mask = t >= cut
    if np.count_nonzero(mask) < 2 or np.any(trajectory.norms[mask] <= 0.0):
        raise ValueError("not enough positive samples in the fit window")
    slope, _ = np.polyfit(t[mask], np.log(trajectory.norms[mask]), 1)
    return float(slope)
