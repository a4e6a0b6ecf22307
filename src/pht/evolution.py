"""Schroedinger evolution ``psi(t) = exp(-i H (t - t0)) psi(t0)`` and norm tracking.

Units put hbar = 1.  For a quasi-Hermitian ``H`` the metric norm
``sqrt(<psi, eta_plus psi>)`` is a constant of motion even though the
Euclidean norm generally is not; in the spontaneously broken regime the
Euclidean norm grows like ``exp(|Im E| t)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    OutOfRangeError,
)
from .linalg import (
    SpectralData,
    SpectrumClass,
    _biorthonormal,
    as_square_matrix,
    as_state_vector,
    eigendecompose,
    matrix_exp,
)
from .metric import InnerProductKind, _positive_metric

# Leading fraction of the time window that fit_growth_rate leaves out.
GROWTH_FIT_SKIP = 0.4
# Complex entries per propagated block of the time grid (4 MiB), which bounds
# the memory of a trajectory whatever its number of steps.
_BLOCK_ENTRIES = 2**18


@dataclass(frozen=True)
class EvolutionSpec:
    """A Hamiltonian, an initial state, and a time window ``[t0, t1]``.

    ``hamiltonian`` and ``initial_state`` are read-only copies of the
    caller's arrays, so later writes to those arrays do not reach the spec.
    The spec decomposes ``H`` once, on first use by :func:`evolve` or
    :func:`norm_trajectory`, and every later call on the same spec shares
    that decomposition.
    """

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
        if not (np.isfinite(self.t0) and np.isfinite(self.t1)):
            raise NonFiniteError(f"time window [t0, t1] = [{self.t0}, {self.t1}] is not finite")
        if not self.t1 > self.t0:
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")
        for name, array in (("hamiltonian", h), ("initial_state", psi)):
            array = array.copy()
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @cached_property
    def _spectral(self) -> SpectralData:
        """``eigendecompose(self.hamiltonian)``, computed on first use.

        Every call on the spec receives this one result, so its arrays are
        read-only as well.
        """
        spectral = eigendecompose(self.hamiltonian)
        spectral.eigenvalues.flags.writeable = False
        spectral.eigenvectors.flags.writeable = False
        return spectral


def _propagate(spec: EvolutionSpec, times: np.ndarray, spectral: SpectralData):
    """Yield the states ``psi(t)`` for ``times`` as consecutive ``(d, k)`` blocks.

    Column ``j`` of the blocks, taken in order, is ``psi(times[j])``.  Each
    block holds at most ``_BLOCK_ENTRIES`` complex entries, so memory grows
    with the block and not with the number of samples.  ``spectral`` is the
    caller's decomposition of ``spec.hamiltonian``.  A diagonalizable
    ``H = V diag(w) V^{-1}`` is propagated for all times as
    ``V exp(-i w (t - t0)) V^{-1} psi0``, exact up to ``cond(V) eps``;
    a near-defective one falls back to a dense matrix exponential per time.

    Raises
    ------
    NonFiniteError
        If a propagated state has a NaN or infinite entry: a non-finite
        time, or growth past double precision in the broken regime.
    """
    h, psi0 = spec.hamiltonian, spec.initial_state
    spectral_path = spectral.classification is not SpectrumClass.NEAR_DEFECTIVE
    if spectral_path:
        coeff = np.linalg.solve(spectral.eigenvectors, psi0)[:, None]
    # A power-of-two width keeps every block start on the column unrolling of
    # the BLAS product, so blocks round as one block would; only a one-column
    # tail, which numpy hands to gemv, may differ in the last bit.
    width = 1 << max(0, (_BLOCK_ENTRIES // psi0.shape[0]).bit_length() - 1)
    for start in range(0, times.shape[0], width):
        block = times[start:start + width]
        # The finiteness check below names the bad time; numpy's own overflow
        # warnings would only precede it on stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            if spectral_path:
                phases = np.exp(-1j * np.outer(spectral.eigenvalues, block - spec.t0))
                states = spectral.eigenvectors @ (phases * coeff)
            else:
                states = np.stack([matrix_exp(-1j * h * (t - spec.t0)) @ psi0 for t in block], axis=1)
        finite = np.isfinite(states).all(axis=0)
        if not finite.all():
            raise NonFiniteError(f"propagated state is not finite at t = {block[np.argmin(finite)]}")
        yield states


def evolve(spec: EvolutionSpec, time: float) -> np.ndarray:
    """State at ``time``; only times inside the configured window are allowed.

    Propagates from the spec's one decomposition of its read-only ``H``,
    made on first use and shared by every call on the same spec.

    Raises
    ------
    OutOfRangeError
        If ``time`` lies outside ``[t0, t1]``.
    NonFiniteError
        If ``time`` is NaN or the state overflows double precision.
    """
    if time < spec.t0 or time > spec.t1:
        raise OutOfRangeError(f"time {time} outside window [{spec.t0}, {spec.t1}]")
    times = np.array([time], dtype=float)
    return next(_propagate(spec, times, spec._spectral))[:, 0]


@dataclass(frozen=True)
class NormTrajectory:
    """Norms sampled on the uniform grid ``linspace(t0, t1, steps + 1)``."""

    times: np.ndarray
    norms: np.ndarray
    kind: str = "euclidean"


def norm_trajectory(spec: EvolutionSpec, kind="euclidean") -> NormTrajectory:
    """Track the state norm across the evolution window.

    The metric (for ``"metric"``) and the propagation come from the spec's
    one decomposition of its read-only ``H``, made on first use and shared
    with :func:`evolve` and every other call on the same spec; an unknown
    ``kind`` is refused before it is made.

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
    d = spec.initial_state.shape[0]
    if kind == "euclidean":
        ip = InnerProductKind.euclidean()
    elif kind == "metric":
        metric = _positive_metric(_biorthonormal, spec.hamiltonian, spec._spectral, "unit")
        ip = InnerProductKind.metric_eta(metric)
    elif not isinstance(kind, InnerProductKind):
        raise ValueError(f"unknown norm kind {kind!r}")
    elif kind.weight is not None and kind.weight.shape[0] != d:
        raise DimensionMismatchError(f"weight dim {kind.weight.shape[0]} != state dim {d}")
    else:
        ip = kind
    return _norm_trajectory(spec, ip, spec._spectral)


def _norm_trajectory(spec: EvolutionSpec, ip: InnerProductKind, spectral: SpectralData) -> NormTrajectory:
    """:func:`norm_trajectory` under ``ip``, propagated from the caller's ``spectral``.

    ``spectral`` must decompose ``spec.hamiltonian``; its reality tolerance
    does not matter, because only the near-defective verdict picks the
    propagator.  ``ip.weight``, if any, must have the state's dimension.
    """
    times = np.linspace(spec.t0, spec.t1, spec.steps + 1)
    norms = []
    for psi in _propagate(spec, times, spectral):
        weighted = psi if ip.weight is None else ip.weight @ psi
        norms.append(np.sqrt(np.abs(np.einsum("ij,ij->j", psi.conj(), weighted).real)))
    return NormTrajectory(times, np.concatenate(norms), ip.label)


def fit_growth_rate(trajectory: NormTrajectory) -> float:
    """Least-squares exponent of ``norm ~ exp(rate * t)`` over the tail.

    The first ``GROWTH_FIT_SKIP`` of the window is dropped so that a decaying
    mode has died out before the fit; the slope of ``log norm`` against ``t``
    over the remainder is returned.
    """
    t = trajectory.times
    cut = t[0] + GROWTH_FIT_SKIP * (t[-1] - t[0])
    mask = t >= cut
    if np.count_nonzero(mask) < 2 or np.any(trajectory.norms[mask] <= 0.0):
        raise ValueError("not enough positive samples in the fit window")
    slope, _ = np.polyfit(t[mask], np.log(trajectory.norms[mask]), 1)
    return float(slope)
