"""Schroedinger evolution ``psi(t) = exp(-i H (t - t0)) psi(t0)`` and norm tracking.

Units put hbar = 1.  For a quasi-Hermitian ``H`` the metric norm
``sqrt(<psi, eta_plus psi>)`` is a constant of motion even though the
Euclidean norm generally is not; in the spontaneously broken regime the
Euclidean norm grows like ``exp(|Im E| t)``.

Everything works in eigen-coordinates: for a diagonalizable
``H = V diag(w) V^{-1}`` the state is ``V a(t)`` with coefficients
``a(t) = exp(-i w (t - t0)) * c``, and ``c = V^{-1} psi0`` is formed once per
spec, one matrix-vector product with the decomposition's own inverse.
:func:`evolve` forms one such state with one exponential per eigenvalue and
one matrix-vector product.  On a trajectory's grid the phases
are evaluated at ``t0 + k dt``, within an ulp or so of ``times[k]``, as
products of two exponentials of the grid (one per block of about
``sqrt(steps)`` samples, one per offset inside it).  A trajectory forms each
state ``V a`` and its weighted partner ``(W V) a``, with ``W V`` formed once
per call, and reduces the pair to the squared norm ``Re psi^H W psi``; a
Gram form ``a^H (V^H W V) a`` would save the first product but square
``cond(V)`` in the rounding error of every norm.  A real ``V`` (a real ``H``
with a real spectrum), with a real ``W``, multiplies each block of complex
coefficients as its interleaved real and imaginary parts, in one real
product per factor.  A sample whose squared norm
could leave the double range has its coefficients scaled by a power of two
first, so its norm is returned as long as the state and the norm are finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    OutOfRangeError,
)
from .linalg import (
    _PLAIN_NORM_RANGE,
    SpectralData,
    SpectrumClass,
    _all_finite,
    _real_if_all_real,
    _real_if_real,
    as_square_matrix,
    as_state_vector,
    biorthonormalize,
    eigendecompose,
    matrix_exp,
)
from .metric import InnerProductKind, _positive_metric

# Leading fraction of the time window that fit_growth_rate leaves out.
GROWTH_FIT_SKIP = 0.4
# Complex entries per propagated block of the time grid (128 KiB), which bounds
# the memory of a trajectory whatever its number of steps, and keeps a block's
# arrays small enough to be reused from call to call without new pages.
_BLOCK_ENTRIES = 2**13


@dataclass(frozen=True)
class EvolutionSpec:
    """A Hamiltonian, an initial state, and a time window ``[t0, t1]``.

    ``hamiltonian`` and ``initial_state`` are read-only copies of the
    caller's arrays, so later writes to those arrays do not reach the spec.
    The spec decomposes ``H`` once, on first use by :func:`evolve` or
    :func:`norm_trajectory`, and every later call on the same spec shares
    that decomposition and its one product for the coefficients of the
    initial state.  Given an :func:`~pht.linalg.eigendecompose` record
    as ``hamiltonian``, the spec holds the record's matrix and uses the
    record as its decomposition, whose ``reality_rtol`` then decides the
    ``"metric"`` norm.
    """

    hamiltonian: np.ndarray
    initial_state: np.ndarray
    t0: float = 0.0
    t1: float = 1.0
    steps: int = 100

    def __post_init__(self):
        if isinstance(self.hamiltonian, SpectralData):
            # the record stands in for its matrix and seeds the cached decomposition
            object.__setattr__(self, "_spectral", self.hamiltonian)
            object.__setattr__(self, "hamiltonian", self.hamiltonian.matrix)
        h = as_square_matrix(self.hamiltonian)
        psi = as_state_vector(self.initial_state)
        if psi.shape[0] != h.shape[0]:
            raise ValueError(f"state dim {psi.shape[0]} != hamiltonian dim {h.shape[0]}")
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise NonFiniteError(f"time window [t0, t1] = [{self.t0}, {self.t1}] is not finite")
        if not self.t1 > self.t0:
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        steps = self.steps
        if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
        for name, array in (("hamiltonian", h), ("initial_state", psi)):
            array = array.copy()
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @cached_property
    def _spectral(self) -> SpectralData:
        """``eigendecompose(self.hamiltonian)``, computed on first use."""
        return eigendecompose(self.hamiltonian)

    @cached_property
    def _coefficients(self) -> np.ndarray:
        """``c = V^{-1} psi0`` in the eigenbasis ``V`` of ``_spectral``, formed on first use."""
        return self._spectral.eigenvectors_inv @ self.initial_state


def _propagate(spec: EvolutionSpec, step: float, n: int):
    """``(basis, blocks)`` with ``psi(t0 + k step) = basis @ a_k`` for ``0 <= k < n``.

    ``blocks`` yields the coefficients ``a_k`` in order, as the columns of
    consecutive ``(d, m)`` blocks.  Each block holds at most ``_BLOCK_ENTRIES``
    complex entries, so memory grows with the block and not with ``n``.

    A diagonalizable ``H = V diag(w) V^{-1}`` has basis ``V`` and
    ``a_k = exp(-i w k step) * c`` with the spec's ``c = V^{-1} psi0``, exact
    up to ``cond(V) eps``.  Its phases come from two levels of the grid: with
    ``k = q b + r`` and ``b`` the least power of two with ``b**2 >= n``, capped
    at the block width, ``exp(-i w k step) = exp(-i w q b step) exp(-i w r step)``, about
    ``d (n / b + b)`` exponentials and one product per entry instead of
    ``d n`` exponentials.  ``q`` and ``r`` index the whole grid and a block is
    whole rows ``q``, so a block's entries do not depend on where blocks
    start.  A near-defective ``H`` has basis ``1`` and falls back to a dense
    matrix exponential per sample.

    Nothing is checked here: a non-finite ``step``, or growth past double
    precision in the broken regime, gives NaN or infinite coefficients, and
    the caller, under ``np.errstate``, names the time of the first one.
    """
    h, psi0, spectral = spec.hamiltonian, spec.initial_state, spec._spectral
    d = psi0.shape[0]
    # A power-of-two width keeps every block start on the column unrolling of
    # the BLAS products, so blocks round as one block would; only a one-column
    # tail, which numpy hands to gemv, may differ in the last bit.
    width = 1 << max(0, (_BLOCK_ENTRIES // d).bit_length() - 1)
    if spectral.classification is SpectrumClass.NEAR_DEFECTIVE:
        def dense():
            for start in range(0, n, width):
                ks = range(start, min(n, start + width))
                yield np.stack([matrix_exp(-1j * h * (k * step)) @ psi0 for k in ks], axis=1)

        return np.eye(d, dtype=complex), dense()
    rates = (-1j * spectral.eigenvalues)[:, None]
    b = min(1 << math.isqrt(n - 1).bit_length(), width)
    fine = np.exp(rates * (np.arange(b) * step))
    fine *= spec._coefficients[:, None]

    def spectral_blocks():
        for start in range(0, n, width):
            coarse = np.exp(rates * (np.arange(start, min(n, start + width), b) * step))
            yield (coarse[:, :, None] * fine[:, None, :]).reshape(d, -1)[:, :n - start]

    return spectral.eigenvectors, spectral_blocks()


def _parts_product(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``m @ a`` for complex ``a``, as its real and imaginary parts interleaved in a float array.

    A real ``m`` multiplies the interleaved parts of ``a`` in one real product,
    which does a quarter of the flops of the complex one.
    """
    return m @ a.view(float) if m.dtype.kind == "f" else (m @ a).view(float)


def _state_norms(basis: np.ndarray, weighted: np.ndarray | None, a: np.ndarray, out: np.ndarray) -> bool:
    """Write to ``out`` the norms of the states ``psi_k = basis @ a_k``, one per column of ``a``.

    Returns whether every norm is finite.  ``out[k]`` is
    ``sqrt(|Re psi_k^H W psi_k|)`` with ``W psi_k`` taken as ``weighted @ a_k``,
    where ``weighted`` is ``W @ basis`` (``None`` for the Euclidean norm).
    Both products are :func:`_parts_product`'s, in real arithmetic when
    ``basis`` (and ``weighted``) are real.

    A column whose square leaves the square of ``_norm_in_range``'s plain range
    (or is not finite) is scaled as that rule scales an operand, by the power
    of two that brings the largest real or imaginary part of its state into
    ``[0.5, 1)``, before its states are formed again, and its norm is scaled
    back.  Every other column is scaled by ``2**0``, which moves no bit, and
    the whole block goes through the same products again, so blocking still
    moves no bit.  A norm beyond the double range reads ``inf``.

    A norm is finite only where its state is, so a test of the norms alone
    catches every non-finite state: a non-finite entry of ``psi_k`` makes its
    sum of products non-finite (``inf * 0`` is NaN, and no float sum turns inf
    or NaN into a finite value), and ``np.frexp`` gives such a column the
    exponent 0, so the rescaling leaves it as it is.  A block whose squares
    are all in range is finite, and is not tested again.
    """

    def states_and_squares(a):
        psi = _parts_product(basis, a)
        w_psi = psi if weighted is None else _parts_product(weighted, a)
        # Re(psi^H W psi) as the sum of real-part and imaginary-part products
        products = np.einsum("ij,ij->j", psi, w_psi)
        return psi, np.abs(products[0::2] + products[1::2])

    psi, plain = states_and_squares(a)
    lo, hi = _PLAIN_NORM_RANGE
    # one minimum and one maximum clear the common block, every column in range
    if lo * lo < plain.min() and plain.max() < hi * hi:
        np.sqrt(plain, out=out)
        return True
    outside = ~((lo * lo < plain) & (plain < hi * hi))
    peaks = np.abs(psi).reshape(a.shape[0], -1, 2).max(axis=(0, 2))
    e = np.where(outside, np.frexp(peaks)[1], 0)
    parts = a.view(float).reshape(a.shape[0], -1, 2)
    scaled = np.ldexp(parts, -e[:, None]).view(complex)[..., 0]
    out[:] = np.ldexp(np.sqrt(states_and_squares(scaled)[1]), e)
    return _all_finite(out)


def evolve(spec: EvolutionSpec, time: float) -> np.ndarray:
    """State at ``time``; only times inside the configured window are allowed.

    Propagates from the spec's one decomposition of its read-only ``H`` and
    its one product for ``c = V^{-1} psi0``, made on first use and shared by
    every call on the same spec: the state is ``V (exp(-i w (time - t0)) * c)``,
    one exponential per eigenvalue and one matrix-vector product, bit for bit
    the complex ``V`` times sample 1 of the coefficients of the trajectory grid
    ``t0 + k (time - t0)``.  (A trajectory of a real ``V`` forms its states in
    real arithmetic, which rounds within ``d eps cond(V)`` of that product.)
    A near-defective ``H`` takes one dense matrix exponential instead.

    Raises
    ------
    OutOfRangeError
        If ``time`` lies outside ``[t0, t1]``.
    NonFiniteError
        If ``time`` is NaN or the state overflows double precision.
    """
    if time < spec.t0 or time > spec.t1:
        raise OutOfRangeError(f"time {time} outside window [{spec.t0}, {spec.t1}]")
    spectral = spec._spectral
    with np.errstate(over="ignore", invalid="ignore"):
        if spectral.classification is SpectrumClass.NEAR_DEFECTIVE:
            state = matrix_exp(-1j * spec.hamiltonian * (time - spec.t0)) @ spec.initial_state
        else:
            phases = np.exp(-1j * spectral.eigenvalues * (time - spec.t0))
            state = spectral.eigenvectors @ (phases * spec._coefficients)
    if not _all_finite(state):
        raise NonFiniteError(f"propagated state is not finite at t = {time}")
    return state


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
    ``kind`` is refused before it is made.  Sample ``k`` is propagated to
    ``t0 + k (t1 - t0) / steps``, which differs from ``times[k]`` by rounding,
    and a weight ``W`` enters once, as ``W`` times the propagator's basis.

    Parameters
    ----------
    spec : EvolutionSpec
    kind : str or InnerProductKind
        ``"euclidean"``, ``"metric"`` (builds the positive metric from the
        spec's decomposition), or an explicit :class:`InnerProductKind`.

    Raises
    ------
    NonFiniteError
        At the first time whose state, or its norm, is not finite.
    NoPositiveMetricError
        If ``"metric"`` is requested for a Hamiltonian in the broken regime
        (complex spectrum or near-defective): no positive metric exists.
    """
    d = spec.initial_state.shape[0]
    if kind == "euclidean":
        ip = InnerProductKind.euclidean()
    elif kind == "metric":
        ip = InnerProductKind.metric_eta(_positive_metric(biorthonormalize, spec._spectral))
    elif not isinstance(kind, InnerProductKind):
        raise ValueError(f"unknown norm kind {kind!r}")
    elif kind.weight is not None and kind.weight.shape[0] != d:
        raise DimensionMismatchError(f"weight dim {kind.weight.shape[0]} != state dim {d}")
    else:
        ip = kind
    times = np.linspace(spec.t0, spec.t1, spec.steps + 1)
    norms = np.empty_like(times)
    start = 0
    # The finiteness check below names the bad time; numpy's own overflow
    # warnings would only precede it on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        basis, blocks = _propagate(spec, (spec.t1 - spec.t0) / spec.steps, times.shape[0])
        # a real basis (and weight) multiplies the blocks' interleaved parts in real arithmetic
        if ip.weight is None:
            basis, weighted = _real_if_real(basis), None
        else:
            weight, basis = _real_if_all_real(ip.weight, basis)
            weighted = weight @ basis
        for a in blocks:
            block = norms[start:start + a.shape[1]]
            if not _state_norms(basis, weighted, a, block):
                bad = times[start + np.argmin(np.isfinite(block))]
                raise NonFiniteError(f"propagated state is not finite at t = {bad}")
            start += a.shape[1]
    return NormTrajectory(times, norms, ip.label)


def fit_growth_rate(trajectory: NormTrajectory) -> float:
    """Least-squares exponent of ``norm ~ exp(rate * t)`` over the tail.

    The first ``GROWTH_FIT_SKIP`` of the window is dropped so that a decaying
    mode has died out before the fit; the slope of ``log norm`` against ``t``
    over the remainder is returned.
    """
    t = trajectory.times
    cut = t[0] + GROWTH_FIT_SKIP * (t[-1] - t[0])
    mask = t >= cut
    t, y = t[mask], trajectory.norms[mask]
    if t.size < 2 or (y <= 0.0).any():
        raise ValueError("not enough positive samples in the fit window")
    # the centred least-squares slope sum (t - mean t)(y - mean y) / sum (t - mean t)^2,
    # each mean a sum over the count, as np.mean forms it
    y = np.log(y)
    t = t - t.sum() / t.size
    return float(t @ (y - y.sum() / y.size) / (t @ t))
