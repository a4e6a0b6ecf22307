"""Propagation, norm trajectories, and growth-rate fitting."""
import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest


from pht import evolution
from pht.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NoPositiveMetricError,
    OutOfRangeError,
)
from pht.evolution import (
    EvolutionSpec,
    NormTrajectory,
    evolve,
    fit_growth_rate,
    norm_trajectory,
)
from pht.families import SymmetricFamilyParams, symmetric_hamiltonian, symmetric_operators
from pht.linalg import SIGMA1, SIGMA3, eigendecompose, matrix_exp
from pht.metric import (
    InnerProductKind,
    MetricOperator,
    inner_product,
    metric_from_hamiltonian,
)

ATOL = 1e-12
SQRT3 = 1.7320508075688772
# sqrt of the metric's top-left entry at (0, 1, 2, 0): conserved norm of e_1
FAMILY_METRIC_NORM = 1.074569931823542

FAMILY_POINT = SymmetricFamilyParams(0.0, 1.0, 2.0, 0.0)
BROKEN_POINT = SymmetricFamilyParams(0.0, 2.0, 1.0, 0.0)


def test_spec_validation():
    h = np.eye(2)
    with pytest.raises(ValueError):
        EvolutionSpec(h, np.ones(3))
    with pytest.raises(ValueError):
        EvolutionSpec(h, np.ones(2), t0=1.0, t1=1.0)
    for steps in (0, 2.5, np.float64(3.0), True):
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            EvolutionSpec(h, np.ones(2), steps=steps)
    spec = EvolutionSpec(h, [1, 0])
    assert spec.initial_state.dtype == complex


def test_evolve_matches_rotation_oracle():
    # exp(-i sigma_1 t) = cos(t) 1 - i sin(t) sigma_1
    psi0 = np.array([1.0, 0.0], dtype=complex)
    spec = EvolutionSpec(SIGMA1, psi0, t0=0.0, t1=3.0)
    for t in (0.0, 0.4, 1.7, 3.0):
        expected = np.cos(t) * psi0 - 1j * np.sin(t) * (SIGMA1 @ psi0)
        npt.assert_allclose(evolve(spec, t), expected, atol=ATOL)


def test_evolve_respects_window():
    spec = EvolutionSpec(np.eye(2), np.ones(2), t0=0.0, t1=1.0)
    with pytest.raises(OutOfRangeError):
        evolve(spec, 1.0 + 1e-9)
    with pytest.raises(OutOfRangeError):
        evolve(spec, -0.1)


def test_evolution_composes():
    rng = np.random.default_rng(83)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    spec = EvolutionSpec(h, psi0, t0=0.0, t1=2.0)
    midway = evolve(spec, 0.8)
    resumed = EvolutionSpec(h, midway, t0=0.8, t1=2.0)
    npt.assert_allclose(evolve(resumed, 2.0), evolve(spec, 2.0), atol=1e-10)


def test_trajectory_grid_and_spectral_path():
    spec = EvolutionSpec(SIGMA1, np.array([1.0, 0.0]), t0=0.5, t1=2.5, steps=4)
    traj = norm_trajectory(spec)
    npt.assert_allclose(traj.times, np.linspace(0.5, 2.5, 5), atol=0)
    assert traj.kind == "euclidean"
    # Hermitian evolution keeps the Euclidean norm at 1
    npt.assert_allclose(traj.norms, np.ones(5), atol=ATOL)


def test_metric_norm_is_conserved_euclidean_is_not(eig_calls):
    h = symmetric_hamiltonian(FAMILY_POINT)
    psi0 = np.array([0.3 + 0.1j, -0.8])
    spec = EvolutionSpec(h, psi0, t0=0.0, t1=10.0, steps=400)
    metric_traj = norm_trajectory(spec, kind="metric")
    assert metric_traj.kind == "metric-eta"
    # one decomposition builds the metric and propagates, bit for bit as two would
    assert len(eig_calls) == 1
    explicit = norm_trajectory(spec, kind=InnerProductKind.metric_eta(metric_from_hamiltonian(h)))
    assert np.array_equal(metric_traj.norms, explicit.norms)
    drift = metric_traj.norms.max() / metric_traj.norms.min() - 1.0
    assert drift < 1e-10
    euclid = norm_trajectory(spec, kind="euclidean")
    assert euclid.norms.max() / euclid.norms.min() - 1.0 > 1e-2


def test_metric_norm_value_with_closed_form_weight():
    # with the closed-form metric, the conserved value for e_1 is sqrt(eta_11)
    ops = symmetric_operators(FAMILY_POINT)
    metric = MetricOperator(ops.eta_plus, ops.rho_plus, np.linalg.inv(ops.rho_plus))
    h = symmetric_hamiltonian(FAMILY_POINT)
    spec = EvolutionSpec(h, np.array([1.0, 0.0]), t0=0.0, t1=5.0, steps=50)
    traj = norm_trajectory(spec, kind=InnerProductKind.metric_eta(metric))
    npt.assert_allclose(traj.norms, FAMILY_METRIC_NORM, atol=1e-12)


def test_hermitian_and_metric_pictures_agree():
    # Euclidean norm of the rho-mapped h-evolution equals the metric norm of
    # the H-evolution at every sample
    rng = np.random.default_rng(89)
    h = symmetric_hamiltonian(FAMILY_POINT)
    metric = metric_from_hamiltonian(h)
    from pht.metric import hermitize

    partner = hermitize(h, metric)
    psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    spec_h = EvolutionSpec(h, psi0, t0=0.0, t1=8.0, steps=200)
    spec_p = EvolutionSpec(partner, metric.rho_plus @ psi0, t0=0.0, t1=8.0, steps=200)
    metric_traj = norm_trajectory(spec_h, kind=InnerProductKind.metric_eta(metric))
    euclid_traj = norm_trajectory(spec_p, kind="euclidean")
    npt.assert_allclose(metric_traj.norms, euclid_traj.norms, atol=1e-10)


def test_metric_kind_rejects_broken_hamiltonian():
    h = symmetric_hamiltonian(BROKEN_POINT)
    spec = EvolutionSpec(h, np.array([1.0, 0.0]))
    with pytest.raises(NoPositiveMetricError):
        norm_trajectory(spec, kind="metric")


def test_unknown_kind_rejected(eig_calls):
    spec = EvolutionSpec(np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        norm_trajectory(spec, kind="manhattan")
    assert eig_calls == []


SPEC_CALLS = [
    *(partial(evolve, time=t) for t in (0.0, 1.3, 4.0)),
    lambda spec: norm_trajectory(spec, "euclidean").norms,
    lambda spec: norm_trajectory(spec, "metric").norms,
]


def test_one_spec_decomposes_h_once(eig_calls):
    h = symmetric_hamiltonian(FAMILY_POINT)
    psi0 = np.array([0.3 + 0.1j, -0.8])
    spec = EvolutionSpec(h, psi0, t0=0.0, t1=4.0, steps=40)
    shared = [call(spec) for call in SPEC_CALLS]
    assert len(eig_calls) == 1
    # the same call as the first on a fresh spec gets the same bits
    for call, got in zip(SPEC_CALLS, shared):
        assert np.array_equal(call(EvolutionSpec(h, psi0, t0=0.0, t1=4.0, steps=40)), got)
    assert len(eig_calls) == 1 + len(SPEC_CALLS)


def test_one_spec_takes_its_coefficients_from_the_decomposition_without_a_solve(monkeypatch):
    calls = []
    for name in ("solve", "inv"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    h = symmetric_hamiltonian(FAMILY_POINT)
    spec = EvolutionSpec(h, np.array([0.3 + 0.1j, -0.8]), t0=0.0, t1=4.0, steps=40)
    for call in SPEC_CALLS:
        call(spec)
    # the one inverse is the decomposition's, which c = V^-1 psi0 reuses
    assert calls == ["inv"]


def test_refused_metric_still_shares_the_decomposition(eig_calls):
    spec = EvolutionSpec(symmetric_hamiltonian(BROKEN_POINT), np.array([1.0, 0.0]), t1=2.0, steps=20)
    with pytest.raises(NoPositiveMetricError):
        norm_trajectory(spec, kind="metric")
    norm_trajectory(spec, kind="euclidean")
    evolve(spec, 1.0)
    assert len(eig_calls) == 1


@pytest.mark.parametrize("kind", ["euclidean", "metric"])
def test_spec_takes_the_decomposition_of_its_hamiltonian(eig_calls, kind):
    h = symmetric_hamiltonian(FAMILY_POINT)
    psi0 = np.array([0.3 + 0.1j, -0.8])
    spec = EvolutionSpec(eigendecompose(h), psi0, t0=0.0, t1=4.0, steps=40)
    got = [norm_trajectory(spec, kind).norms, evolve(spec, 1.3)]
    assert len(eig_calls) == 1
    assert np.array_equal(spec.hamiltonian, h)
    plain = EvolutionSpec(h, psi0, t0=0.0, t1=4.0, steps=40)
    assert np.array_equal(norm_trajectory(plain, kind).norms, got[0])
    assert np.array_equal(evolve(plain, 1.3), got[1])


def test_metric_norm_decides_against_the_tolerance_of_the_spec_record():
    h = np.diag([1.0, 2.0 + 5e-9j])  # |Im w| = 5e-9 exceeds the default bound 3e-9
    psi0 = np.array([0.6, 0.8])
    with pytest.raises(NoPositiveMetricError):
        norm_trajectory(EvolutionSpec(h, psi0), kind="metric")
    traj = norm_trajectory(EvolutionSpec(eigendecompose(h, reality_rtol=1e-6), psi0), kind="metric")
    npt.assert_allclose(traj.norms, np.hypot(0.6, 0.8 * np.exp(5e-9 * traj.times)), rtol=1e-15)


def test_spec_holds_read_only_copies():
    h = symmetric_hamiltonian(FAMILY_POINT)
    psi0 = np.array([0.3 + 0.1j, -0.8])
    assert h.dtype == psi0.dtype == complex  # the dtypes a spec could alias
    pristine = [evolve(EvolutionSpec(h.copy(), psi0.copy(), t0=0.0, t1=2.0), t) for t in (1.0, 2.0)]
    spec = EvolutionSpec(h, psi0, t0=0.0, t1=2.0)
    with pytest.raises(ValueError):
        spec.hamiltonian[0, 0] = 5.0
    with pytest.raises(ValueError):
        spec.initial_state[0] = 5.0
    # writes to the caller's arrays, before and after the spec decomposes H,
    # reach neither the spec nor its decomposition
    h[0, 1] = 7.0
    psi0[1] = 7.0
    assert np.array_equal(evolve(spec, 1.0), pristine[0])
    h[1, 0] = 7.0
    assert np.array_equal(evolve(spec, 2.0), pristine[1])
    # every call receives the one decomposition, so it is read-only too
    with pytest.raises(ValueError):
        spec._spectral.eigenvectors[0, 0] = 5.0


def test_near_defective_falls_back_to_dense_exponential(monkeypatch):
    # nilpotent Jordan block: exp(-iHt) = 1 - iHt exactly, so the Euclidean
    # norm of (0, 1) evolves as sqrt(1 + t^2)
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    spec = EvolutionSpec(h, np.array([0.0, 1.0]), t0=0.0, t1=3.0, steps=30)
    traj = norm_trajectory(spec)
    npt.assert_allclose(traj.norms, np.sqrt(1.0 + traj.times**2), atol=1e-12)
    # evolve() takes one dense exponential, of its own time alone
    calls = []
    monkeypatch.setattr(evolution, "matrix_exp", lambda m: calls.append(m) or matrix_exp(m))
    for t in (0.0, 1.5, 3.0):
        npt.assert_allclose(evolve(spec, t), [-1j * t, 1.0], atol=1e-12)
    assert len(calls) == 3


def test_near_defective_evolve_takes_one_dense_exponential(monkeypatch):
    # a 3x3 Jordan block at 0.3: exp(-iHt) = e^(-0.3it) (1 - iNt - N^2 t^2 / 2)
    h = 0.3 * np.eye(3) + np.eye(3, k=1)
    spec = EvolutionSpec(h, np.array([0.0, 0.0, 1.0]), t0=0.5, t1=3.0)
    calls = []
    monkeypatch.setattr(evolution, "matrix_exp", lambda m: calls.append(m) or matrix_exp(m))
    for t in (0.5, 1.25, 3.0):
        s = t - 0.5
        expected = np.exp(-0.3j * s) * np.array([-0.5 * s * s, -1j * s, 1.0])
        npt.assert_allclose(evolve(spec, t), expected, rtol=0, atol=1e-12)
        assert len(calls) == 1
        calls.clear()


@pytest.mark.parametrize("real_h", [True, False], ids=["real-h", "complex-h"])
def test_evolve_is_bit_identical_to_sample_one_of_the_grid(real_h):
    # evolve(spec, t) is sample 1 of the two-sample trajectory grid {t0, t},
    # with exp(0) = 1 in place of its first phase
    rng = np.random.default_rng(113)
    for d in (2, 3, 5, 8, 16):
        for _ in range(10):
            s = rng.normal(size=(d, d)) + (0 if real_h else 1j) * rng.normal(size=(d, d)) + 2.0 * np.eye(d)
            w = rng.normal(size=d) + (0 if real_h else 1j) * rng.normal(size=d)
            h = s @ np.diag(w) @ np.linalg.inv(s)
            if real_h:
                h = h.real
            spec = EvolutionSpec(h, rng.normal(size=d) + 1j * rng.normal(size=d), t0=-0.5, t1=2.0)
            t = float(rng.uniform(-0.5, 2.0))
            basis, blocks = evolution._propagate(spec, t - spec.t0, 2)
            assert np.array_equal(evolve(spec, t), basis @ next(blocks)[:, 1]), (d, t)


def test_fit_growth_rate_exact_exponential():
    times = np.linspace(0.0, 4.0, 200)
    traj = NormTrajectory(times, np.exp(0.7 * times), kind="euclidean")
    assert fit_growth_rate(traj) == pytest.approx(0.7, abs=1e-12)


def test_fit_growth_rate_broken_family():
    h = symmetric_hamiltonian(BROKEN_POINT)
    spec = EvolutionSpec(h, np.array([1.0, 0.0]), t0=0.0, t1=6.0, steps=600)
    rate = fit_growth_rate(norm_trajectory(spec))
    # dominant eigenvalue is i*sqrt(3); the tail fit recovers |Im E|
    assert rate == pytest.approx(SQRT3, rel=1e-3)


def test_fit_growth_rate_validation():
    bad = NormTrajectory(np.linspace(0, 1, 10), np.zeros(10))
    with pytest.raises(ValueError):
        fit_growth_rate(bad)
    # one sample in the fit window, the last of three
    with pytest.raises(ValueError, match="not enough positive samples"):
        fit_growth_rate(NormTrajectory(np.array([0.0, 0.1, 1.0]), np.ones(3)))


def test_fit_growth_rate_matches_polyfit_on_noisy_exponentials():
    rng = np.random.default_rng(127)
    for _ in range(50):
        n = int(rng.integers(3, 3000))
        t0 = rng.uniform(-100.0, 100.0)
        times = np.linspace(t0, t0 + rng.uniform(0.1, 50.0), n)
        rate = rng.uniform(-3.0, 3.0)
        norms = rng.uniform(0.1, 10.0) * np.exp(rate * times + 0.05 * rng.normal(size=n))
        tail = times >= times[0] + evolution.GROWTH_FIT_SKIP * (times[-1] - times[0])
        expected = np.polyfit(times[tail], np.log(norms[tail]), 1)[0]
        got = fit_growth_rate(NormTrajectory(times, norms))
        assert got == pytest.approx(expected, rel=1e-12, abs=0)


def _diagonalizable(rng, d, real_spectrum=True):
    s = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) + 2.0 * np.eye(d)
    w = rng.normal(size=d)
    if not real_spectrum:
        w = w + 1j * rng.normal(size=d)
    return s @ np.diag(w) @ np.linalg.inv(s)


def _loop_norms(spec, ip, indices=slice(None)):
    """Reference: one spectral propagation and one ``inner_product`` per sample.

    ``indices`` picks the samples of the grid ``linspace(t0, t1, steps + 1)``.
    """
    spectral = eigendecompose(spec.hamiltonian)
    coeff = np.linalg.solve(spectral.eigenvectors, spec.initial_state)
    times = np.linspace(spec.t0, spec.t1, spec.steps + 1)[indices]
    norms = np.empty_like(times)
    for i, t in enumerate(times):
        psi = spectral.eigenvectors @ (np.exp(-1j * spectral.eigenvalues * (t - spec.t0)) * coeff)
        norms[i] = np.sqrt(abs(inner_product(psi, psi, ip).real))
    return norms


@pytest.mark.parametrize(
    "case", ["euclidean", "metric", "pseudo-eta", "broken", "generic-d8", "near-ep", "degenerate-cluster"]
)
def test_trajectory_matches_per_sample_loop(case):
    rng = np.random.default_rng(97)
    h = symmetric_hamiltonian(BROKEN_POINT if case == "broken" else FAMILY_POINT)
    psi0 = np.array([1.0, 0.3 + 0.2j])
    kind = "euclidean"
    if case == "metric":
        kind = "metric"
        ip = InnerProductKind.metric_eta(metric_from_hamiltonian(h))
    elif case == "pseudo-eta":
        # sigma_3 H sigma_3 = H^dagger on the family, so <psi, sigma_3 psi> is
        # conserved and stays away from 0 for this state
        kind = ip = InnerProductKind.pseudo_eta(SIGMA3)
    elif case == "generic-d8":
        h = _diagonalizable(rng, 8)
        psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        kind = "metric"
        ip = InnerProductKind.metric_eta(metric_from_hamiltonian(h))
    elif case == "near-ep":
        # cond(V) = 2e7, still on the spectral path: c = V^-1 psi0 is about
        # (-1e7, 1e7), and the unit norm at t0 is a difference of two 1e14s
        h = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-7]])
        psi0 = np.array([0.0, 1.0])
    elif case == "degenerate-cluster":
        s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
        h = s @ np.diag([1.0, 1.0, -0.5, -2.0]) @ np.linalg.inv(s)
        psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        kind = "metric"
        ip = InnerProductKind.metric_eta(metric_from_hamiltonian(h))
    if kind == "euclidean":
        ip = InnerProductKind.euclidean()
    spec = EvolutionSpec(h, psi0, t0=-0.5, t1=4.0, steps=301)
    traj = norm_trajectory(spec, kind=kind)
    expected = _loop_norms(spec, ip)
    assert traj.kind == ip.label
    cond = eigendecompose(h).eigvec_condition
    npt.assert_allclose(traj.norms, expected, rtol=1e-14 * cond, atol=0)


# Rounding of the phase arguments w (t - t0), on the tested and on the
# reference side together, is about 2.5 ||H|| (t1 - t0) eps at the end of a
# window; C_PHASE covers it with the rounding of the exponentials, their
# two-level product and the quadratic form.
C_PHASE = 4.0


@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize(
    "regime, kind",
    [("exact", "euclidean"), ("exact", "metric"), ("broken", "euclidean"), ("degenerate-cluster", "metric")],
)
def test_long_window_matches_per_sample_loop(d, regime, kind):
    # 100 000 steps over ||H|| (t1 - t0) = 1e4: the two-level phases must stay
    # as accurate as one exponential per sample, to within the rounding of the
    # phase arguments, which grows with ||H|| (t1 - t0)
    rng = np.random.default_rng(109 + d)
    s = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) + 2.0 * np.eye(d)
    w = rng.normal(size=d)
    if regime == "broken":
        # small imaginary parts: growth and decay stay within about e^(+-20)
        w = w + 2e-3j * rng.normal(size=d)
    elif regime == "degenerate-cluster":
        # a double eigenvalue: the metric's basis spans it by a QR of the cluster
        w[1] = w[0]
    h = s @ np.diag(w) @ np.linalg.inv(s)
    h_norm = np.linalg.norm(h, 2)
    span = 1e4 / h_norm
    spec = EvolutionSpec(h, rng.normal(size=d) + 1j * rng.normal(size=d),
                         t0=-0.25 * span, t1=0.75 * span, steps=100_000)
    if kind == "metric":
        ip = InnerProductKind.metric_eta(metric_from_hamiltonian(h))
    else:
        ip = InnerProductKind.euclidean()
    indices = np.unique(np.r_[rng.integers(0, spec.steps + 1, 190), np.arange(5), spec.steps - np.arange(5)])
    traj = norm_trajectory(spec, kind=kind)
    cond = eigendecompose(h).eigvec_condition
    rtol = C_PHASE * np.finfo(float).eps * cond * (1.0 + h_norm * (spec.t1 - spec.t0))
    npt.assert_allclose(traj.norms[indices], _loop_norms(spec, ip, indices), rtol=rtol, atol=0)


@pytest.mark.parametrize("kind", ["euclidean", "metric", "pseudo-eta"])
def test_evolve_and_norm_trajectory_agree(kind):
    # the two consumers of the propagator form their states from different
    # grids: the norm of evolve() at each sample time is the trajectory's
    h = symmetric_hamiltonian(FAMILY_POINT)
    spec = EvolutionSpec(h, np.array([1.0, 0.3 + 0.2j]), t0=-0.5, t1=4.0, steps=12)
    if kind == "pseudo-eta":
        kind = ip = InnerProductKind.pseudo_eta(SIGMA3)
    elif kind == "metric":
        ip = InnerProductKind.metric_eta(metric_from_hamiltonian(h))
    else:
        ip = InnerProductKind.euclidean()
    traj = norm_trajectory(spec, kind=kind)
    evolved = [evolve(spec, float(t)) for t in traj.times]
    norms = [np.sqrt(abs(inner_product(psi, psi, ip).real)) for psi in evolved]
    cond = eigendecompose(h).eigvec_condition
    npt.assert_allclose(traj.norms, norms, rtol=1e-14 * cond, atol=0)


def test_evolve_matches_dense_exponential():
    rng = np.random.default_rng(101)
    for d in (2, 3, 5, 8, 16, 32, 64):
        for real_spectrum in (True, False):
            h = _diagonalizable(rng, d, real_spectrum)
            psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
            spec = EvolutionSpec(h, psi0, t0=0.25, t1=1.5)
            t = float(rng.uniform(0.25, 1.5))
            expected = matrix_exp(-1j * h * (t - 0.25)) @ psi0
            err = np.linalg.norm(evolve(spec, t) - expected) / np.linalg.norm(expected)
            assert err <= 1e-12 * eigendecompose(h).eigvec_condition, (d, real_spectrum)


ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i: norms grow like e^t


@pytest.mark.parametrize(
    "call",
    [
        lambda: evolve(EvolutionSpec(ROTATION, [1.0, 0.0]), float("nan")),
        lambda: norm_trajectory(EvolutionSpec(ROTATION, [1.0, 0.0], t1=np.inf, steps=4)),
        lambda: norm_trajectory(EvolutionSpec(np.eye(2), [1.0, 0.0], t0=-np.inf, steps=4)),
        lambda: norm_trajectory(EvolutionSpec(ROTATION, [1.0, 0.0], t1=1000.0, steps=4)),
    ],
    ids=["evolve-nan", "t1-inf", "t0-minus-inf", "overflow"],
)
def test_non_finite_states_are_refused(call):
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        call()


def test_non_finite_refusals_come_without_numpy_warnings():
    # warnings are errors here: the refusal must come first and name its cause
    defective = np.array([[1j, 1.0], [0.0, 1j]])  # dense path, norms grow like e^t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"\[t0, t1\] = \[0.0, inf\]"):
            EvolutionSpec(ROTATION, [1.0, 0.0], t1=np.inf, steps=4)
        # ROTATION's state (cosh t, i sinh t) overflows at t = 750, though its
        # sigma3 norm is 1 in exact arithmetic: weighted kinds name that time too
        weights = (SIGMA3, np.array([[2.0, 1.0], [1.0, 3.0]]))
        for h in (ROTATION, defective):
            for kind in ("euclidean", *map(InnerProductKind.pseudo_eta, weights)):
                with pytest.raises(NonFiniteError, match="not finite at t = 750.0"):
                    norm_trajectory(EvolutionSpec(h, [1.0, 0.0], t1=1000.0, steps=4), kind)


@pytest.mark.parametrize(
    "psi0, closed_form, rate",
    [
        # psi(t) = (cosh t, i sinh t): norm sqrt(cosh 2t), whose square overflows at t = 400
        ([1.0, 0.0], lambda t: math.exp(t) * math.sqrt((1.0 + math.exp(-4.0 * t)) / 2.0), 1.0),
        # psi(t) = e^-t (1, -i): norm sqrt(2) e^-t, whose square underflows at t = 400
        ([1.0, -1j], lambda t: math.sqrt(2.0) * math.exp(-t), -1.0),
    ],
    ids=["square-overflows", "square-underflows"],
)
@pytest.mark.parametrize("t1, steps", [(400.0, 4), (600.0, 1000)])
def test_norm_whose_square_leaves_the_double_range(psi0, closed_form, rate, t1, steps):
    spec = EvolutionSpec(ROTATION, psi0, t1=t1, steps=steps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = norm_trajectory(spec)
    expected = [closed_form(t) for t in traj.times]
    rtol = C_PHASE * np.finfo(float).eps * (1.0 + t1)  # cond(V) = 1, ||H|| = 1
    npt.assert_allclose(traj.norms, expected, rtol=rtol, atol=0)
    assert fit_growth_rate(traj) == pytest.approx(rate, rel=1e-12)


def test_weight_dimension_mismatch():
    spec = EvolutionSpec(SIGMA1, np.array([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        norm_trajectory(spec, kind=InnerProductKind.pseudo_eta(np.eye(3)))


@pytest.mark.parametrize("case", ["euclidean", "metric", "out-of-range"])
def test_blocked_trajectory_is_bit_identical(monkeypatch, case):
    if case == "out-of-range":
        # from t = 70 on the squared norm e^(2t) / 2 is out of range: blocks
        # that are wholly in range, wholly out and mixed
        spec, kind = EvolutionSpec(ROTATION, [1.0, 0.0], t1=600.0, steps=1000), "euclidean"
    else:
        rng = np.random.default_rng(103)
        spec, kind = EvolutionSpec(_diagonalizable(rng, 4), rng.normal(size=4), t1=3.0, steps=1000), case
    single = norm_trajectory(spec, kind=kind)
    # 64-column blocks: 15 full ones and a 41-column tail.  numpy sends a
    # one-column product to gemv, which rounds differently from gemm, so the
    # grid is chosen not to end in a one-column block.
    monkeypatch.setattr(evolution, "_BLOCK_ENTRIES", 64 * spec.initial_state.shape[0])
    blocked = norm_trajectory(spec, kind=kind)
    assert np.array_equal(blocked.times, single.times)
    assert np.array_equal(blocked.norms, single.norms)


def test_trajectory_memory_is_bounded_by_the_block():
    rng = np.random.default_rng(107)
    spec = EvolutionSpec(_diagonalizable(rng, 16), rng.normal(size=16), t1=10.0, steps=200_000)
    tracemalloc.start()
    try:
        norm_trajectory(spec, kind="metric")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (16, 200001) complex block alone would take 49 MiB
    assert peak < 32 * 2**20


def test_blocks_stay_bounded_beyond_the_square_of_the_width(monkeypatch):
    # 64-column blocks and 10 001 samples: sqrt(n) exceeds the width, so the
    # offsets inside a block of the phase grid must be capped at the width
    monkeypatch.setattr(evolution, "_BLOCK_ENTRIES", 64 * 2)
    spec = EvolutionSpec(ROTATION, [1.0, 0.0], t1=1.0, steps=10_000)
    _, blocks = evolution._propagate(spec, 1e-4, 10_001)
    sizes = [a.size for a in blocks]
    assert sum(sizes) == 2 * 10_001
    assert max(sizes) <= 64 * 2


@pytest.mark.parametrize("d", [2, 7, 32])
def test_real_basis_trajectories_match_complex_arithmetic(d):
    # A real H with a real spectrum has real eigenvectors (and a real metric),
    # so the trajectory multiplies the interleaved parts of the coefficient
    # blocks by V and by W V in real arithmetic.  The reference forms the same
    # states from the complex-typed V and W, which numpy hands to the complex
    # routine; the two roundings of V a differ by about d eps ||V|| ||a||, at
    # most d eps cond(V) relative to ||V a||, and a norm by twice that.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(d)
    for _ in range(5):
        s = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-1.0, 1.0) + rng.uniform(0.0, 3.0) * np.eye(d)
        h = s @ np.diag(rng.uniform(-2.0, 2.0, d)) @ np.linalg.inv(s)
        spec = EvolutionSpec(h, rng.normal(size=d) + 1j * rng.normal(size=d), t1=3.0, steps=200)
        spectral = spec._spectral
        assert spectral.eigenvectors_inv.dtype == float
        metric = metric_from_hamiltonian(spectral)
        assert not metric.eta_plus.imag.any()
        v = spectral.eigenvectors
        _, blocks = evolution._propagate(spec, (spec.t1 - spec.t0) / spec.steps, spec.steps + 1)
        a = np.concatenate(list(blocks), axis=1)
        bound = 2 * d * eps * spectral.eigvec_condition
        for kind, weight in (("euclidean", None), ("metric", metric.eta_plus)):
            psi = v @ a
            w_psi = psi if weight is None else (weight @ v) @ a
            reference = np.sqrt(np.abs(np.einsum("ij,ij->j", psi.conj(), w_psi).real))
            norms = norm_trajectory(spec, kind).norms
            assert np.all(np.abs(norms - reference) <= bound * reference), kind
