"""Propagation, norm trajectories, and growth-rate fitting."""
import tracemalloc
import warnings

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
    with pytest.raises(ValueError):
        EvolutionSpec(h, np.ones(2), steps=0)
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


def test_near_defective_falls_back_to_dense_exponential():
    # nilpotent Jordan block: exp(-iHt) = 1 - iHt exactly, so the Euclidean
    # norm of (0, 1) evolves as sqrt(1 + t^2)
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    spec = EvolutionSpec(h, np.array([0.0, 1.0]), t0=0.0, t1=3.0, steps=30)
    traj = norm_trajectory(spec)
    npt.assert_allclose(traj.norms, np.sqrt(1.0 + traj.times**2), atol=1e-12)


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
    traj = NormTrajectory(np.linspace(0, 1, 10), np.ones(10))
    with pytest.raises(ValueError):
        fit_growth_rate(traj, skip_fraction=1.0)
    with pytest.raises(ValueError):
        fit_growth_rate(traj, skip_fraction=-0.2)
    bad = NormTrajectory(np.linspace(0, 1, 10), np.zeros(10))
    with pytest.raises(ValueError):
        fit_growth_rate(bad)


def _diagonalizable(rng, d, real_spectrum=True):
    s = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) + 2.0 * np.eye(d)
    w = rng.normal(size=d)
    if not real_spectrum:
        w = w + 1j * rng.normal(size=d)
    return s @ np.diag(w) @ np.linalg.inv(s)


def _loop_norms(spec, ip):
    """Reference: one spectral propagation and one ``inner_product`` per sample."""
    spectral = eigendecompose(spec.hamiltonian)
    coeff = np.linalg.solve(spectral.eigenvectors, spec.initial_state)
    times = np.linspace(spec.t0, spec.t1, spec.steps + 1)
    norms = np.empty_like(times)
    for i, t in enumerate(times):
        psi = spectral.eigenvectors @ (np.exp(-1j * spectral.eigenvalues * (t - spec.t0)) * coeff)
        norms[i] = np.sqrt(abs(inner_product(psi, psi, ip).real))
    return norms


@pytest.mark.parametrize("case", ["euclidean", "metric", "pseudo-eta", "broken", "generic-d8"])
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
    if kind == "euclidean":
        ip = InnerProductKind.euclidean()
    spec = EvolutionSpec(h, psi0, t0=-0.5, t1=4.0, steps=301)
    traj = norm_trajectory(spec, kind=kind)
    expected = _loop_norms(spec, ip)
    assert traj.kind == ip.label
    cond = eigendecompose(h).eigvec_condition
    npt.assert_allclose(traj.norms, expected, rtol=1e-14 * cond, atol=0)


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
        for h in (ROTATION, defective):
            with pytest.raises(NonFiniteError, match="not finite at t = 750.0"):
                norm_trajectory(EvolutionSpec(h, [1.0, 0.0], t1=1000.0, steps=4))


def test_weight_dimension_mismatch():
    spec = EvolutionSpec(SIGMA1, np.array([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        norm_trajectory(spec, kind=InnerProductKind.pseudo_eta(np.eye(3)))


@pytest.mark.parametrize("kind", ["euclidean", "metric"])
def test_blocked_trajectory_is_bit_identical(monkeypatch, kind):
    rng = np.random.default_rng(103)
    spec = EvolutionSpec(_diagonalizable(rng, 4), rng.normal(size=4), t1=3.0, steps=1000)
    single = norm_trajectory(spec, kind=kind)
    # 64-column blocks: 15 full ones and a 41-column tail.  numpy sends a
    # one-column product to gemv, which rounds differently from gemm, so the
    # grid is chosen not to end in a one-column block.
    monkeypatch.setattr(evolution, "_BLOCK_ENTRIES", 64 * 4)
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
