"""In-process workloads ``spectral`` and ``dynamics``, one worker process per run.

Started by ``run.py`` with the pinned child environment, as
``python perfbench/lib_worker.py --workload W --seed N [--seconds S --trace T | --setup-only]``.
The worker imports ``pht``, runs one untimed warm-up operation, prints
``READY`` (the parent times set-up up to that line), then runs operations
back to back until the deadline, checks the known-defect probes once, and
prints one JSON line with the samples, the probe outcomes and, when traced,
the per-layer aggregates.
"""
from __future__ import annotations

import time

T_MAIN = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

_start = time.perf_counter()
import pht  # noqa: E402  (timed: the first import of numpy and scipy happens here)

IMPORT_S = time.perf_counter() - _start

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402


def _expect_error(out, error, fn, *args):
    """Call ``fn`` and record a problem unless it raises ``error``."""
    try:
        fn(*args)
    except error:
        return
    out.setdefault("missing_errors", []).append(f"{fn.__name__} did not raise {error.__name__}")


# ------------------------------------------------------------------ spectral

def spectral_op(case):
    """eigendecompose -> biorthonormalize -> eta_plus/parity/charge -> hermitize -> PT checks."""
    h = case.m.h
    parity = np.eye(h.shape[0], dtype=complex)
    time_reversal = pht.AntilinearOperator(parity)
    out = {"spectral": pht.eigendecompose(h)}
    try:
        system = pht.biorthonormalize(h)
    except pht.ComplexSpectrumError as exc:
        out["biorth_error"] = exc
    else:
        out["system"] = system
        out["metric"] = pht.build_eta_plus(system)
        out["parity"] = pht.build_generalized_parity(system)
        out["charge"] = pht.build_charge_conjugation(system)
        out["h"] = pht.hermitize(h, out["metric"])
    out["pt_residual"] = pht.check_pt_symmetry(h, parity, time_reversal)
    out["exactness"] = pht.check_exactness(h, parity, time_reversal)
    return out


# ------------------------------------------------------------------ dynamics

def dynamics_op(case):
    """Closed-form family point, its numeric cross-check, trajectories and evolve()."""
    p = case.params
    exact = case.regime != "broken"
    out = {}
    if case.kind == "generic":
        h = case.m.h
    elif case.kind == "symmetric":
        sp = pht.SymmetricFamilyParams(p["r"], p["s"], p["t"], p["phi"])
        h = pht.symmetric_hamiltonian(sp)
        if exact:
            out["ops"] = pht.symmetric_operators(sp)
            out["eigensystem"] = pht.symmetric_eigensystem(sp)
        else:
            _expect_error(out, pht.ExceptionalPointError, pht.symmetric_operators, sp)
    else:
        gp = pht.GeneralFamilyParams(p["r"], p["s"], p["t"], p["u"], p["phi"])
        if case.kind == "general":
            h = pht.general_hamiltonian(gp)
            out["reduction"] = pht.reduce_general_to_symmetric(gp)
            if exact:
                out["equivalence"] = pht.hermitize_equivalence(gp)
            else:
                _expect_error(out, pht.ExceptionalPointError, pht.hermitize_equivalence, gp)
        else:
            tp = pht.TimeReversalParams(p["gamma"], p["xi"], p["zeta"])
            system = pht.general_t_hamiltonian(gp, tp)
            h = system.hamiltonian
            out["pt_residual"] = pht.check_pt_symmetry(h, system.parity, system.time_reversal)
            out["exactness"] = pht.check_exactness(h, system.parity, system.time_reversal)
    out["hamiltonian"] = h
    spec = pht.EvolutionSpec(h, case.psi0, t0=0.0, t1=case.t1, steps=case.steps)
    if exact:
        normalization = "transpose" if case.kind == "symmetric" else "unit"
        out["metric"] = pht.metric_from_hamiltonian(h, normalization=normalization)
        out["h"] = pht.hermitize(h, out["metric"])
        out["traj_metric"] = pht.norm_trajectory(spec, "metric")
    else:
        _expect_error(out, pht.ComplexSpectrumError, pht.metric_from_hamiltonian, h)
        _expect_error(out, pht.NoPositiveMetricError, pht.norm_trajectory, spec, "metric")
    traj = pht.norm_trajectory(spec, "euclidean")
    out["traj_euclid"] = traj
    if not exact:
        out["fit"] = pht.fit_growth_rate(traj)
    out["evolved"] = [pht.evolve(spec, float(traj.times[k])) for k in case.evolve_steps]
    return out


def dynamics_check(case, out):
    return out.get("missing_errors", []) + oracle.check_dynamics(case, out)


WORKLOADS = {
    "spectral": (gen.spectral_cycle, spectral_op, oracle.check_spectral),
    "dynamics": (gen.dynamics_cycle, dynamics_op, dynamics_check),
}


# ------------------------------------------------------------------ loop

def _run_case(workload, slot, case, tracer=None):
    """Run one operation; return ``[latency_s, ok, slot, first_problem]``."""
    _, op, check = WORKLOADS[workload]
    if tracer is not None:
        tracer.op += 1
        tracer.active = True
    start = time.perf_counter()
    try:
        out = op(case)
        error = None
    except Exception as exc:  # any exception the oracle did not expect fails the op
        error = exc
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    problems = [f"{type(error).__name__}: {error}"] if error else check(case, out)
    return [latency, not problems, slot, problems[0] if problems else ""]


def run_ops(workload, seed, seconds):
    """Closed loop over the workload's cycles until ``seconds`` have passed."""
    cycle = WORKLOADS[workload][0]
    deadline = time.perf_counter() + seconds
    samples = []
    index = 0
    while time.perf_counter() < deadline:
        for slot, case in enumerate(cycle(seed, index)):
            if time.perf_counter() >= deadline:
                break
            samples.append(_run_case(workload, slot, case))
        index += 1
    return samples


def run_traced(workload, seed, seconds):
    """Whole cycles, each run plain and traced (:func:`common.paired_cycles`).

    The pairs give the tracing overhead; the traced copies give the per-layer
    numbers.
    """
    tracer = tracing.Tracer()
    untraced, traced = [], []

    def run_cycle(index, traced_copy):
        cases = list(enumerate(WORKLOADS[workload][0](seed, index)))
        if traced_copy:
            tracer.install()
            traced.extend(_run_case(workload, slot, case, tracer) for slot, case in cases)
            tracer.uninstall()
        else:
            untraced.extend(_run_case(workload, slot, case) for slot, case in cases)

    common.paired_cycles(seconds, run_cycle)
    return untraced, traced, tracer


def run_probes(workload, seed) -> dict:
    """Check each known-defect probe once: ``{name: first problem, or "" if it passed}``."""
    return {name: _run_case(workload, name, case)[3]
            for name, case in gen.probe_cases(workload, seed).items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    common.check_imported_from_checkout(pht)
    common.check_pinned()
    cycle, op, _ = WORKLOADS[args.workload]
    op(cycle(args.seed, 0)[0])
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"import_s": IMPORT_S,
              "startup_s": T_MAIN - float(os.environ.get("PERFBENCH_SPAWN_T", T_MAIN))}
    if not args.trace:
        result["samples"] = run_ops(args.workload, args.seed, args.seconds)
    else:
        result["samples"], result["traced_samples"], tracer = run_traced(
            args.workload, args.seed, args.seconds)
        result["layers"] = tracing.aggregate(tracer.spans)
        common.OUT_DIR.mkdir(exist_ok=True)
        tracing.dump(tracer.spans, common.OUT_DIR / f"spans-{args.workload}.csv")
    result["probes"] = run_probes(args.workload, args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
