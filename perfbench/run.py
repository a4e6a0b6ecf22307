"""Benchmark entry point.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli,spectral,dynamics} --seed N --seconds S --trace {0,1}

Prints an environment record, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits non-zero
without a result when the checkout has no package sources or the oracle
self-test fails.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("cli", "spectral", "dynamics")
WORKER = common.BENCH_DIR / "lib_worker.py"


def _start_worker(args, extra):
    """Start a worker and wait for ``READY``; return the process and its set-up time."""
    env = dict(common.child_env(), PERFBENCH_SPAWN_T=repr(time.time()))
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=common.ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    setup = time.perf_counter() - start
    if line != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not become ready (exit {proc.returncode})")
    return proc, setup


def _finish(proc, timeout) -> str:
    """Collect a worker's output; kill it if it overruns or the wait is interrupted."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def run_library(args) -> dict:
    setup = []
    if not args.trace:
        for _ in range(common.SETUP_REPEATS):
            proc, seconds = _start_worker(args, ["--setup-only"])
            _finish(proc, common.CHILD_TIMEOUT_S)
            setup.append(seconds)
    proc, seconds = _start_worker(args, ["--seconds", str(args.seconds),
                                         "--trace", str(args.trace)])
    setup.append(seconds)
    out = _finish(proc, args.seconds + 150)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup"] = setup
    return result


def _rate(samples) -> float:
    busy = sum(s[0] for s in samples)
    return len(samples) / busy if busy else 0.0


def end_to_end(result) -> dict:
    samples = result["samples"]
    latency = [s[0] for s in samples]
    ok = [s for s in samples if s[1]]
    busy = sum(latency)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "op_p50_s": (common.quantile(latency, 0.5), "s"),
        "op_p90_s": (common.quantile(latency, 0.9), "s"),
        "ops_per_s": (len(ok) / busy, "1/s"),
        "setup_s": (common.median(result["setup"]), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }


def per_layer(result) -> dict:
    traced = result["traced_samples"]
    metrics = tracing.layer_metrics(result["layers"], len(traced))
    procs = result.get("procs")
    if procs:
        n = len(traced)
        metrics["cli.import_s"] = (common.median([p["import_s"] for p in procs]), "s")
        metrics["cli.startup_s"] = (common.median([p["startup_s"] for p in procs]), "s")
        metrics["cli.parse.bytes_in"] = (sum(p["bytes_in"] for p in procs) / n, "B/op")
        metrics["cli.emit.bytes_out"] = (sum(p["bytes_out"] for p in procs) / n, "B/op")
    else:
        metrics["cli.import_s"] = (result["import_s"], "s")
        metrics["cli.startup_s"] = (result["startup_s"], "s")
        metrics["cli.parse.bytes_in"] = (0.0, "B/op")
        metrics["cli.emit.bytes_out"] = (0.0, "B/op")
    for sub in tracing.CLI_SUBCOMMANDS:
        lat = [s[0] for s in result["samples"] if len(s) > 4 and s[4] == sub]
        metrics[f"cli.{sub}.p50_s"] = (common.median(lat), "s")
    # Tracing overhead over the operations both halves completed (same inputs).
    n = min(len(result["samples"]), len(traced))
    metrics["trace.untraced_ops_per_s"] = (_rate(result["samples"][:n]), "1/s")
    metrics["trace.traced_ops_per_s"] = (_rate(traced[:n]), "1/s")
    return metrics


def summarize(result, trace) -> dict:
    samples = result["samples"] + result.get("traced_samples", [])
    failed = [s for s in samples if not s[1]]
    by_slot = {}
    for s in failed:
        entry = by_slot.setdefault(f"slot {s[2]}", {"count": 0, "first": s[3][:200]})
        entry["count"] += 1
    # Known defects of the package, checked once per run outside the measured
    # operations: a probe "fires" while its defect is still there.
    probes = {name: {"fired": bool(problem), "problem": problem[:200]}
              for name, problem in result["probes"].items()}
    print(json.dumps({"failures": by_slot, "known_defects": probes, "ops": len(samples),
                      "calibration_after": common.child_check()["calibration"]}))
    metrics = per_layer(result) if trace else end_to_end(result)
    return {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run unwinds like an exception, so every child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        common.require_checkout()
    except common.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import selftest

    selftest_failures = selftest.run()
    if selftest_failures:
        print("error: oracle self-test failed: " + "; ".join(selftest_failures), file=sys.stderr)
        return 3
    print(json.dumps({"env": common.environment_record(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    if args.workload == "cli":
        import cli_load

        result = cli_load.run(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_library(args)
    print(json.dumps(summarize(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
