"""The ``cli`` workload: one ``python -m pht ...`` subprocess at a time.

Documents are written to a scratch directory in the checkout before each call
and are not timed; an operation's latency is the subprocess wall time, which
is what a user of the command line waits for.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import common
import gen
import oracle
import tracer as tracing

LAUNCHER = common.BENCH_DIR / "launcher.py"


def _write_docs(case, workdir) -> int:
    size = 0
    for name, doc in case.docs.items():
        text = json.dumps(doc)
        (workdir / name).write_text(text, encoding="utf-8")
        size += len(text.encode("utf-8"))
    return size


def invoke(case, workdir, env, traced=False):
    """Run one case; return ``(latency_s, rc, stdout, bytes_in, span_file)``."""
    bytes_in = _write_docs(case, workdir)
    span_file = workdir / "spans.json"
    if traced:
        cmd = [sys.executable, str(LAUNCHER), *case.argv]
        env = dict(env, PERFBENCH_SPANS=str(span_file), PERFBENCH_SPAWN_T=repr(time.time()))
    else:
        cmd = [sys.executable, "-m", "pht", *case.argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=common.CHILD_TIMEOUT_S)
        rc, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        rc, stdout = None, ""
    return time.perf_counter() - start, rc, stdout, bytes_in, span_file if traced else None


def _sample(case, slot, latency, rc, stdout):
    problems = ["timed out"] if rc is None else oracle.check_cli(case, rc, stdout)
    return [latency, not problems, slot, problems[0] if problems else "", case.sub]


def run_ops(seed, seconds, workdir, env):
    """Closed loop over the CLI cycles until ``seconds`` have passed.

    Each call gives ``[latency_s, ok, slot, first_problem, subcommand]``.
    """
    deadline = time.perf_counter() + seconds
    samples = []
    index = 0
    while time.perf_counter() < deadline:
        for slot, case in enumerate(gen.cli_cycle(seed, index)):
            if time.perf_counter() >= deadline:
                break
            latency, rc, stdout, _, _ = invoke(case, workdir, env)
            samples.append(_sample(case, slot, latency, rc, stdout))
        index += 1
    return samples


def run_traced(seed, seconds, workdir, env):
    """Whole cycles, each run plain and through the launcher (:func:`common.paired_cycles`).

    The launcher calls give the per-layer aggregates, per-process records and
    spans.
    """
    samples, traced_samples, layers, procs, spans = [], [], {}, [], []

    def run_cycle(index, traced):
        for slot, case in enumerate(gen.cli_cycle(seed, index)):
            latency, rc, stdout, bytes_in, span_file = invoke(case, workdir, env, traced)
            if not traced:
                samples.append(_sample(case, slot, latency, rc, stdout))
                continue
            traced_samples.append(_sample(case, slot, latency, rc, stdout))
            record = json.loads(span_file.read_text(encoding="utf-8"))
            span_file.unlink()
            tracing.merge(layers, tracing.aggregate(record["spans"]))
            procs.append({"import_s": record["import_s"], "startup_s": record["startup_s"],
                          "bytes_in": bytes_in, "bytes_out": len(stdout.encode("utf-8"))})
            op, offset = len(traced_samples) - 1, len(spans)
            spans.extend([s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, op, s[5], s[6]]
                         for s in record["spans"])

    common.paired_cycles(seconds, run_cycle)
    return samples, traced_samples, layers, procs, spans


def run_probes(seed, workdir, env) -> dict:
    """Check each known-defect probe once: ``{name: first problem, or "" if it passed}``."""
    return {name: _sample(case, name, *invoke(case, workdir, env)[:3])[3]
            for name, case in gen.probe_cases("cli", seed).items()}


def run(seed: int, seconds: float, trace: bool) -> dict:
    env = common.child_env()
    workdir = common.OUT_DIR / f"cli-{seed}-{int(time.time() * 1e6)}"
    workdir.mkdir(parents=True)
    try:
        if not trace:
            first = gen.cli_cycle(seed, 0)[0]
            setup = [invoke(first, workdir, env)[0] for _ in range(common.SETUP_REPEATS)]
            result = {"setup": setup, "samples": run_ops(seed, seconds, workdir, env)}
        else:
            samples, traced, layers, procs, spans = run_traced(seed, seconds, workdir, env)
            result = {"samples": samples, "traced_samples": traced, "layers": layers,
                      "procs": procs}
            tracing.dump(spans, common.OUT_DIR / "spans-cli.csv")
        result["probes"] = run_probes(seed, workdir, env)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
