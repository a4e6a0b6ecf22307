"""Run every workload once and print each metric with its unit, one table per mode.

Usage (from the root of a checkout):

    python3 perfbench/report.py --seed 1 --seconds 30 [--trace 1] [--json out.json]

With ``--trace 0`` it prints the end-to-end metrics of ``cli``, ``spectral``
and ``dynamics`` side by side; with ``--trace 1`` the per-layer metrics.
``--json`` also writes the three result objects and the environment record to
a file, for before/after comparisons.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("cli", "spectral", "dynamics")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the results to this file")
    args = ap.parse_args(argv)
    results, env = {}, None
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        env = json.loads(lines[0])["env"]
        results[workload] = json.loads(lines[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    width = max(len(n) for n in names)
    print(f"{'metric':{width}}  {'unit':8}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        cells = "".join(f"{results[w]['metrics'][name]['value']:>14.6g}" for w in WORKLOADS)
        print(f"{name:{width}}  {unit:8}{cells}")
    for key in ("correct", "attempted", "failed"):
        print(f"{key:{width}}  {'':8}" + "".join(f"{str(results[w][key]):>14}" for w in WORKLOADS))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "results": results}, fh, indent=1)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
