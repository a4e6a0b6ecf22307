"""Paths, child environment, statistics and the environment record.

Every process the benchmark starts gets the same environment: ``src`` of the
checkout first on ``PYTHONPATH`` and every BLAS/OpenMP pool pinned to one
thread, so that one client on the 2-core box runs one operation at a time.
"""
from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PKG = SRC / "pht"
# Scratch space for generated documents and span dumps; listed in .gitignore.
OUT_DIR = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Seconds a single child may run before it is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0
# Cold starts timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5


class CheckoutError(RuntimeError):
    """The checkout does not hold the package sources the benchmark measures."""


def require_checkout() -> None:
    if not (PKG / "__init__.py").is_file():
        raise CheckoutError(f"no package sources at {PKG.relative_to(ROOT)}; nothing to measure")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PHT_RTOL", None)
    return env


def blas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds bundled with numpy and scipy."""
    import numpy
    import scipy

    found = {}
    for mod in (numpy, scipy):
        libs = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    found[Path(path).name] = int(fn())
                    break
    return found


def check_pinned() -> None:
    """Raise unless the environment and every bundled BLAS say one thread."""
    bad = {v: os.environ.get(v) for v in THREAD_VARS if os.environ.get(v) != "1"}
    bad.update({k: n for k, n in blas_threads().items() if n != 1})
    if bad:
        raise RuntimeError(f"BLAS is not pinned to one thread: {bad}")


def check_imported_from_checkout(module) -> None:
    path = Path(module.__file__).resolve()
    if PKG not in path.parents:
        raise CheckoutError(f"pht was imported from {path}, not from the checkout")


def paired_cycles(seconds: float, run_cycle) -> None:
    """Call ``run_cycle(index, traced)`` twice per cycle until ``seconds`` have passed.

    Traced runs measure each cycle twice on the same inputs, once plain and
    once traced, so the pairs give the tracing overhead.  The second copy finds
    the inputs warm in cache, so the order alternates from cycle to cycle.
    Cycles are never cut, so per-operation counts cover whole cycles.
    """
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            run_cycle(index, traced)
        index += 1


def calibrate(repeats: int = 11) -> dict:
    """Median time of a fixed LAPACK call and a fixed pure-Python loop.

    The inputs never change, so these numbers move only with the speed of the
    host.  A run records them before and after measuring, which tells a
    change of host speed apart from a change of the package.
    """
    import numpy as np

    a = np.random.default_rng(0).normal(size=(128, 128))
    lapack, python = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        np.linalg.eig(a)
        lapack.append(time.perf_counter() - start)
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        python.append(time.perf_counter() - start)
    return {"eig128_s": median(lapack), "python_loop_s": median(python)}


def quantile(values, q: float) -> float:
    """``q``-quantile with linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        label = f"L{level}" + ({"Data": "d", "Instruction": "i"}.get(kind, ""))
        sizes[label] = size
    return sizes


def pkg_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(PKG.glob("*.py")))


def child_check() -> dict:
    """BLAS thread counts (all must be 1) and :func:`calibrate`, in a pinned child."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import common; "
            "common.check_pinned(); print(json.dumps({'threads': common.blas_threads(), "
            "'calibration': common.calibrate()}))")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR)], env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"BLAS pinning check failed in the child environment: {proc.stderr}")
    return json.loads(proc.stdout)


def environment_record() -> dict:
    import numpy
    import scipy

    env = child_env()
    child = child_check()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: env[v] for v in THREAD_VARS},
        "blas_threads_in_child": child["threads"],
        "calibration_before": child["calibration"],
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cache_per_core": _cache_sizes(),
        "pkg_lines": pkg_line_count(),
        "load": "closed loop, one client, one operation at a time",
        "working_set": "one d=256 complex operand is 1 MiB, within the per-core L2; kernel work "
                       "is reported as flops computed from d, not as bandwidth",
        "executable": sys.executable,
    }
