"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every module
namespace that holds it (``from .linalg import eigendecompose`` copies the
reference into ``pht.metric``, ``pht.cli`` and the package), and the numpy /
scipy kernels by wrappers on ``numpy.linalg`` and ``scipy.linalg``, which the
package reaches through attribute lookups at call time.  Nothing inside the
package changes.

A span is ``[layer, start, end, parent, op, ok, work]``, where ``work`` is the
computed flop count of a kernel call and the sample count of a trajectory.
Spans stay in memory until ``dump`` writes them.  A layer's self time is its
spans' duration minus the time covered by their direct children.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

LIB_LAYERS = [
    ("linalg.eigendecompose", "pht.linalg", "eigendecompose"),
    ("linalg.biorthonormalize", "pht.linalg", "biorthonormalize"),
    ("linalg.matrix_exp", "pht.linalg", "matrix_exp"),
    ("metric.build_eta_plus", "pht.metric", "build_eta_plus"),
    ("metric.hermitize", "pht.metric", "hermitize"),
    ("metric.verify_pseudo_hermiticity", "pht.metric", "verify_pseudo_hermiticity"),
    ("metric.inner_product", "pht.metric", "inner_product"),
    ("antilinear.check_pt_symmetry", "pht.antilinear", "check_pt_symmetry"),
    ("antilinear.check_exactness", "pht.antilinear", "check_exactness"),
    ("evolution.norm_trajectory", "pht.evolution", "norm_trajectory"),
    ("evolution.evolve", "pht.evolution", "evolve"),
    ("evolution.fit_growth_rate", "pht.evolution", "fit_growth_rate"),
    ("families.closed_form", "pht.families", "symmetric_operators"),
    ("families.closed_form", "pht.families", "symmetric_eigensystem"),
    ("families.closed_form", "pht.families", "reduce_general_to_symmetric"),
    ("families.closed_form", "pht.families", "general_t_hamiltonian"),
    ("families.closed_form", "pht.families", "hermitize_equivalence"),
]

# np.linalg.cond is an SVD underneath; it is the SVD the package pays for cond(V).
KERNELS = [
    ("kernel.eig", "numpy.linalg", "eig"),
    ("kernel.eigh", "numpy.linalg", "eigh"),
    ("kernel.svd", "numpy.linalg", "svd"),
    ("kernel.svd", "numpy.linalg", "cond"),
    ("kernel.inv", "numpy.linalg", "inv"),
    ("kernel.solve", "numpy.linalg", "solve"),
    ("kernel.qr", "numpy.linalg", "qr"),
    ("kernel.qr", "scipy.linalg", "qr"),
    ("kernel.expm", "scipy.linalg", "expm"),
]

CLI_SUBCOMMANDS = ("analyze", "metric", "hermitize", "family", "evolve", "check-pt")
CLI_LAYERS = [(f"cli.{sub}", "pht.cli", "cmd_" + sub.replace("-", "_")) for sub in CLI_SUBCOMMANDS] + [
    ("cli.parse", "json", "load"),
    ("cli.parse", "pht.cli", "parse_matrix_document"),
    ("cli.parse", "pht.cli", "parse_state_document"),
    ("cli.emit", "json", "dumps"),
    ("cli.emit", "pht.cli", "matrix_document"),
    ("cli.emit", "pht.cli", "state_document"),
]

# Layers reported with ``.calls`` and ``.self_s`` per operation, in report order.
REPORTED = list(dict.fromkeys(name for name, _, _ in LIB_LAYERS + KERNELS))


def kernel_flops(func: str, args, kwargs, result=None) -> float:
    """Textbook flop counts (Golub & Van Loan) from the operand's shape.

    Complex operands count 4 real flops per complex multiply-add.  These are
    computed from ``d``, not measured.
    """
    a = np.asarray(args[0])
    n = a.shape[-1]
    m = a.shape[-2] if a.ndim > 1 else n
    factor = 4.0 if np.iscomplexobj(a) else 1.0
    if func == "eig":
        f = 25.0 * n ** 3
    elif func == "eigh":
        f = 9.0 * n ** 3
    elif func in ("svd", "cond"):
        f = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
        if func == "svd" and kwargs.get("compute_uv", True):
            f += 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
    elif func == "inv":
        f = 2.0 * n ** 3
    elif func == "solve":
        b = np.asarray(args[1])
        k = 1 if b.ndim == 1 else b.shape[-1]
        f = 2.0 * n ** 3 / 3.0 + 2.0 * n * n * k
    elif func == "qr":
        f = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    elif func == "expm":
        # Pade-13 costs six products and one solve; each squaring one product.
        norm1 = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0
        squarings = max(0, math.ceil(math.log2(norm1 / 5.37))) if norm1 > 5.37 else 0
        f = 2.0 * n ** 3 * (6 + squarings) + 8.0 * n ** 3 / 3.0
    else:
        f = 0.0
    return factor * f


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.active = False
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, layer, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [layer, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op,
                    False, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[5] = True
                if work is not None:
                    span[6] = work(args, kwargs, result)
                return result
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        wrapper.__traced__ = fn
        return wrapper

    def _patch_everywhere(self, layer, module_name, attr, work=None) -> None:
        owner = sys.modules.get(module_name)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            return  # the function was removed or renamed; its layer then reads zero
        fn = getattr(fn, "__traced__", fn)
        wrapper = self._wrap(layer, fn, work)
        holders = [owner] if not module_name.startswith("pht") else [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "pht" or name.startswith("pht."))]
        for mod in holders:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def install(self, cli: bool = False) -> None:
        import pht  # noqa: F401  (the package must be imported before patching)
        import scipy.linalg  # noqa: F401

        layers = LIB_LAYERS + (CLI_LAYERS if cli else [])
        for layer, module_name, attr in layers:
            work = _samples if attr == "norm_trajectory" else None
            self._patch_everywhere(layer, module_name, attr, work)
        for layer, module_name, attr in KERNELS:
            self._patch_everywhere(layer, module_name, attr, functools.partial(kernel_flops, attr))

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patches):
            setattr(mod, name, value)
        self._patches.clear()



def dump(spans, path) -> None:
    """Write spans as CSV, one per line, in the order they started."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("layer,start,end,parent,op,ok,work\n")
        for s in spans:
            fh.write(f"{s[0]},{s[1]!r},{s[2]!r},{s[3]},{s[4]},{int(s[5])},{s[6]!r}\n")


def _samples(args, kwargs, trajectory) -> float:
    return float(len(trajectory.times))


def aggregate(spans) -> dict:
    """Per-layer ``calls``, ``ok`` calls, ``self_s`` and ``work`` over a list of spans.

    ``parent`` indexes into the same list, so spans from separate processes
    must be aggregated separately and the results added.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out = defaultdict(lambda: {"calls": 0, "ok": 0, "self_s": 0.0, "work": 0.0})
    for i, s in enumerate(spans):
        agg = out[s[0]]
        agg["calls"] += 1
        agg["ok"] += int(s[5])
        agg["self_s"] += (s[2] - s[1]) - child_time[i]
        agg["work"] += s[6]
    return out


def merge(into: dict, more: dict) -> None:
    for layer, agg in more.items():
        dst = into.setdefault(layer, {"calls": 0, "ok": 0, "self_s": 0.0, "work": 0.0})
        for key, value in agg.items():
            dst[key] += value


def layer_metrics(agg: dict, n_ops: int) -> dict:
    """Per-operation ``calls``/``self_s`` of every reported layer plus derived counters."""
    n = max(n_ops, 1)
    zero = {"calls": 0, "ok": 0, "self_s": 0.0, "work": 0.0}
    out = {}
    for layer in REPORTED:
        a = agg.get(layer, zero)
        out[f"{layer}.calls"] = (a["calls"] / n, "1/op")
        out[f"{layer}.self_s"] = (a["self_s"] / n, "s/op")
    bio = agg.get("linalg.biorthonormalize", zero)
    out["linalg.biorthonormalize.useful_ratio"] = (bio["ok"] / bio["calls"] if bio["calls"] else 0.0,
                                                   "ratio")
    out["evolution.samples"] = (agg.get("evolution.norm_trajectory", zero)["work"] / n, "1/op")
    flops = sum(a["work"] for layer, a in agg.items() if layer.startswith("kernel."))
    out["kernel.flops_computed"] = (flops / n, "flop/op")
    for layer in ("cli.parse", "cli.emit"):
        out[f"{layer}.self_s"] = (agg.get(layer, zero)["self_s"] / n, "s/op")
    return out
