"""Seeded inputs for the three workloads.

Each workload repeats a fixed cycle of operation *slots*.  A slot fixes what
decides the branch an operation takes (dimension, regime, conditioning, scale
band, family kind), so every seed runs the same mix of work; the seed draws
everything else (eigenvalues, eigenvector bases, scale within its band, family
parameters, initial states).  Cycle ``k`` of seed ``s`` draws from
``default_rng([s, stream, k])``, so the same seed always gives the same inputs.

No operation of a cycle trips a known defect of ``pht``, so a correct
package fails none of them.  The inputs that do trip one are the *probes*
(:func:`probe_cases`): each run checks them once, outside the measured loop,
and records which defects still fire.  Spectra of cycle matrices keep a
relative gap of about ``1/d`` between distinct eigenvalues, apart from exact
clusters, because near-coincident eigenvalues are what the near-exceptional-
point defect reacts to.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SCALE_BANDS = {"tiny": (-12.0, -10.0), "unit": (-3.0, 3.0), "huge": (9.0, 12.0)}
# Relative distance of the near-EP probes from |s| = |t| (ROADMAP item 2).
NEAR_EP_GAP = 1e-10
TRAJECTORY_STEPS = 1000


@dataclass
class Matrix:
    """``H = c S D S^-1`` with real ``S`` of known condition and known spectrum ``w``."""

    h: np.ndarray
    w: np.ndarray
    cond: float
    regime: str  # "real" or "pairs"
    clusters: int
    scale: float


def orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _spaced(rng, n, lo=-1.0, hi=1.0):
    step = (hi - lo) / n
    return lo + step * (np.arange(n) + 0.5 + rng.uniform(-0.25, 0.25, n))


def quasi_hermitian(rng, d, cond, regime, band="unit", clusters=0, scale=None, zeros=0) -> Matrix:
    """Real, hence PT-symmetric for ``P = 1, T = K``, and diagonalizable by construction.

    ``regime="real"`` gives a real spectrum in which ``clusters`` eigenvalues
    are repeated once more each and ``zeros`` more are exactly zero;
    ``regime="pairs"`` gives ``d/2`` conjugate pairs ``a +/- ib`` with ``b`` in
    ``[0.3, 1]``.
    """
    u, v = orthogonal(rng, d), orthogonal(rng, d)
    sig = np.logspace(0.0, -np.log10(cond), d)
    s, s_inv = (u * sig) @ v.T, (v / sig) @ u.T
    if scale is None:
        scale = float(10.0 ** rng.uniform(*SCALE_BANDS[band]))
    if regime == "real":
        base = _spaced(rng, d - clusters - zeros)
        w = np.concatenate([base, base[rng.choice(len(base), clusters, replace=False)],
                            np.zeros(zeros)])
        core = np.diag(w)
        w = w.astype(complex)
    else:
        a, b = _spaced(rng, d // 2), rng.uniform(0.3, 1.0, d // 2)
        core = np.zeros((d, d))
        for k in range(d // 2):
            core[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a[k], b[k]], [-b[k], a[k]]]
        w = np.concatenate([a + 1j * b, a - 1j * b])
    return Matrix(scale * (s @ core @ s_inv), scale * w, float(cond), regime, clusters, scale)


def random_state(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------- spectral

@dataclass
class SpectralCase:
    m: Matrix


def _even_ladder(lo, hi, n):
    """``n`` even sizes on a geometric ladder from ``lo`` to ``hi``."""
    return [2 * round(lo * (hi / lo) ** (k / (n - 1)) / 2) for k in range(n)]


# Size classes around 16, 64, 128 and 256, weighted toward small d (12, 12, 8
# and 8 slots of 40), each with the (cond, regime, clusters, band) combinations
# its slots take in turn.  Exact clusters appear only with cond S = 3: at cond
# S = 1e4 about one clustered draw in a hundred trips the reality test (see
# ZERO_CLUSTER), and every conjugate-pair spectrum in the tiny band is
# classified real, so neither is drawn here.
#
# The host this was tuned on switches between two speeds about 1.6x apart
# every second or so.  Where two neighbouring slot costs differ by a factor
# near that, a latency quantile between them jumps from one to the other from
# run to run.  p50 falls in the 48...80 class and p90 in the 192...256 class,
# so sizes there follow geometric ladders on which neighbouring costs differ
# by about 1.15x, and the quantiles move with the average host speed, as
# ops_per_s does.
_SPECTRAL_CLASSES = [
    ([16] * 12, [(3, "real", 0, "unit"), (1e4, "real", 0, "huge"), (3, "pairs", 0, "unit"),
                 (1e4, "real", 0, "tiny"), (3, "real", 2, "huge"), (1e4, "pairs", 0, "unit")]),
    (_even_ladder(48, 80, 12), [(1e4, "real", 0, "unit"), (3, "real", 3, "tiny"),
                                (1e4, "pairs", 0, "huge"), (3, "real", 0, "huge"),
                                (3, "real", 2, "unit"), (3, "pairs", 0, "unit")]),
    (_even_ladder(112, 144, 8), [(3, "real", 0, "unit"), (3, "real", 3, "unit"),
                                 (3, "pairs", 0, "huge"), (1e4, "real", 0, "tiny")]),
    (_even_ladder(192, 256, 8), [(1e4, "real", 0, "unit"), (3, "real", 3, "huge"),
                                 (1e4, "pairs", 0, "unit"), (3, "real", 0, "tiny")]),
]
# (d, cond, regime, clusters, band), the classes interleaved evenly so that
# each stretch of a run sees every size.
SPECTRAL_SLOTS = [slot for _, slot in sorted(
    ((k + 0.5) / len(sizes), (d, *combos[k % len(combos)]))
    for sizes, combos in _SPECTRAL_CLASSES for k, d in enumerate(sizes))]

# The reality test ``|Im w| <= 1e-9 (1 + |w|)`` is relative to each eigenvalue,
# not to ||H||.  An exactly ZERO_CLUSTER-fold zero eigenvalue of a real H splits
# under rounding like the spectrum of a random 10 x 10 matrix: into complex
# pairs, with imaginary parts near eps ||H||.  At ||H|| >= 1e10 these exceed
# the absolute floor 1e-9 by far, so eigendecompose reports conjugate pairs and
# biorthonormalize refuses a Hamiltonian that has a positive metric.  A 10 x 10
# random real matrix has only real eigenvalues with probability about 2e-7, so
# the probe fires on every draw (600 of 600 seeded draws tried, each at least
# 300 times over the tolerance), however the BLAS rounds.
ZERO_CLUSTER = 10
PROBE_SCALE_BAND = (10.0, 12.0)


def spectral_cycle(seed: int, index: int) -> list[SpectralCase]:
    rng = np.random.default_rng([seed, 1, index])
    return [SpectralCase(quasi_hermitian(rng, d, cond, regime, band, clusters))
            for d, cond, regime, clusters, band in SPECTRAL_SLOTS]


# ---------------------------------------------------------------- dynamics

@dataclass
class DynamicsCase:
    kind: str  # "symmetric", "general", "general-t" or "generic"
    regime: str  # "exact", "broken" or "near-ep"
    params: dict = field(default_factory=dict)
    m: Matrix | None = None
    psi0: np.ndarray | None = None
    t1: float = 10.0
    steps: int = TRAJECTORY_STEPS
    evolve_steps: tuple = ()


# (kind, regime, d, trajectory steps).  The per-sample trajectory loop sets the
# cost of an operation: exact points run two trajectories, broken ones one.
# The host this was tuned on switches between two speeds about 1.6x apart
# every second or so; where neighbouring slot costs differ by a factor near
# that, the p50 or p90 between them jumps from one to the other from run to
# run.  So the samples per operation (steps, twice for exact points) follow a
# geometric ladder from 500 to 4000, neighbours 1.095x apart: broken points
# take the lower eight rungs, exact ones the upper sixteen, and the cycle
# order mixes cheap and dear.  Steps run from 500 to 2000.
DYNAMICS_SLOTS = [
    ("symmetric", "broken", 2, 500),
    ("general-t", "exact", 2, 1062),
    ("symmetric", "exact", 2, 515),
    ("symmetric", "broken", 2, 718),
    ("generic", "exact", 8, 1525),
    ("symmetric", "exact", 2, 740),
    ("symmetric", "broken", 2, 599),
    ("generic", "exact", 4, 1272),
    ("generic", "exact", 4, 617),
    ("symmetric", "broken", 2, 860),
    ("symmetric", "exact", 2, 1827),
    ("general", "exact", 2, 886),
    ("general", "broken", 2, 547),
    ("symmetric", "exact", 2, 1162),
    ("general", "exact", 2, 564),
    ("general", "broken", 2, 786),
    ("general-t", "exact", 2, 1669),
    ("generic", "exact", 8, 810),
    ("general", "broken", 2, 656),
    ("general", "exact", 2, 1393),
    ("general-t", "exact", 2, 676),
    ("general", "broken", 2, 942),
    ("generic", "exact", 16, 2000),
    ("generic", "exact", 16, 970),
]


def family_params(rng, kind, regime) -> dict:
    t = rng.uniform(0.5, 2.0)
    p = {"r": rng.uniform(-1.0, 1.0), "t": t, "phi": rng.uniform(0.0, 2 * np.pi)}
    u = rng.uniform(-1.0, 1.0) if kind != "symmetric" else 0.0
    edge = float(np.hypot(t, u))
    sign = rng.choice([-1.0, 1.0])
    if regime == "exact":
        p["s"] = sign * edge * rng.uniform(0.05, 0.9)
    elif regime == "broken":
        p["s"] = sign * edge * rng.uniform(1.2, 2.0)
    else:
        p["s"] = sign * edge * (1.0 - NEAR_EP_GAP)
    if kind != "symmetric":
        p["u"] = u
    if kind == "general-t":
        p.update(gamma=rng.uniform(0, 2 * np.pi), xi=rng.uniform(0, 2 * np.pi),
                 zeta=rng.uniform(0, 2 * np.pi))
    return p


def dynamics_case(rng, kind, regime, d, steps) -> DynamicsCase:
    case = DynamicsCase(kind, regime, steps=steps)
    if kind == "generic":
        case.m = quasi_hermitian(rng, d, 3.0, "real", scale=rng.uniform(0.5, 2.0))
    else:
        case.params = family_params(rng, kind, regime)
        if regime == "broken":
            p = case.params
            gamma = np.sqrt(p["s"] ** 2 - p["t"] ** 2 - p.get("u", 0.0) ** 2)
            case.t1 = 20.0 / gamma
    case.psi0 = random_state(rng, d)
    case.evolve_steps = tuple(int(k) for k in rng.integers(1, steps + 1, 3))
    return case


def dynamics_cycle(seed: int, index: int) -> list[DynamicsCase]:
    rng = np.random.default_rng([seed, 2, index])
    return [dynamics_case(rng, *slot) for slot in DYNAMICS_SLOTS]


# ---------------------------------------------------------------- cli

@dataclass
class CliCase:
    """One ``pht`` invocation: argv after ``pht``, documents to write, and what to expect."""

    sub: str
    argv: list
    docs: dict = field(default_factory=dict)
    expect_rc: int = 0
    check: str = ""
    data: dict = field(default_factory=dict)


def matrix_document(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "entries": [[[z.real, z.imag] for z in row] for row in m]}


def state_document(v) -> dict:
    v = np.asarray(v, dtype=complex)
    return {"dim": v.shape[0], "entries": [[z.real, z.imag] for z in v]}


def family_h(p) -> np.ndarray:
    """The two-level family (symmetric when ``u = 0``), written out independently of ``pht``."""
    c, s_ = np.cos(p["phi"]), np.sin(p["phi"])
    r, s, t, u = p["r"], p["s"], p["t"], p.get("u", 0.0)
    return np.array([[r + t * c - 1j * s * s_, t * s_ + 1j * (s * c - u)],
                     [t * s_ + 1j * (s * c + u), r - t * c + 1j * s * s_]])


def family_matrix(p) -> Matrix:
    """A symmetric-family point as a :class:`Matrix` with its known spectrum."""
    x = abs(p["s"] / p["t"])
    root = np.sqrt(complex(p["t"] ** 2 - p["s"] ** 2))
    # Eigenvector condition of the exact family: sec(alpha) + |tan(alpha)|.
    return Matrix(family_h(p), np.array([p["r"] + root, p["r"] - root]),
                  cond=(1.0 + x) / np.sqrt(abs(1.0 - x * x)),
                  regime="real" if x < 1.0 else "pairs", clusters=0, scale=1.0)


def _flag_args(p) -> list:
    out = []
    for key in ("r", "s", "t", "u", "phi", "gamma", "xi", "zeta"):
        if key in p:
            out += [f"--{key}", repr(float(p[key]))]
    return out


def matrix_case(sub, m: Matrix, extra=(), expect_rc=0, check=None):
    return CliCase(sub, [sub, "H.json", *extra], {"H.json": matrix_document(m.h)}, expect_rc,
                   check or sub, {"m": m})


def family_matrix_case(sub, p):
    case = matrix_case(sub, family_matrix(p))
    case.data["family"] = p
    return case


def evolve_case(m: Matrix, psi0, norm, t1, family=None):
    case = CliCase("evolve", ["evolve", "H.json", "--state", "psi.json", "--t1", repr(t1),
                              "--steps", str(TRAJECTORY_STEPS), "--norm", norm],
                   {"H.json": matrix_document(m.h), "psi.json": state_document(psi0)},
                   check="evolve", data={"m": m, "norm": norm, "t1": t1, "family": family})
    return case


# Four large slots per cycle run at d=64; the fifth runs at d=256.  In the first
# cycle of every run that is ``metric``, whose d=256 output sets the peak RSS
# of the workload, so peak_rss_mb does not depend on the seed.  Later cycles
# rotate through the other subcommands starting at ``seed`` mod 4, so runs over
# four consecutive seeds put every subcommand at d=256.
# With about one d=256 call in 25, the 90th percentile falls among the d=64
# JSON-heavy calls rather than between two sizes.
CLI_LARGE = ("metric", "hermitize", "analyze", "check-pt", "evolve")


def cli_cycle(seed: int, index: int) -> list[CliCase]:
    rng = np.random.default_rng([seed, 3, index])

    def qh(d, regime="real", cond=3.0, clusters=0):
        return quasi_hermitian(rng, d, cond, regime, clusters=clusters)

    def fam(kind, regime):
        return family_params(rng, kind, regime)

    def large(k):
        big = 0 if index == 0 else 1 + (seed + index - 1) % (len(CLI_LARGE) - 1)
        d = 256 if k == big else 64
        sub = CLI_LARGE[k]
        m = qh(d, cond=1e4 if k % 2 else 3.0)
        if sub == "evolve":
            return evolve_case(m, random_state(rng, d), "metric", 10.0)
        extra = ["--require-exact"] if sub == "check-pt" else []
        return matrix_case(sub, m, extra)

    broken = fam("symmetric", "broken")
    gamma = float(np.sqrt(broken["s"] ** 2 - broken["t"] ** 2))
    bad_doc = matrix_document(qh(16).h)
    bad_doc["entries"][5] = bad_doc["entries"][5][:-1]
    exact2 = fam("symmetric", "exact")
    cases = [
        matrix_case("analyze", qh(2)),
        matrix_case("metric", qh(16)),
        large(0),
        CliCase("family", ["family", "symmetric", *_flag_args(p := fam("symmetric", "exact"))],
                check="family", data={"family": p, "kind": "symmetric"}),
        family_matrix_case("hermitize", fam("symmetric", "exact")),
        evolve_case(family_matrix(exact2), random_state(rng, 2), "metric", 10.0, family=exact2),
        matrix_case("check-pt", qh(16), ["--require-exact"]),
        large(1),
        matrix_case("analyze", qh(16, "pairs")),
        CliCase("family", ["family", "general", *_flag_args(p := fam("general", "exact"))],
                check="family", data={"family": p, "kind": "general"}),
        family_matrix_case("metric", fam("symmetric", "exact")),
        matrix_case("hermitize", qh(16, clusters=2)),
        large(2),
        evolve_case(qh(16), random_state(rng, 16), "metric", 10.0),
        matrix_case("check-pt", qh(2, "pairs"), ["--require-exact"], expect_rc=3),
        CliCase("family", ["family", "general-t", *_flag_args(p := fam("general-t", "exact"))],
                check="family", data={"family": p, "kind": "general-t"}),
        matrix_case("analyze", qh(2, "pairs")),
        large(3),
        family_matrix_case("hermitize", fam("symmetric", "exact")),
        evolve_case(family_matrix(broken), random_state(rng, 2), "euclidean", 20.0 / gamma,
                    family=dict(broken, gamma=gamma)),
        CliCase("family", ["family", "symmetric", *_flag_args(broken)], expect_rc=3,
                check="rc-only"),
        CliCase("analyze", ["analyze", "H.json"], {"H.json": bad_doc}, expect_rc=2,
                check="rc-only"),
        large(4),
        matrix_case("check-pt", qh(16, "pairs")),
        matrix_case("metric", qh(16, cond=1e4)),
    ]
    return cases


# ---------------------------------------------------------------- probes

def probe_cases(workload: str, seed: int) -> dict:
    """Inputs that trip a known defect of ``pht``, by name, for ``workload``.

    A run checks each once, outside the measured loop, and records whether
    the defect still fires; the cycles above avoid these inputs.
    """
    rng = np.random.default_rng([seed, 4])
    if workload == "spectral":
        zeros = quasi_hermitian(rng, 16, 3.0, "real", zeros=ZERO_CLUSTER,
                                scale=float(10.0 ** rng.uniform(*PROBE_SCALE_BAND)))
        return {
            # ROADMAP item 2: a broken H at 1e-10 scale is classified real-diagonalizable.
            "tiny_pairs_classified_real": SpectralCase(
                quasi_hermitian(rng, 16, 3.0, "pairs", "tiny")),
            # A real spectrum with a ZERO_CLUSTER-fold zero at ||H|| >= 1e10 is
            # classified complex, so biorthonormalize refuses it.
            "zero_cluster_classified_complex": SpectralCase(zeros),
        }
    if workload == "dynamics":
        # ROADMAP item 2: the metric is accepted at s/t = 1 - 1e-10, hermitize rejects it.
        return {"near_ep_hermitize_rejects_metric":
                dynamics_case(rng, "symmetric", "near-ep", 2, TRAJECTORY_STEPS)}
    return {
        "tiny_pairs_classified_real": matrix_case(
            "analyze", quasi_hermitian(rng, 2, 3.0, "pairs", "tiny")),
        "near_ep_hermitize_rejects_metric": family_matrix_case(
            "hermitize", family_params(rng, "symmetric", "near-ep")),
    }
