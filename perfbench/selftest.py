"""Self-test of the oracle: corrupted outputs must count as failed, correct ones must not.

Usage: ``python3 perfbench/selftest.py`` (exit 0 when the oracle behaves).
``run.py`` runs the same checks before every measurement and refuses to
report a result when they fail.  No ``pht`` code runs here: the correct
outputs are built from the generator's known spectra.
"""
from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402


def _hermitize_case_and_output(rng, d, cond):
    case = gen.matrix_case("hermitize", gen.quasi_hermitian(rng, d, cond, "real", clusters=d // 8))
    q = gen.orthogonal(rng, d)
    h = (q * case.data["m"].w.real) @ q.T  # Hermitian, isospectral with H
    return case, h


def run() -> list:
    """Return the self-test failures; an empty list means the oracle behaves."""
    rng = np.random.default_rng(12345)
    failures = []

    def expect(name, problems, should_fail):
        if bool(problems) != should_fail:
            failures.append(f"{name}: oracle {'passed' if not problems else 'failed'} it "
                            f"({problems[:1]})")

    # The relative perturbation sits well above what the input's conditioning
    # allows (cond 3: ~1e-13; cond 1e4: ~1e-5) and well below O(1) damage.
    for d, cond, delta in ((2, 3.0, 1e-8), (16, 3.0, 1e-8), (16, 1e4, 1e-3)):
        name = f"hermitize d={d} cond={cond:g}"
        case, h = _hermitize_case_and_output(rng, d, cond)
        good = json.dumps(gen.matrix_document(h))
        expect(f"{name} correct", oracle.check_cli(case, 0, good), False)
        skew = rng.normal(size=(d, d))
        bad = h + delta * np.linalg.norm(h) * (skew - skew.T) / np.linalg.norm(skew - skew.T)
        expect(f"{name} anti-Hermitian perturbation",
               oracle.check_cli(case, 0, json.dumps(gen.matrix_document(bad))), True)
        shifted = h + delta * np.linalg.norm(h) * np.eye(d)
        expect(f"{name} shifted spectrum",
               oracle.check_cli(case, 0, json.dumps(gen.matrix_document(shifted))), True)
        expect(f"{name} exit code 3", oracle.check_cli(case, 3, ""), True)

    malformed = gen.CliCase("analyze", ["analyze", "H.json"], expect_rc=2, check="rc-only")
    expect("malformed input exit code 2", oracle.check_cli(malformed, 2, ""), False)
    expect("malformed input exit code 0", oracle.check_cli(malformed, 0, "{}"), True)
    return failures


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print("FAIL", line)
    print("oracle self-test:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
