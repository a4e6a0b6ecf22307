"""``import pht``, the CLI, exactness and evolution on diagonalizable input never load scipy.

scipy serves only the dense exponential (near-defective evolution and
``matrix_exp``), so it is imported on first use.
Each check runs in a fresh interpreter, where ``sys.modules`` shows exactly
what the package pulled in.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from pht.cli import matrix_document, state_document
from pht.families import SymmetricFamilyParams, symmetric_hamiltonian

ROOT = Path(__file__).resolve().parents[1]

# Prints whether scipy is loaded after `import pht`, then after each argv.
SCRIPT = """
import contextlib, io, json, sys
import pht
print(json.dumps(["import", 0, "scipy" in sys.modules]))
from pht.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    print(json.dumps([" ".join(argv[:2]), rc, "scipy" in sys.modules]))
"""


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


# Library exactness and evolution: prints whether scipy is loaded after each call.
LIBRARY_SCRIPT = """
import json, sys
import numpy as np
from pht import (AntilinearOperator, EvolutionSpec, check_exactness, evolve, norm_trajectory,
                 symmetric_hamiltonian, SymmetricFamilyParams)
assert check_exactness(np.diag([1.0, 1.0, 2.0]), np.eye(3), AntilinearOperator(np.eye(3))).exact
print(json.dumps(["check_exactness degenerate", 0, "scipy" in sys.modules]))
h = symmetric_hamiltonian(SymmetricFamilyParams(0.0, 1.0, 2.0, 0.0))
spec = EvolutionSpec(h, np.array([1.0, 0.0]), t1=3.0, steps=50)
evolve(spec, 1.5)
print(json.dumps(["evolve", 0, "scipy" in sys.modules]))
for kind in ("euclidean", "metric"):
    norm_trajectory(spec, kind)
    print(json.dumps(["norm_trajectory " + kind, 0, "scipy" in sys.modules]))
"""


def _run_script(argvs, script=SCRIPT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PHT_RTOL", None)
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_cli_on_diagonalizable_input_never_loads_scipy(tmp_path):
    family = symmetric_hamiltonian(SymmetricFamilyParams(0.0, 1.0, 2.0, 0.0))
    rng = np.random.default_rng(3)
    s = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    generic = s @ np.diag([1.0, 2.0, 3.0]) @ np.linalg.inv(s)
    h = _write(tmp_path, "h.json", matrix_document(family))
    g = _write(tmp_path, "g.json", matrix_document(generic))
    degenerate = _write(tmp_path, "d.json", matrix_document(np.diag([1.0, 1.0, 2.0])))
    p = _write(tmp_path, "p.json", matrix_document(np.diag([1.0, -1.0])))
    psi = _write(tmp_path, "psi.json", state_document(np.array([1.0, 0.0])))
    argvs = [
        ["analyze", h, "--parity", p],
        ["analyze", g],
        ["metric", h],
        ["metric", g],
        ["hermitize", h],
        ["hermitize", g],
        ["check-pt", h, "--parity", p],
        ["check-pt", degenerate],
        ["family", "symmetric", "--s", "1", "--t", "2", "--phi", "0.4"],
        ["family", "general", "--s", "1", "--t", "2", "--u", "0.5", "--phi", "0.4"],
        ["family", "general-t", "--s", "1", "--t", "2", "--u", "0.5", "--xi", "1.2", "--zeta", "0.3"],
        ["evolve", h, "--state", psi, "--steps", "20", "--norm", "metric"],
        ["evolve", h, "--state", psi, "--steps", "20", "--norm", "euclidean"],
    ]
    results = _run_script(argvs)
    assert len(results) == len(argvs) + 1
    for step, rc, loaded in results:
        assert rc == 0, step
        assert not loaded, f"scipy loaded by {step}"


def test_library_evolution_on_diagonalizable_input_never_loads_scipy():
    results = _run_script([], LIBRARY_SCRIPT)
    assert len(results) == 4
    for step, _, loaded in results:
        assert not loaded, f"scipy loaded by {step}"


def test_lazy_paths_still_load_scipy(tmp_path):
    # the one path that needs scipy reaches it on demand; this also shows that
    # the checks above would see an import
    jordan = _write(tmp_path, "j.json", matrix_document(np.array([[0.0, 1.0], [0.0, 0.0]])))
    psi = _write(tmp_path, "psi.json", state_document(np.array([0.0, 1.0])))
    (_, _, before), (step, rc, after) = _run_script([["evolve", jordan, "--state", psi, "--steps", "5"]])
    assert not before and rc == 0 and after, step
