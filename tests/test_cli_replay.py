"""Byte-level replay of the command line against a committed manifest.

Each case of a fixed corpus runs through ``main()`` in process, and its exit
code, the SHA-256 of its stdout and its full stderr are compared with the
line of ``tests/data/cli_replay.jsonl`` that carries its id.  The manifest
pins today's bytes, wrong verdicts included: it detects change and is not an
oracle.  After an intended change of output, regenerate it with

    PYTHONPATH=src python tests/test_cli_replay.py

and explain each moved line.  The command prints, before it writes, how many
cases moved for each subcommand and the id of each.

The corpus is built from fixed seeds, not read from ``tests/data/``.  Its
bulk is the benchmark's own ``cli`` cycle (``perfbench/gen.py``, loaded by
path, seeds 1-4, cycles 0-1, every call at d <= 64), whose d = 64 documents
would take megabytes to commit; the benchmark generator is the definition of
those cases, so a change to it is a change of corpus and regenerates the
manifest.  The edge matrices, the near-exceptional-point sweep and the
family calls are written out below.  ``main()`` reads each document from
memory, as ``json.load`` would return it, so the replay skips file I/O.
"""
import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pht import cli
from pht.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "cli_replay.jsonl"


def matrix_doc(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "entries": np.stack([m.real, m.imag], -1).tolist()}


def state_doc(v) -> dict:
    v = np.asarray(v, dtype=complex)
    return {"dim": v.shape[0], "entries": np.stack([v.real, v.imag], -1).tolist()}


def _cycle_matrix_doc(m) -> dict:
    # d = 256 calls are left out of the corpus, so their documents are not built
    return matrix_doc(m) if len(m) <= 64 else {"dim": len(m)}


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # The generator builds its documents entry by entry, with numpy scalars;
    # these build the same documents, of plain floats as json.load returns them.
    module.matrix_document, module.state_document = _cycle_matrix_doc, state_doc
    return module


A = np.array([[1.0, 1.5], [0.0, -1.0]])
M1234 = np.array([[1.0, 2.0], [3.0, 4.0]])
EDGE_MATRICES = {
    "d1": [[2.5]],
    "negative-zero": [[complex(-0.0, -0.0), 1.0], [1.0, complex(-0.0, 0.0)]],
    "subnormal": [[5e-324, 1.0], [1.0, -5e-324]],
    "1e16": [[1e16, 1.0], [1.0, -1e16]],
    "A": A,
    "1e-12A": 1e-12 * A,
    "1e300A": 1e300 * A,
    "upper-1e308": [[1e308, 1e308j], [0.0, -1e308]],
    "rotation-1e308": [[1e308, 1e308], [-1e308, 1e308]],
    "1234": M1234,
    "family-exact": [[2.0, 1.0j], [1.0j, -2.0]],
    "family-broken": [[1.0, 2.0j], [2.0j, -1.0]],
    "jordan": [[0.0, 0.0], [1.0, 0.0]],
    "degenerate": np.diag([1.0, 1.0, 2.0]),
    "upper-1.6e308": [[8e307, 1.2e308], [0.0, 1.6e308]],
}
EDGE_INVOCATIONS = [
    ["analyze"],
    ["analyze", "--require-exact"],
    ["analyze", "--rtol", "1e-06"],
    ["metric"],
    ["hermitize"],
    ["check-pt"],
    ["check-pt", "--require-exact"],
    ["check-pt", "--atol", "0.001"],
    ["evolve", "--state", "psi.json", "--steps", "20", "--norm", "euclidean"],
    ["evolve", "--state", "psi.json", "--steps", "20", "--norm", "metric"],
]
# (H, parity, tau) for check-pt and analyze; None is the identity.
PT_PAIRS = {
    "1234-parity-1e308": (M1234, 1e308 * np.eye(2), None),
    "1234-parity-1e300-sigma1": (M1234, 1e300 * np.array([[0.0, 1.0], [1.0, 0.0]]), None),
    "1234-tau-1e308": (M1234, None, 1e308 * np.eye(2)),
    "i1234-parity-1e308": (1j * M1234, 1e308 * np.eye(2), None),
    "i1234-parity-1e300-sigma1": (1j * M1234, 1e300 * np.array([[0.0, 1.0], [1.0, 0.0]]), None),
    "i1234-tau-1e308": (1j * M1234, None, 1e308 * np.eye(2)),
    "1221-parity-cond19-1e308": ([[1.0, 2.0], [2.0, 1.0]], [[1e308, 9e307], [9e307, 1e308]], None),
    "pt-underflow": (np.diag([0.0, 0.0, 2.0**-10 * 1j]), 2.0**-229 * np.eye(3)[::-1],
                     np.diag([0.0, 0.0, 2.0**-299 * 1j])),
    "pt-overflow-2^299": (1j * M1234, 2.0**299 * np.eye(2), 2.0**299 * np.eye(2)),
    "pt-2^600": (1j * M1234, 2.0**600 * np.eye(2), None),
}
FAMILY_ARGV = [
    ["family", "symmetric", "--s", "1", "--t", "2"],
    ["family", "general", "--s", "1", "--t", "1", "--u", "1"],
    ["family", "general-t", "--s", "1", "--t", "2", "--xi", "1.5707963267948966",
     "--zeta", "1.5707963267948966"],
    ["family", "symmetric", "--s", "2", "--t", "1"],
    ["family", "symmetric", "--s", "2", "--t", "1", "--allow-broken"],
    ["family", "symmetric", "--s", "1", "--t", "2", "--atol", "1e-3"],
    ["family", "symmetric", "--s", "1", "--t", "2", "--rtol", "1e-3"],
]


def _symmetric_family(r, s, t, phi):
    c, sn = np.cos(phi), np.sin(phi)
    h = np.array([[r + t * c - 1j * s * sn, t * sn + 1j * s * c],
                  [t * sn + 1j * s * c, r - t * c + 1j * s * sn]])
    return h, np.array([[c, sn], [sn, -c]])


def corpus():
    """``(id, argv, documents)`` for every case, in manifest order."""
    gen = _load_gen()
    for seed in range(1, 5):
        for cycle in range(2):
            for slot, case in enumerate(gen.cli_cycle(seed, cycle)):
                if all(doc["dim"] <= 64 for doc in case.docs.values()):
                    yield f"cycle/{seed}/{cycle}/{slot:02d}", case.argv, case.docs

    for name, m in EDGE_MATRICES.items():
        m = np.asarray(m, dtype=complex)
        docs = {"H.json": matrix_doc(m), "psi.json": state_doc(np.ones(m.shape[0]))}
        for invocation in EDGE_INVOCATIONS:
            yield f"edge/{name}/{' '.join(invocation)}", [invocation[0], "H.json", *invocation[1:]], docs

    for name, (h, parity, tau) in PT_PAIRS.items():
        docs, flags = {"H.json": matrix_doc(h)}, []
        for flag, m in (("--parity", parity), ("--tau", tau)):
            if m is not None:
                docs[f"{flag[2:]}.json"] = matrix_doc(m)
                flags += [flag, f"{flag[2:]}.json"]
        for command in ("check-pt", "analyze"):
            yield f"pt/{name}/{command}", [command, "H.json", *flags], docs

    # the near-exceptional-point sweep s/t = 1 - 10^-k, r = 0 included; check-pt
    # reaches its verdict through the code analyze runs
    for r in (0.0, 1e-6, 1e-3, 0.2, 10.0):
        for k in range(1, 16):
            for phi in (0.0, 1.1):
                h, parity = _symmetric_family(r, 1.0 - 10.0**-k, 1.0, phi)
                docs = {"H.json": matrix_doc(h), "P.json": matrix_doc(parity)}
                for command in ("metric", "hermitize", "analyze"):
                    flags = ["--parity", "P.json"] if command == "analyze" else []
                    yield f"near-ep/{r!r}/{k}/{phi!r}/{command}", [command, "H.json", *flags], docs

    for argv in FAMILY_ARGV:
        yield f"family/{' '.join(argv[1:])}", argv, {}

    docs = {"H.json": matrix_doc([[2.0, 1.0j], [1.0j, -2.0]]), "psi.json": state_doc([1.0, 0.0])}
    for argv in (["metric", "H.json"], ["hermitize", "H.json"],
                 ["evolve", "H.json", "--state", "psi.json", "--steps", "20"]):
        yield f"tolerance-flag/{argv[0]} --atol", [*argv, "--atol", "1e-3"], docs

    # a negative tolerance is malformed input, as a non-finite one is
    for argv in (["analyze", "H.json", "--rtol", "-1"], ["check-pt", "H.json", "--atol", "-1"],
                 ["evolve", "H.json", "--state", "psi.json", "--norm", "metric", "--rtol", "-1"]):
        yield f"negative-tolerance/{argv[0]} {argv[-2]}", argv, docs


def replay(argv) -> tuple:
    """``(exit code, stdout, stderr)`` of ``main(argv)``; numpy's warnings join stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return rc, out.getvalue(), err.getvalue() + warned


def replay_all(monkeypatch) -> list:
    """The manifest records of the whole corpus."""
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("PHT_RTOL", raising=False)
    # Building the parser and reading a file each cost more than a d = 2 call:
    # main() gets one parser, and each document as json.load would return it.
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    documents = {}
    monkeypatch.setattr(cli, "_load_document", documents.__getitem__)
    records = []
    for case_id, argv, docs in corpus():
        documents.clear()
        documents.update(docs)
        rc, stdout, stderr = replay(argv)
        records.append({"id": case_id, "argv": list(argv), "rc": rc,
                        "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
                        "stderr": stderr})
    return records


def read_manifest() -> list:
    return [json.loads(line) for line in MANIFEST.read_text(encoding="utf-8").splitlines()]


def moved_cases(records, manifest) -> list:
    """The records that differ from the manifest line with their id, or have none."""
    pinned = {r["id"]: r for r in manifest}
    return [r for r in records if pinned.get(r["id"]) != r]


def test_cli_replays_the_manifest_byte_for_byte(monkeypatch):
    want = read_manifest()
    got = replay_all(monkeypatch)
    assert [r["id"] for r in got] == [r["id"] for r in want]
    moved = [r["id"] for r in moved_cases(got, want)]
    assert not moved, f"{len(moved)} of {len(want)} cases moved, first: {moved[:10]}"


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        records = replay_all(mp)
    moved = moved_cases(records, read_manifest() if MANIFEST.exists() else [])
    by_command = collections.Counter(r["argv"][0] for r in moved)
    print(f"{len(moved)} of {len(records)} cases moved"
          + "".join(f", {command} {n}" for command, n in sorted(by_command.items())))
    for record in moved:
        print(f"  {record['id']}")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    print(f"wrote {len(records)} cases to {MANIFEST}")
