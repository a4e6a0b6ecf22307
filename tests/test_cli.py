"""End-to-end command tests: documents in, JSON/CSV out, exit codes."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pht import __version__
from pht.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SYMMETRY,
    CliInputError,
    _emit,
    main,
    matrix_document,
    parse_matrix_document,
    parse_state_document,
    state_document,
)
from pht.antilinear import AntilinearOperator, TimeReversalParams, check_exactness
from pht.errors import NotPTSymmetricError
from pht.families import (
    GeneralFamilyParams,
    SymmetricFamilyParams,
    general_hamiltonian,
    general_t_hamiltonian,
    reduce_general_to_symmetric,
    symmetric_hamiltonian,
    symmetric_operators,
)
from pht.linalg import eigendecompose
from pht.metric import verify_pseudo_hermiticity

# Golden values for the family point (0, 1, 2, 0), alpha = pi/6.
SEC_A = 1.1547005383792517
TAN_A = 0.5773502691896258
R_PLUS = 1.0379548493020425
R_MINUS = -0.27811916365045
SQRT3 = 1.7320508075688772
METRIC_NORM = 1.074569931823542

# "15 significant digits" on O(1) entries
GOLDEN_ATOL = 5e-15


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_matrix(tmp_path, name, matrix):
    return write_json(tmp_path, name, matrix_document(np.asarray(matrix, dtype=complex)))


def write_state(tmp_path, name, state):
    return write_json(tmp_path, name, state_document(np.asarray(state, dtype=complex)))


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    if captured.out.startswith("{"):
        # Every JSON report must be strict JSON: NaN and Infinity tokens fail here.
        json.loads(captured.out, parse_constant=_reject_constant)
    return rc, captured.out, captured.err


def family_matrix_path(tmp_path, r=0.0, s=1.0, t=2.0, phi=0.0, name="h.json"):
    h = symmetric_hamiltonian(SymmetricFamilyParams(r, s, t, phi))
    return write_matrix(tmp_path, name, h)


def test_analyze_hermitian_defaults(tmp_path, capsys):
    path = write_matrix(tmp_path, "h.json", np.diag([1.0, 2.0]))
    rc, out, _ = run(capsys, ["analyze", path])
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["classification"] == "real-diagonalizable"
    assert report["pt_symmetric"] and report["exact"] and report["metric_available"]
    npt.assert_allclose(report["eigenvalues"], [[2.0, 0.0], [1.0, 0.0]], atol=1e-12)


def test_analyze_family_with_parity(tmp_path, capsys):
    h_path = family_matrix_path(tmp_path)
    p_path = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
    rc, out, _ = run(capsys, ["analyze", h_path, "--parity", p_path])
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["pt_symmetric"] and report["exact"]
    assert report["pt_residual"] <= 1e-12
    assert report["failure_reason"] is None
    npt.assert_allclose(report["eigenvalues"], [[SQRT3, 0.0], [-SQRT3, 0.0]], atol=1e-10)


def test_analyze_broken_family(tmp_path, capsys):
    h_path = family_matrix_path(tmp_path, s=2.0, t=1.0)
    p_path = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
    rc, out, _ = run(capsys, ["analyze", h_path, "--parity", p_path])
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["classification"] == "conjugate-pairs"
    assert report["pt_symmetric"] and not report["exact"]
    assert report["failure_reason"] == "complex_eigenvalues"
    assert not report["metric_available"]
    # eigenvalues +/- i sqrt(3)
    npt.assert_allclose(report["eigenvalues"], [[0.0, SQRT3], [0.0, -SQRT3]], atol=1e-10)


def test_analyze_flags_missing_symmetry(tmp_path, capsys):
    # with the default identity parity the family commutator does not vanish
    h_path = family_matrix_path(tmp_path)
    rc, out, _ = run(capsys, ["analyze", h_path])
    assert rc == EXIT_OK
    report = json.loads(out)
    assert not report["pt_symmetric"]
    assert report["failure_reason"] == "not_pt_symmetric"
    assert not report["exact"]


def test_analyze_require_exact(tmp_path, capsys):
    h_path = family_matrix_path(tmp_path, s=2.0, t=1.0)
    p_path = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
    rc, _, _ = run(capsys, ["analyze", h_path, "--parity", p_path, "--require-exact"])
    assert rc == EXIT_SYMMETRY
    rc, _, _ = run(capsys, ["analyze", family_matrix_path(tmp_path), "--parity", p_path, "--require-exact"])
    assert rc == EXIT_OK


def test_metric_family_golden(tmp_path, capsys):
    rc, out, _ = run(capsys, ["metric", family_matrix_path(tmp_path)])
    assert rc == EXIT_OK
    bundle = json.loads(out)
    eta = parse_matrix_document(bundle["eta_plus"])
    npt.assert_allclose(eta, [[SEC_A, 1j * TAN_A], [-1j * TAN_A, SEC_A]], atol=GOLDEN_ATOL)
    npt.assert_allclose(
        parse_matrix_document(bundle["parity"]), np.diag([1.0, -1.0]), atol=GOLDEN_ATOL
    )
    npt.assert_allclose(
        parse_matrix_document(bundle["charge"]),
        [[SEC_A, 1j * TAN_A], [1j * TAN_A, -SEC_A]],
        atol=GOLDEN_ATOL,
    )
    npt.assert_allclose(
        parse_matrix_document(bundle["rho_plus"]),
        [[R_PLUS, -1j * R_MINUS], [1j * R_MINUS, R_PLUS]],
        atol=GOLDEN_ATOL,
    )


def test_metric_hermitian_input_gives_identity(tmp_path, capsys, eig_calls):
    # diag(1, 1, 2) is complex symmetric and degenerate: the transpose attempt
    # fails and the unit fallback reuses its decomposition
    for h in (np.diag([3.0, 1.0]), np.diag([1.0, 1.0, 2.0])):
        path = write_matrix(tmp_path, "h.json", h)
        eig_calls.clear()
        rc, out, _ = run(capsys, ["metric", path])
        assert rc == EXIT_OK
        eta = parse_matrix_document(json.loads(out)["eta_plus"])
        npt.assert_allclose(eta, np.eye(h.shape[0]), atol=1e-12)
        assert len(eig_calls) == 1


def test_metric_broken_input_exits_3(tmp_path, capsys):
    rc, _, err = run(capsys, ["metric", family_matrix_path(tmp_path, s=2.0, t=1.0)])
    assert rc == EXIT_SYMMETRY
    assert "ComplexSpectrum" in err


def test_metric_random_input_self_consistent(tmp_path, capsys):
    rng = np.random.default_rng(97)
    from conftest import random_similarity

    h, _ = random_similarity(rng, 8)
    path = write_matrix(tmp_path, "h.json", h)
    rc, out, _ = run(capsys, ["metric", path])
    assert rc == EXIT_OK
    bundle = json.loads(out)
    eta = parse_matrix_document(bundle["eta_plus"])
    assert verify_pseudo_hermiticity(h, eta) <= 1e-8
    assert np.linalg.eigvalsh(eta)[0] > 0.0


def test_json_documents_round_trip_exactly(tmp_path, capsys):
    rc, out, _ = run(capsys, ["metric", family_matrix_path(tmp_path)])
    assert rc == EXIT_OK
    bundle = json.loads(out)
    for key in ("eta_plus", "parity", "charge", "rho_plus"):
        m = parse_matrix_document(bundle[key])
        # serialize -> parse is the identity at full float precision
        again = parse_matrix_document(json.loads(json.dumps(matrix_document(m))))
        assert np.array_equal(m, again)


def test_hermitize_hermitian_input_is_fixed_point(tmp_path, capsys, eig_calls):
    for h in (np.array([[1.0, 0.5], [0.5, -2.0]]), np.diag([1.0, 1.0, 2.0])):
        path = write_matrix(tmp_path, "h.json", h)
        eig_calls.clear()
        rc, out, _ = run(capsys, ["hermitize", path])
        assert rc == EXIT_OK
        npt.assert_allclose(parse_matrix_document(json.loads(out)), h, atol=1e-12)
        assert len(eig_calls) == 1


def test_hermitize_family_golden(tmp_path, capsys):
    rc, out, _ = run(capsys, ["hermitize", family_matrix_path(tmp_path)])
    assert rc == EXIT_OK
    npt.assert_allclose(
        parse_matrix_document(json.loads(out)), np.diag([SQRT3, -SQRT3]), atol=GOLDEN_ATOL
    )


def test_hermitize_second_family_golden(tmp_path, capsys):
    path = family_matrix_path(tmp_path, r=1.0, s=0.6, t=1.0, phi=np.pi / 2)
    rc, out, _ = run(capsys, ["hermitize", path])
    assert rc == EXIT_OK
    h = parse_matrix_document(json.loads(out))
    npt.assert_allclose(h, [[1.0, 0.8], [0.8, 1.0]], atol=GOLDEN_ATOL)
    npt.assert_allclose(h, h.conj().T, atol=1e-9 * np.linalg.norm(h))


def test_family_symmetric_golden_bundle(tmp_path, capsys):
    rc, out, _ = run(capsys, ["family", "symmetric", "--s", "1", "--t", "2"])
    assert rc == EXIT_OK
    bundle = json.loads(out)
    assert bundle["kind"] == "symmetric" and bundle["broken"] is False
    npt.assert_allclose(
        parse_matrix_document(bundle["hamiltonian"]),
        [[2.0, 1.0j], [1.0j, -2.0]],
        atol=GOLDEN_ATOL,
    )
    npt.assert_allclose(
        parse_matrix_document(bundle["eta_plus"]),
        [[SEC_A, 1j * TAN_A], [-1j * TAN_A, SEC_A]],
        atol=GOLDEN_ATOL,
    )
    npt.assert_allclose(
        parse_matrix_document(bundle["rho_plus"]),
        [[R_PLUS, -1j * R_MINUS], [1j * R_MINUS, R_PLUS]],
        atol=GOLDEN_ATOL,
    )
    npt.assert_allclose(
        parse_matrix_document(bundle["hermitian_h"]), np.diag([SQRT3, -SQRT3]), atol=GOLDEN_ATOL
    )


def test_family_general_golden(tmp_path, capsys):
    rc, out, _ = run(
        capsys, ["family", "general", "--s", "1", "--t", "1", "--u", "1"]
    )
    assert rc == EXIT_OK
    bundle = json.loads(out)
    h = parse_matrix_document(bundle["hamiltonian"])
    npt.assert_allclose(h, [[1.0, 0.0], [2.0j, -1.0]], atol=GOLDEN_ATOL)
    # the conjugated bundle stays internally consistent
    eta = parse_matrix_document(bundle["eta_plus"])
    assert verify_pseudo_hermiticity(h, eta) <= 1e-10
    charge = parse_matrix_document(bundle["charge"])
    npt.assert_allclose(charge @ charge, np.eye(2), atol=1e-10)
    npt.assert_allclose(h @ charge, charge @ h, atol=1e-10)


def test_family_general_t_golden(tmp_path, capsys):
    argv = [
        "family", "general-t",
        "--s", "1", "--t", "2",
        "--xi", str(np.pi / 2), "--zeta", str(np.pi / 2),
    ]
    rc, out, _ = run(capsys, argv)
    assert rc == EXIT_OK
    bundle = json.loads(out)
    npt.assert_allclose(
        parse_matrix_document(bundle["hamiltonian"]), [[2.0, -1.0], [1.0, -2.0]], atol=1e-12
    )
    npt.assert_allclose(
        parse_matrix_document(bundle["tau"]), [[1.0j, 0.0], [0.0, -1.0j]], atol=1e-12
    )
    npt.assert_allclose(
        parse_matrix_document(bundle["pt_parity"]), np.diag([1.0, -1.0]), atol=1e-12
    )
    u = parse_matrix_document(bundle["u"])
    npt.assert_allclose(u @ u, parse_matrix_document(bundle["tau"]), atol=1e-12)


@pytest.mark.parametrize(
    "r, s, t, u, phi",
    [(0.0, 1.0, 1.0, 1.0, 0.0), (0.3, -0.7, 1.1, 0.4, 2.5), (-1.0, 0.2, -0.9, -0.6, 5.9)],
)
def test_family_general_output_is_the_library_bit_for_bit(capsys, r, s, t, u, phi):
    params = GeneralFamilyParams(r, s, t, u, phi)
    reduction = reduce_general_to_symmetric(params)
    u1 = reduction.u1
    ops = symmetric_operators(reduction.params)
    flags = ["--r", repr(r), "--s", repr(s), "--t", repr(t), "--u", repr(u), "--phi", repr(phi)]

    rc, out, _ = run(capsys, ["family", "general", *flags])
    assert rc == EXIT_OK
    bundle = json.loads(out)
    assert np.array_equal(parse_matrix_document(bundle["hamiltonian"]), general_hamiltonian(params))
    for key in ("eta_plus", "parity", "charge", "rho_plus", "hermitian_h"):
        expected = u1 @ getattr(ops, key) @ u1.conj().T
        assert np.array_equal(parse_matrix_document(bundle[key]), expected), key

    tparams = TimeReversalParams(0.4, 1.3, 2.2)
    system = general_t_hamiltonian(params, tparams)
    angles = ["--gamma", "0.4", "--xi", "1.3", "--zeta", "2.2"]
    rc, out, _ = run(capsys, ["family", "general-t", *flags, *angles])
    assert rc == EXIT_OK
    bundle = json.loads(out)
    assert np.array_equal(parse_matrix_document(bundle["hamiltonian"]), system.hamiltonian)
    assert np.array_equal(parse_matrix_document(bundle["pt_parity"]), system.parity)
    assert np.array_equal(parse_matrix_document(bundle["tau"]), system.time_reversal.tau)


def test_family_general_t_allow_broken_emits_the_hamiltonian(capsys):
    argv = ["family", "general-t", "--s", "2", "--t", "1", "--u", "0.5", "--xi", "0.7"]
    rc, out, err = run(capsys, argv)
    assert rc == EXIT_SYMMETRY and out == "" and "--allow-broken" in err
    rc, out, _ = run(capsys, [*argv, "--allow-broken"])
    assert rc == EXIT_OK
    bundle = json.loads(out)
    assert bundle["broken"] is True
    assert list(bundle) == ["kind", "broken", "hamiltonian", "u", "tau", "pt_parity"]
    h = parse_matrix_document(bundle["hamiltonian"])
    u = parse_matrix_document(bundle["u"])
    broken = general_hamiltonian(GeneralFamilyParams(0.0, 2.0, 1.0, 0.5, 0.0))
    assert np.array_equal(h, u @ broken @ u.conj().T)


FLOAT_FLAGS = ["--r", "--s", "--t", "--u", "--phi", "--gamma", "--xi", "--zeta"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["symmetric", "general", "general-t"])
def test_family_rejects_non_finite_flags(capsys, kind, value):
    for flag in FLOAT_FLAGS:
        with pytest.raises(SystemExit) as exc:
            main(["family", kind, "--s", "1", "--t", "2", f"{flag}={value}"])
        assert exc.value.code == EXIT_INPUT, flag
        assert capsys.readouterr().out == ""


OVERFLOW_ERROR = "error: result is not finite: the input overflows double precision\n"


@pytest.mark.parametrize("kind", ["symmetric", "general", "general-t"])
def test_family_overflow_exits_2(capsys, kind):
    rc, out, err = run(capsys, ["family", kind, "--r", "1e308", "--t", "1e308"])
    assert rc == EXIT_INPUT and out == ""
    assert err == OVERFLOW_ERROR


def python_m_pht(*argv):
    """``(exit code, stdout, stderr)`` of ``python -m pht`` in a fresh interpreter."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pht", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "flags",
    [
        ["symmetric", "--r", "1e308", "--t", "1e308", "--s", "0.5", "--phi", "0.1"],
        ["general", "--r", "1e308", "--t", "1e308", "--s", "0.5", "--phi", "0.1", "--u", "1e308"],
    ],
)
def test_family_overflow_prints_only_the_error_line(flags):
    # a fresh interpreter prints numpy's RuntimeWarnings, which pytest would capture
    assert python_m_pht("family", *flags) == (EXIT_INPUT, "", OVERFLOW_ERROR)


def test_module_entry_point_prints_the_version():
    # python -m pht is the one module entry point; the pht script calls the same main
    assert python_m_pht("--version") == (EXIT_OK, f"pht {__version__}\n", "")


# Entries near the top of the double range: Frobenius norms of these overflow.
UPPER_TRIANGULAR_1E308 = [[1e308, 1e308j], [0.0, -1e308]]
ROTATION_1E308 = [[1e308, 1e308], [-1e308, 1e308]]


def test_pt_residual_near_the_double_limit_is_finite(tmp_path, capsys):
    # ||H - conj(H)|| / ||H|| = 2 / sqrt(3): both norms overflow unless rescaled
    path = write_matrix(tmp_path, "h.json", UPPER_TRIANGULAR_1E308)
    rc, out, err = run(capsys, ["check-pt", path])
    want = {"dim": 2, "pt_residual": 1.1547005383792517, "pt_symmetric": False,
            "exact": None, "failure_reason": None}
    assert (rc, out, err) == (EXIT_OK, emitted(want), "")
    rc, out, err = run(capsys, ["analyze", path])
    assert (rc, err) == (EXIT_OK, "")
    assert json.loads(out)["pt_residual"] == 1.1547005383792517


def test_commands_near_the_double_limit_print_no_warnings(tmp_path, capsys):
    path = write_matrix(tmp_path, "h.json", ROTATION_1E308)
    rc, out, err = run(capsys, ["check-pt", path])
    want = {"dim": 2, "pt_residual": 0.0, "pt_symmetric": True,
            "exact": False, "failure_reason": "complex_eigenvalues"}
    assert (rc, out, err) == (EXIT_OK, emitted(want), "")
    rc, out, err = run(capsys, ["analyze", path])
    assert (rc, err) == (EXIT_OK, "")
    assert json.loads(out)["classification"] == "conjugate-pairs"
    for command in ("metric", "hermitize"):
        rc, out, err = run(capsys, [command, path])
        assert (rc, out) == (EXIT_SYMMETRY, "")
        assert err.startswith("error: ComplexSpectrumError: ") and err.count("\n") == 1


@pytest.mark.parametrize("scale", [1e-12, 1e300])
def test_metric_does_not_depend_on_the_scale_of_h(tmp_path, capsys, scale):
    # At 1e-12 an absolute floor would pass this non-symmetric H through the
    # transpose gate; at 1e300 an overflowing ||H|| would put both eigenvalues
    # in one cluster and mix their eigenvectors.
    a = np.array([[1.0, 1.5], [0.0, -1.0]])
    reports = {}
    for name, h in (("one", a), ("scaled", scale * a)):
        path = write_matrix(tmp_path, f"{name}.json", h)
        rc, out, err = run(capsys, ["metric", path])
        assert (rc, err) == (EXIT_OK, "")
        reports[name] = json.loads(out)
        rc, out, err = run(capsys, ["hermitize", path])
        assert (rc, err) == (EXIT_OK, "")
        reports[name]["partner"] = parse_matrix_document(json.loads(out)) / np.max(np.abs(h))
    for key in ("eta_plus", "rho_plus", "parity", "charge"):
        got = parse_matrix_document(reports["scaled"][key])
        npt.assert_allclose(got, parse_matrix_document(reports["one"][key]), rtol=0, atol=1e-14)
    npt.assert_allclose(reports["scaled"]["partner"], reports["one"]["partner"], rtol=0, atol=1e-14)
    eta = parse_matrix_document(reports["scaled"]["eta_plus"])
    assert np.linalg.norm(a.T @ eta - eta @ a) <= 1e-15 * np.linalg.norm(a) * np.linalg.norm(eta)


def test_pt_residual_is_scaled_out_of_a_huge_parity(tmp_path, capsys):
    # a real H commutes with c 1 K for every c: the residual is exactly 0
    h_path = write_matrix(tmp_path, "h.json", [[1.0, 2.0], [3.0, 4.0]])
    p_path = write_matrix(tmp_path, "p.json", 1e308 * np.eye(2))
    rc, out, err = run(capsys, ["check-pt", h_path, "--parity", p_path])
    want = {"dim": 2, "pt_residual": 0.0, "pt_symmetric": True, "exact": True, "failure_reason": None}
    assert (rc, out, err) == (EXIT_OK, emitted(want), "")
    rc, out, err = run(capsys, ["analyze", h_path, "--parity", p_path])
    assert (rc, err) == (EXIT_OK, "")
    assert json.loads(out)["pt_residual"] == 0.0


def test_a_huge_well_conditioned_parity_is_not_singular(tmp_path, capsys):
    # cond(P) = 19, but the largest singular value of P overflows unless scaled
    h_path = write_matrix(tmp_path, "h.json", [[1.0, 2.0], [2.0, 1.0]])
    p_path = write_matrix(tmp_path, "p.json", [[1e308, 9e307], [9e307, 1e308]])
    rc, out, err = run(capsys, ["check-pt", h_path, "--parity", p_path])
    want = {"dim": 2, "pt_residual": 0.0, "pt_symmetric": True, "exact": True, "failure_reason": None}
    assert (rc, out, err) == (EXIT_OK, emitted(want), "")


# (H, P, tau) pairs on which the commutator gate passes, fails, or the
# columns are refused: each kind of verdict check_exactness reaches
ONE_VERDICT_PAIRS = {
    "2K": ([[1.0, 2.0], [0.5, -1.0]], np.eye(2), 2.0 * np.eye(2)),
    "non-unitary-involution": (0.3 * np.eye(2) + 0.7 * np.array([[1.0, 40.0], [0.0, -1.0]]),
                               [[1.0, 40.0], [0.0, -1.0]], np.eye(2)),
    "cluster": (np.diag([1.0, 1.0, -1.0]), np.eye(3), np.eye(3)),
    "broken-family": ([[1.0, 2.0j], [2.0j, -1.0]], np.diag([1.0, -1.0]), np.eye(2)),
    "jordan": ([[1.0, 1.0], [0.0, 1.0]], np.eye(2), np.eye(2)),
    "not-pt": (1j * np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2), np.eye(2)),
    "non-scalar-cluster": (np.diag([1.0, 1.0, -1.0]), np.eye(3),
                           [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    # PT = 0 maps every eigenvector to 0 psi, and P tau has no norm to divide by
    "zero-tau": ([[1.0, 2.0], [0.5, -1.0]], np.eye(2), np.zeros((2, 2))),
    "zero-tau-cluster": (np.diag([1.0, 1.0, -1.0]), np.eye(3), np.zeros((3, 3))),
    # a residual below --atol that is 1.17 relative to ||P tau||_F
    "tiny-tau": ([[1.0, 2.0], [0.5, -1.0]], np.diag([1.0, -1.0]), 1e-12 * np.eye(2)),
}


@pytest.mark.parametrize("name", sorted(ONE_VERDICT_PAIRS))
def test_analyze_and_check_pt_print_the_verdict_of_check_exactness(tmp_path, capsys, name):
    h, parity, tau = ONE_VERDICT_PAIRS[name]
    h_path = write_matrix(tmp_path, "h.json", h)
    flags = ["--parity", write_matrix(tmp_path, "p.json", parity), "--tau", write_matrix(tmp_path, "t.json", tau)]
    try:
        report = check_exactness(eigendecompose(h), parity, AntilinearOperator(tau))
    except NotPTSymmetricError as exc:
        for command in ("check-pt", "analyze"):
            assert run(capsys, [command, h_path, *flags]) == (EXIT_SYMMETRY, "", f"error: NotPTSymmetricError: {exc}\n")
        return
    pt_symmetric = report.failure_reason != "not_pt_symmetric"
    rc, out, err = run(capsys, ["check-pt", h_path, *flags])
    want = {"dim": len(h), "pt_residual": report.pt_residual, "pt_symmetric": pt_symmetric,
            "exact": report.exact if pt_symmetric else None,
            "failure_reason": report.failure_reason if pt_symmetric else None}
    assert (rc, out, err) == (EXIT_OK, emitted(want), "")
    rc, out, err = run(capsys, ["analyze", h_path, *flags])
    assert (rc, err) == (EXIT_OK, "")
    got = json.loads(out)
    assert (got["pt_residual"], got["pt_symmetric"], got["exact"], got["failure_reason"]) == (
        report.pt_residual, pt_symmetric, report.exact, report.failure_reason
    )


def test_non_finite_result_exits_2_without_output(tmp_path, capsys):
    # ||H - conj(H)|| / ||H|| = 2 for an imaginary H, so with a parity of
    # norm 1e308 the PT residual itself overflows
    h_path = write_matrix(tmp_path, "h.json", [[1j, 2j], [3j, 4j]])
    p_path = write_matrix(tmp_path, "p.json", 1e308 * np.eye(2))
    for command in ("check-pt", "analyze"):
        rc, out, err = run(capsys, [command, h_path, "--parity", p_path])
        assert (rc, out, err) == (EXIT_INPUT, "", OVERFLOW_ERROR)
    with pytest.raises(CliInputError, match="result is not finite"):
        emitted({"pt_residual": float("inf")})


def test_metric_and_hermitize_agree_near_the_exceptional_point(tmp_path, capsys):
    for k in range(1, 13):
        for phi in (0.0, 0.3, 1.1):
            path = family_matrix_path(tmp_path, 0.2, 1.0 - 10.0**-k, 1.0, phi)
            codes = [run(capsys, [command, path])[0] for command in ("metric", "hermitize")]
            assert codes[0] == codes[1], (k, phi, codes)


@pytest.mark.parametrize("value", ["nan", "-inf"])
@pytest.mark.parametrize("flag", ["--t0", "--t1"])
def test_evolve_rejects_non_finite_window(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "h.json", "--state", "psi.json", f"{flag}={value}"])
    assert exc.value.code == EXIT_INPUT


def test_family_broken_exit_and_allow_broken(capsys):
    rc, _, err = run(capsys, ["family", "symmetric", "--s", "2", "--t", "1"])
    assert rc == EXIT_SYMMETRY
    assert "--allow-broken" in err
    rc, out, _ = run(capsys, ["family", "symmetric", "--s", "2", "--t", "1", "--allow-broken"])
    assert rc == EXIT_OK
    bundle = json.loads(out)
    assert bundle["broken"] is True
    assert set(bundle) == {"kind", "broken", "hamiltonian"}  # no operator bundle


def test_evolve_metric_norm_constant_golden(tmp_path, capsys):
    h_path = family_matrix_path(tmp_path)
    s_path = write_state(tmp_path, "psi.json", [1.0, 0.0])
    rc, out, _ = run(
        capsys,
        ["evolve", h_path, "--state", s_path, "--t0", "0", "--t1", "2", "--steps", "8", "--norm", "metric"],
    )
    assert rc == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "t,norm"
    assert len(lines) == 10
    norms = np.array([float(line.split(",")[1]) for line in lines[1:]])
    npt.assert_allclose(norms, METRIC_NORM, rtol=1e-14)


def test_evolve_euclidean_hermitian_constant(tmp_path, capsys):
    h_path = write_matrix(tmp_path, "h.json", np.array([[0.0, 1.0], [1.0, 0.0]]))
    s_path = write_state(tmp_path, "psi.json", [1.0, 0.0])
    rc, out, _ = run(capsys, ["evolve", h_path, "--state", s_path, "--steps", "5"])
    assert rc == EXIT_OK
    norms = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    npt.assert_allclose(norms, 1.0, atol=1e-12)


def test_evolve_broken_euclidean_grows(tmp_path, capsys):
    h_path = family_matrix_path(tmp_path, s=2.0, t=1.0)
    s_path = write_state(tmp_path, "psi.json", [1.0, 0.0])
    rc, out, _ = run(
        capsys, ["evolve", h_path, "--state", s_path, "--t1", "4", "--steps", "40"]
    )
    assert rc == EXIT_OK
    norms = np.array([float(line.split(",")[1]) for line in out.strip().splitlines()[1:]])
    assert norms[-1] > 50.0  # ~ exp(sqrt(3) * 4) / 2
    assert np.all(np.diff(norms[5:]) > 0.0)  # monotone envelope after onset


def test_evolve_overflow_exits_2(tmp_path, capsys):
    # eigenvalues +-i: the norm reaches e^750 at t = 750 and overflows
    h_path = write_matrix(tmp_path, "b.json", np.array([[0.0, 1.0], [-1.0, 0.0]]))
    s_path = write_state(tmp_path, "psi.json", [1.0, 0.0])
    with np.errstate(all="ignore"):
        rc, out, err = run(capsys, ["evolve", h_path, "--state", s_path, "--t1", "1000", "--steps", "4"])
    assert rc == EXIT_INPUT and out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "state, expected",
    [([1.0, 0.0], math.exp(400.0) / math.sqrt(2.0)), ([1.0, -1j], math.sqrt(2.0) * math.exp(-400.0))],
    ids=["square-overflows", "square-underflows"],
)
def test_evolve_prints_a_norm_whose_square_leaves_the_double_range(tmp_path, capsys, state, expected):
    # eigenvalues +-i: at t = 400 the state is finite, but its squared norm
    # overflows (growing mode) or underflows (decaying mode)
    h_path = write_matrix(tmp_path, "b.json", np.array([[0.0, 1.0], [-1.0, 0.0]]))
    s_path = write_state(tmp_path, "psi.json", state)
    rc, out, err = run(capsys, ["evolve", h_path, "--state", s_path, "--t1", "400", "--steps", "4"])
    assert rc == EXIT_OK and err == ""
    t, norm = out.strip().splitlines()[-1].split(",")
    assert t == "400"
    assert float(norm) == pytest.approx(expected, rel=1e-12, abs=0)


def test_evolve_decomposes_h_once(tmp_path, capsys, eig_calls):
    # the metric norm and the propagation share the CLI's one
    # eigendecomposition, made with --rtol; the EvolutionSpec makes none
    h_path = write_matrix(tmp_path, "h.json", np.array([[2.0, 1j], [1j, -2.0]]))
    s_path = write_state(tmp_path, "psi.json", [1.0, 0.0])
    for norm in ("metric", "euclidean"):
        eig_calls.clear()
        rc, out, _ = run(capsys, ["evolve", h_path, "--state", s_path, "--norm", norm])
        assert rc == EXIT_OK and len(out.splitlines()) == 102
        assert len(eig_calls) == 1, norm


def test_evolve_broken_metric_exits_3(tmp_path, capsys):
    h_path = family_matrix_path(tmp_path, s=2.0, t=1.0)
    s_path = write_state(tmp_path, "psi.json", [1.0, 0.0])
    rc, _, err = run(capsys, ["evolve", h_path, "--state", s_path, "--norm", "metric"])
    assert rc == EXIT_SYMMETRY
    assert "NoPositiveMetric" in err
    # the refusal names the measured |Im w| = sqrt(3) and its reality bound
    assert "|Im w| = 1.732e+00 exceeds its reality bound" in err


def test_evolve_rejects_bad_window_and_state(tmp_path, capsys):
    h_path = family_matrix_path(tmp_path)
    s_path = write_state(tmp_path, "psi.json", [1.0, 0.0, 0.0])
    rc, _, _ = run(capsys, ["evolve", h_path, "--state", s_path])
    assert rc == EXIT_INPUT  # state dimension mismatch
    s_path = write_state(tmp_path, "psi2.json", [1.0, 0.0])
    rc, _, _ = run(capsys, ["evolve", h_path, "--state", s_path, "--t0", "2", "--t1", "1"])
    assert rc == EXIT_INPUT


def test_check_pt_family(tmp_path, capsys):
    h_path = family_matrix_path(tmp_path)
    p_path = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
    rc, out, _ = run(capsys, ["check-pt", h_path, "--parity", p_path])
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["pt_symmetric"] and report["exact"]
    assert report["pt_residual"] <= 1e-12


def test_check_pt_require_exact_broken(tmp_path, capsys):
    h_path = family_matrix_path(tmp_path, s=2.0, t=1.0)
    p_path = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
    rc, out, _ = run(capsys, ["check-pt", h_path, "--parity", p_path, "--require-exact"])
    assert rc == EXIT_SYMMETRY
    report = json.loads(out)
    assert report["failure_reason"] == "complex_eigenvalues"


def test_check_pt_singular_parity(tmp_path, capsys):
    h_path = family_matrix_path(tmp_path)
    p_path = write_matrix(tmp_path, "p.json", np.zeros((2, 2)))
    rc, _, err = run(capsys, ["check-pt", h_path, "--parity", p_path])
    assert rc == EXIT_SYMMETRY
    assert "SingularParity" in err


@pytest.mark.parametrize(
    "h, parity",
    [
        (symmetric_hamiltonian(SymmetricFamilyParams(0.0, 1.0, 2.0, 0.0)), np.diag([1.0, -1.0])),
        (symmetric_hamiltonian(SymmetricFamilyParams(0.0, 2.0, 1.0, 0.0)), np.diag([1.0, -1.0])),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)),
        (np.diag([1.0, 1.0, 2.0]), np.eye(3)),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2)),
    ],
    ids=["exact-family", "broken-family", "jordan-block", "degenerate-cluster", "rotation"],
)
def test_analyze_and_check_pt_reach_the_same_verdict(tmp_path, capsys, h, parity):
    h_path = write_matrix(tmp_path, "h.json", h)
    p_path = write_matrix(tmp_path, "p.json", parity)
    verdicts = []
    for command in ("analyze", "check-pt"):
        rc, out, _ = run(capsys, [command, h_path, "--parity", p_path])
        assert rc == EXIT_OK
        report = json.loads(out)
        assert report["pt_symmetric"]
        verdicts.append((report["exact"], report["failure_reason"]))
    assert verdicts[0] == verdicts[1]


def test_parity_dimension_mismatch_exits_2(tmp_path, capsys):
    h_path = family_matrix_path(tmp_path)
    p_path = write_matrix(tmp_path, "p.json", np.eye(3))
    for command in ("analyze", "check-pt"):
        rc, out, err = run(capsys, [command, h_path, "--parity", p_path])
        assert rc == EXIT_INPUT and out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "payload",
    [
        {"entries": [[[1.0, 0.0]]]},  # missing dim
        {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]]]},  # wrong row count
        {"dim": 1, "entries": [[[1.0]]]},  # entry is not an [re, im] pair
        {"dim": 1, "entries": [[["1", "0"]]]},  # non-numeric entry
        {"dim": True, "entries": []},  # boolean dim
        {"dim": 1, "entries": [[[1e999, 0.0]]]},  # serializes as Infinity
        [1, 2, 3],  # not an object
    ],
)
def test_malformed_matrix_documents_exit_2(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    rc, _, err = run(capsys, ["analyze", str(path)])
    assert rc == EXIT_INPUT
    assert err.startswith("error:")


OVERSIZED_INT = "1" + "0" * 400

# (label, what follows the first good [re, im] pair, stderr of a matrix
# document, stderr of a state document); the pair is the first of row 0 of a
# 2x2 matrix and the first pair of a 2-vector.
MALFORMED_ENTRIES = [
    ("true", ", [true, 0.0]", "expected an [re, im] pair, got [True, 0.0]", None),
    ("numeric string", ', ["1.5", 0.0]', "expected an [re, im] pair, got ['1.5', 0.0]", None),
    ("null", ", [0.0, null]", "expected an [re, im] pair, got [0.0, None]", None),
    ("object", ', {"re": 1.0, "im": 0.0}', "expected an [re, im] pair, got {'re': 1.0, 'im': 0.0}", None),
    ("triple", ", [1.0, 0.0, 0.0]", "expected an [re, im] pair, got [1.0, 0.0, 0.0]", None),
    ("short row", "", "row 0 must hold 2 [re, im] pairs", "entries must be a list of 2 pairs"),
    ("NaN token", ", [NaN, 0.0]", "non-finite entry in document", None),
    ("1e400", ", [0.0, 1e400]", "non-finite entry in document", None),
    (
        "oversized integer",
        f", [{OVERSIZED_INT}, 0.0]",
        f"entry [{OVERSIZED_INT}, 0.0] overflows double precision",
        None,
    ),
]


def _malformed_documents(tail):
    matrix = '{"dim": 2, "entries": [[[1.0, 0.0]%s], [[0.0, 0.0], [1.0, 0.0]]]}' % tail
    state = '{"dim": 2, "entries": [[1.0, 0.0]%s]}' % tail
    return matrix, state


@pytest.mark.parametrize(
    "tail, matrix_err, state_err",
    [row[1:] for row in MALFORMED_ENTRIES],
    ids=[row[0] for row in MALFORMED_ENTRIES],
)
def test_malformed_entries_exit_2_with_the_entry_message(tmp_path, capsys, tail, matrix_err, state_err):
    matrix, state = _malformed_documents(tail)
    (tmp_path / "bad_h.json").write_text(matrix)
    (tmp_path / "bad_psi.json").write_text(state)
    good_h = write_matrix(tmp_path, "h.json", np.diag([1.0, -1.0]))
    rc, out, err = run(capsys, ["analyze", str(tmp_path / "bad_h.json")])
    assert (rc, out, err) == (EXIT_INPUT, "", f"error: {matrix_err}\n")
    rc, out, err = run(capsys, ["evolve", good_h, "--state", str(tmp_path / "bad_psi.json")])
    assert (rc, out, err) == (EXIT_INPUT, "", f"error: {state_err or matrix_err}\n")


def test_oversized_integer_exits_2_everywhere(tmp_path, capsys):
    matrix, state = _malformed_documents(f", [0.0, -{OVERSIZED_INT}]")
    bad = tmp_path / "bad.json"
    bad.write_text(matrix)
    (tmp_path / "bad_psi.json").write_text(state)
    good_h = write_matrix(tmp_path, "h.json", np.diag([1.0, -1.0]))
    psi = write_state(tmp_path, "psi.json", [1.0, 0.0])
    expected = f"error: entry [0.0, -{OVERSIZED_INT}] overflows double precision\n"
    for argv in (
        ["analyze", str(bad)],
        ["metric", str(bad)],
        ["hermitize", str(bad)],
        ["check-pt", str(bad)],
        ["evolve", str(bad), "--state", psi],
        ["analyze", good_h, "--parity", str(bad)],
        ["check-pt", good_h, "--parity", str(bad)],
        ["evolve", good_h, "--state", str(tmp_path / "bad_psi.json")],
    ):
        assert run(capsys, argv) == (EXIT_INPUT, "", expected), argv
    # past the interpreter's digit limit json.load itself refuses the integer
    bad.write_text('{"dim": 1, "entries": [[[%s, 0.0]]]}' % ("1" * 5000))
    rc, out, err = run(capsys, ["analyze", str(bad)])
    assert rc == EXIT_INPUT and out == "" and err.startswith("error: ")


def test_unreadable_and_invalid_json_exit_2(tmp_path, capsys):
    rc, _, _ = run(capsys, ["analyze", str(tmp_path / "missing.json")])
    assert rc == EXIT_INPUT
    bad = tmp_path / "notjson.json"
    bad.write_text("{this is not json")
    rc, _, _ = run(capsys, ["analyze", str(bad)])
    assert rc == EXIT_INPUT


def test_state_document_validation(tmp_path, capsys):
    h_path = family_matrix_path(tmp_path)
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps({"dim": 2, "entries": [[1.0, 0.0]]}))
    rc, _, _ = run(capsys, ["evolve", h_path, "--state", str(bad)])
    assert rc == EXIT_INPUT


def emitted(report) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(report)
    return buf.getvalue()


def test_every_report_is_emitted_as_json_dumps_indent_2(tmp_path, capsys, monkeypatch):
    reports = []

    def recording_emit(report):
        reports.append(report)
        _emit(report)

    monkeypatch.setattr("pht.cli._emit", recording_emit)
    jordan = write_matrix(tmp_path, "j.json", np.array([[0.0, 0.0], [1.0, 0.0]]))
    family = family_matrix_path(tmp_path, r=0.3, s=1.0, t=2.0, phi=0.7)
    one = write_matrix(tmp_path, "one.json", [[2.5]])
    parity = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
    general_t = ["--s", "1", "--t", "2", "--u", "0.3", "--xi", "1.3", "--zeta", "0.4", "--gamma", "0.2"]
    for argv in (
        ["analyze", jordan],  # null eigvec_condition
        ["analyze", family, "--parity", parity],
        ["check-pt", family, "--parity", parity],
        ["metric", family],  # four-matrix bundle
        ["hermitize", family],  # top-level matrix document
        ["family", "general-t", *general_t],  # u, tau and pt_parity
        ["family", "symmetric", "--s", "2", "--t", "1", "--allow-broken"],
        ["analyze", one],
        ["metric", one],
        ["hermitize", one],
    ):
        reports.clear()
        rc, out, _ = run(capsys, argv)
        assert rc == EXIT_OK and len(reports) == 1, argv
        assert out == json.dumps(reports[0], indent=2) + "\n", argv
    assert reports[0]["dim"] == 1 and json.loads(out)["entries"] == [[[2.5, 0.0]]]


def test_emit_prints_each_float_by_its_repr():
    re = np.array([[-0.0, 0.1, 5e-324], [1e-7, 1e16, 1.7976931348623157e308], [-1e-7, -5e-324, 0.0]])
    m = np.empty((3, 3), dtype=complex)
    m.real, m.imag = re, -re.T
    state = np.array([0.1, -0.0, 1e16]) - 1j * np.array([5e-324, 1e-7, -0.0])
    bundle = {
        "dim": 3,
        "a": matrix_document(m),
        "state": state_document(state),
        # the keys of a matrix document, with a state's entries
        "vector": {"dim": 3, "entries": state_document(state)["entries"]},
        "nested": {"b": matrix_document(m.T), "flag": None},
    }
    for report in (matrix_document(m), bundle, matrix_document(m[:1, :1])):
        assert emitted(report) == json.dumps(report, indent=2) + "\n"
    text = emitted(matrix_document(m))
    for token in ("-0.0", "0.1", "5e-324", "1e-07", "1e+16", "1.7976931348623157e+308"):
        assert f" {token}," in text or f" {token}\n" in text, token


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.lists(finite_floats, min_size=2 * d * d, max_size=2 * d * d)))
def test_emit_matches_json_dumps_on_random_matrices(values):
    d = int(round(np.sqrt(len(values) // 2)))
    m = np.array(values, dtype=float).reshape(d, d, 2).view(complex)[..., 0]
    for report in (matrix_document(m), {"dim": d, "h": matrix_document(m), "t": matrix_document(m.T)}):
        text = emitted(report)
        assert text == json.dumps(report, indent=2) + "\n"
        doc = json.loads(text)
        parsed = parse_matrix_document(doc if "entries" in doc else doc["h"])
        assert np.array_equal(parsed.view(float), m.view(float))


numbers = st.one_of(finite_floats, st.integers(-(2**1030), 2**1030))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(numbers, min_size=2 * d * d, max_size=2 * d * d)))
def test_parse_matches_the_per_entry_reference(values):
    # reference: one complex(re, im) per entry, as the parser once built matrices
    d = int(round(np.sqrt(len(values) // 2)))
    pairs = [values[k:k + 2] for k in range(0, len(values), 2)]
    matrix = {"dim": d, "entries": [pairs[i * d:(i + 1) * d] for i in range(d)]}
    state = {"dim": d * d, "entries": pairs}
    try:
        expected = np.array([complex(*pair) for pair in pairs])
    except OverflowError:
        for doc, parse in ((matrix, parse_matrix_document), (state, parse_state_document)):
            with pytest.raises(CliInputError, match="overflows double precision"):
                parse(doc)
        return
    got = parse_matrix_document(matrix).ravel(), parse_state_document(state)
    for parsed in got:
        assert np.array_equal(parsed.view(float), expected.view(float))
        assert np.array_equal(np.signbit(parsed.view(float)), np.signbit(expected.view(float)))


def test_parse_helpers_accept_emitted_documents():
    rng = np.random.default_rng(101)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(parse_matrix_document(matrix_document(m)), m)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.array_equal(parse_state_document(state_document(v)), v)


def test_reality_rtol_env_and_flag(tmp_path, capsys, monkeypatch):
    # imaginary part 5e-9 sits above the default relative threshold
    path = write_matrix(tmp_path, "h.json", np.diag([1.0, 2.0 + 5e-9j]))
    monkeypatch.delenv("PHT_RTOL", raising=False)
    rc, out, _ = run(capsys, ["analyze", path])
    assert json.loads(out)["classification"] == "conjugate-pairs"
    monkeypatch.setenv("PHT_RTOL", "1e-6")
    rc, out, _ = run(capsys, ["analyze", path])
    assert json.loads(out)["classification"] == "real-diagonalizable"
    # an explicit flag beats the environment
    rc, out, _ = run(capsys, ["analyze", path, "--rtol", "1e-12"])
    assert json.loads(out)["classification"] == "conjugate-pairs"
    monkeypatch.setenv("PHT_RTOL", "not-a-float")
    rc, _, _ = run(capsys, ["analyze", path])
    assert rc == EXIT_INPUT


def test_metric_reports_the_reality_bound_of_its_rtol(tmp_path, capsys):
    # eigenvalues 1 +- 1e-3 i; the bound is 1e-6 * (1 + |w|), and the verdict
    # and the message come from the one tolerance that --rtol set
    path = write_matrix(tmp_path, "h.json", [[1.0, 1e-3], [-1e-3, 1.0]])
    rc, out, err = run(capsys, ["metric", path, "--rtol", "1e-6"])
    assert (rc, out) == (EXIT_SYMMETRY, "")
    assert err.startswith("error: ComplexSpectrumError: ")
    assert "|Im w| = 1.000e-03 exceeds its reality bound 2.000e-06;" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_non_finite_reality_rtol_env_exits_2(tmp_path, capsys, monkeypatch, value):
    path = write_matrix(tmp_path, "h.json", np.diag([1.0, 2.0]))
    monkeypatch.setenv("PHT_RTOL", value)
    rc, out, err = run(capsys, ["metric", path])
    assert rc == EXIT_INPUT and out == ""
    assert "PHT_RTOL" in err and repr(value) in err


@pytest.mark.parametrize(
    "h",
    [np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(4, k=1)],
    ids=["jordan-2", "shift-4"],
)
def test_analyze_defective_input_is_strict_json(tmp_path, capsys, h):
    path = write_matrix(tmp_path, "h.json", h)
    rc, out, _ = run(capsys, ["analyze", path])
    assert rc == EXIT_OK
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["eigvec_condition"] is None
    assert report["classification"] == "near-defective"
    assert report["failure_reason"] == "not_diagonalizable"


def test_check_pt_computes_the_parity_svd_once(tmp_path, capsys, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    h_path = family_matrix_path(tmp_path)
    p_path = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
    rc, out, _ = run(capsys, ["check-pt", h_path, "--parity", p_path])
    assert rc == EXIT_OK and json.loads(out)["exact"]
    assert len(calls) == 1


def test_atol_flag_loosens_symmetry_check(tmp_path, capsys):
    h = symmetric_hamiltonian(SymmetricFamilyParams(0.0, 1.0, 2.0, 0.0))
    h = h + 1e-6 * np.array([[0.0, 1.0], [0.0, 0.0]])
    h_path = write_matrix(tmp_path, "h.json", h)
    p_path = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
    rc, out, _ = run(capsys, ["check-pt", h_path, "--parity", p_path])
    assert not json.loads(out)["pt_symmetric"]
    rc, out, _ = run(capsys, ["check-pt", h_path, "--parity", p_path, "--atol", "1e-3"])
    assert json.loads(out)["pt_symmetric"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize(
    "command, flag",
    [(c, "--rtol") for c in ("analyze", "metric", "hermitize", "evolve", "check-pt")]
    + [("analyze", "--atol"), ("check-pt", "--atol")],
)
def test_tolerance_flags_reject_non_finite_values(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "h.json", f"{flag}={value}"])
    assert exc.value.code == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and "expected a finite number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "symmetric", "--s", "1", "--t", "2", "--atol", "1e-3"],
        ["family", "symmetric", "--s", "1", "--t", "2", "--rtol", "1e-3"],
        ["metric", "h.json", "--atol", "1e-3"],
        ["hermitize", "h.json", "--atol", "1e-3"],
        ["evolve", "h.json", "--state", "psi.json", "--atol", "1e-3"],
    ],
    ids=["family--atol", "family--rtol", "metric--atol", "hermitize--atol", "evolve--atol"],
)
def test_unread_tolerance_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {argv[-2]} 1e-3" in err


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "sideways"])
    assert exc.value.code == 2
