"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints a
single ``criterion N (...): PASS`` / ``FAIL`` line (visible with ``pytest -s``
or ``-rA``) before asserting, so a full run yields one verdict per criterion:

1. closed-form operator reproduction on a parameter grid (runtime-bounded),
2. hermitization against the radical form, validated by isospectrality,
3. involution/commutation identities on the grid plus random reductions,
4. random quasi-Hermitian instances in dimensions 2..16 (runtime-bounded),
5. metric-norm conservation and the two-picture evolution equivalence,
6. broken-regime spectra, metric failure, and the fitted growth exponent,
7. antilinear time-reversal algebra and exactness of the general-T family,
8. the two unitary similarity reductions,
9. CLI golden outputs and the exit-code contract.
"""
import itertools
import json
import time

import numpy as np
import pytest

from pht.antilinear import (
    AntilinearOperator,
    TimeReversalParams,
    check_exactness,
    check_pt_symmetry,
    is_hermitian_antilinear_involution,
    make_time_reversal,
    unitary_sqrt_of_tau,
)
from pht.cli import main, matrix_document, parse_matrix_document, state_document
from pht.errors import ComplexSpectrumError
from pht.evolution import EvolutionSpec, fit_growth_rate, norm_trajectory
from pht.families import (
    GeneralFamilyParams,
    SymmetricFamilyParams,
    general_hamiltonian,
    general_t_hamiltonian,
    hermitize_equivalence,
    reduce_general_to_symmetric,
    symmetric_hamiltonian,
    symmetric_operators,
)
from pht.linalg import biorthonormalize, eigendecompose
from pht.metric import (
    InnerProductKind,
    build_charge_conjugation,
    build_eta_plus,
    build_generalized_parity,
    hermitize,
    metric_from_hamiltonian,
    verify_pseudo_hermiticity,
)

from conftest import random_similarity

SQRT3 = 1.7320508075688772

# The 10 x 10 x 10 x 8 parameter grid: |s| <= 0.95 t throughout.
R_VALUES = np.linspace(-2.0, 2.0, 10)
T_VALUES = np.linspace(0.3, 3.0, 10)
S_FRACTIONS = np.linspace(-0.95, 0.95, 10)
PHI_VALUES = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)


def _criterion(number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number} ({label}): {verdict}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def _grid_points():
    for r, t, frac, phi in itertools.product(R_VALUES, T_VALUES, S_FRACTIONS, PHI_VALUES):
        yield SymmetricFamilyParams(r, frac * t, t, phi)


def _random_exact_general(rng):
    t, u = rng.uniform(-2.0, 2.0, size=2)
    while np.hypot(t, u) < 0.2:
        t, u = rng.uniform(-2.0, 2.0, size=2)
    s = rng.uniform(-0.95, 0.95) * np.hypot(t, u)
    return GeneralFamilyParams(rng.uniform(-2.0, 2.0), s, t, u, rng.uniform(0.0, 2.0 * np.pi))


def test_criterion_1_closed_form_reproduction():
    worst = 0.0
    start = time.perf_counter()
    for p in _grid_points():
        system = biorthonormalize(symmetric_hamiltonian(p), normalization="transpose")
        metric = build_eta_plus(system)
        ops = symmetric_operators(p)
        worst = max(
            worst,
            np.abs(metric.eta_plus - ops.eta_plus).max(),
            np.abs(build_generalized_parity(system) - ops.parity).max(),
            np.abs(build_charge_conjugation(system) - ops.charge).max(),
            np.abs(metric.rho_plus - ops.rho_plus).max(),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _criterion(
        1,
        "closed-form reproduction",
        ok,
        f"max entrywise deviation {worst:.3e}, {elapsed:.2f}s for 8000 points",
    )


def test_criterion_2_hermitization_radical_form():
    worst_herm = 0.0
    worst_radical = 0.0
    worst_spectrum = 0.0
    for p in _grid_points():
        h = symmetric_hamiltonian(p)
        ops = symmetric_operators(p)
        metric = build_eta_plus(biorthonormalize(h, normalization="transpose"))
        partner = hermitize(h, metric)
        worst_herm = max(
            worst_herm,
            np.linalg.norm(partner - partner.conj().T) / np.linalg.norm(partner),
        )
        worst_radical = max(worst_radical, np.abs(partner - ops.hermitian_h).max())
        # characteristic-polynomial oracle: eigenvalues r +/- sqrt(t^2 - s^2)
        gap = np.sqrt(p.t**2 - p.s**2)
        oracle = np.array([p.r + gap, p.r - gap])
        worst_spectrum = max(
            worst_spectrum,
            np.abs(np.sort(np.linalg.eigvalsh(partner))[::-1] - oracle).max(),
            np.abs(np.sort(np.linalg.eigvals(h).real)[::-1] - oracle).max(),
        )
    ok = worst_herm <= 1e-9 and worst_radical <= 1e-9 and worst_spectrum <= 1e-9
    _criterion(
        2,
        "hermitization",
        ok,
        f"hermiticity {worst_herm:.3e}, radical {worst_radical:.3e}, "
        f"isospectrality {worst_spectrum:.3e}",
    )


def _involution_suite_residual(h, eta, parity, charge):
    eye = np.eye(2)
    return max(
        np.abs(parity @ parity - eye).max(),
        np.abs(charge @ charge - eye).max(),
        np.abs(h @ charge - charge @ h).max(),
        np.abs(np.linalg.solve(eta, parity) - charge).max(),
        verify_pseudo_hermiticity(h, parity),
        verify_pseudo_hermiticity(h, eta),
    )


def test_criterion_3_involution_commutation_suite():
    worst = 0.0
    for p in _grid_points():
        h = symmetric_hamiltonian(p)
        ops = symmetric_operators(p)
        worst = max(
            worst, _involution_suite_residual(h, ops.eta_plus, ops.parity, ops.charge)
        )
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        p = _random_exact_general(rng)
        red = reduce_general_to_symmetric(p)
        ops = symmetric_operators(red.params)
        u1 = red.u1
        u1h = u1.conj().T
        worst = max(
            worst,
            _involution_suite_residual(
                general_hamiltonian(p),
                u1 @ ops.eta_plus @ u1h,
                u1 @ ops.parity @ u1h,
                u1 @ ops.charge @ u1h,
            ),
        )
    ok = worst <= 1e-10
    _criterion(3, "involution/commutation suite", ok, f"max residual {worst:.3e}")


def test_criterion_4_random_quasi_hermitian_instances():
    rng = np.random.default_rng(4096)
    worst_pseudo = 0.0
    worst_herm = 0.0
    worst_spec = 0.0
    min_eig = np.inf
    start = time.perf_counter()
    for k in range(500):
        dim = int(rng.integers(2, 17))
        h, w_true = random_similarity(rng, dim)
        metric = metric_from_hamiltonian(h)
        min_eig = min(min_eig, np.linalg.eigvalsh(metric.eta_plus)[0])
        worst_pseudo = max(worst_pseudo, verify_pseudo_hermiticity(h, metric.eta_plus))
        partner = hermitize(h, metric)
        worst_herm = max(
            worst_herm,
            np.linalg.norm(partner - partner.conj().T) / np.linalg.norm(partner),
        )
        w_partner = np.sort(np.linalg.eigvalsh(partner))[::-1]
        worst_spec = max(worst_spec, np.abs(w_partner - w_true).max())
    elapsed = time.perf_counter() - start
    ok = (
        min_eig > 0.0
        and worst_pseudo <= 1e-8
        and worst_herm <= 1e-8
        and worst_spec <= 1e-8
        and elapsed < 30.0
    )
    _criterion(
        4,
        "random quasi-Hermitian instances",
        ok,
        f"pseudo {worst_pseudo:.3e}, hermiticity {worst_herm:.3e}, "
        f"spectra {worst_spec:.3e}, min metric eigenvalue {min_eig:.3e}, {elapsed:.2f}s",
    )


def test_criterion_5_evolution_unitarity():
    rng = np.random.default_rng(555)
    worst_drift = 0.0
    min_euclid_swing = np.inf
    worst_equiv = 0.0
    for _ in range(50):
        t = rng.uniform(0.5, 2.5)
        s = rng.uniform(0.3, 0.95) * t * rng.choice([-1.0, 1.0])
        p = SymmetricFamilyParams(rng.uniform(-1.0, 1.0), s, t, rng.uniform(0.0, 2.0 * np.pi))
        h = symmetric_hamiltonian(p)
        psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 /= np.linalg.norm(psi0)
        spec = EvolutionSpec(h, psi0, t0=0.0, t1=10.0, steps=999)

        metric = metric_from_hamiltonian(h)
        kind = InnerProductKind.metric_eta(metric)
        metric_traj = norm_trajectory(spec, kind=kind)
        worst_drift = max(worst_drift, metric_traj.norms.max() / metric_traj.norms.min() - 1.0)

        euclid = norm_trajectory(spec, kind="euclidean")
        min_euclid_swing = min(min_euclid_swing, euclid.norms.max() / euclid.norms.min() - 1.0)

        partner = hermitize(h, metric)
        partner_spec = EvolutionSpec(partner, metric.rho_plus @ psi0, t0=0.0, t1=10.0, steps=999)
        partner_traj = norm_trajectory(partner_spec, kind="euclidean")
        worst_equiv = max(worst_equiv, np.abs(partner_traj.norms - metric_traj.norms).max())
    ok = worst_drift <= 1e-8 and min_euclid_swing > 1e-3 and worst_equiv <= 1e-8
    _criterion(
        5,
        "unitarity of evolution",
        ok,
        f"metric drift {worst_drift:.3e}, min Euclidean swing {min_euclid_swing:.3e}, "
        f"picture mismatch {worst_equiv:.3e}",
    )


def test_criterion_6_broken_symmetry_behavior():
    p = SymmetricFamilyParams(0.0, 2.0, 1.0, 0.0)
    h = symmetric_hamiltonian(p)
    w = eigendecompose(h).eigenvalues
    spectrum_ok = np.abs(w - np.array([1j * SQRT3, -1j * SQRT3])).max() <= 1e-10

    metric_failed = False
    try:
        metric_from_hamiltonian(h)
    except ComplexSpectrumError:
        metric_failed = True

    spec = EvolutionSpec(h, np.array([1.0, 0.0]), t0=0.0, t1=6.0, steps=600)
    rate = fit_growth_rate(norm_trajectory(spec))
    rate_ok = abs(rate - SQRT3) <= 0.05 * SQRT3

    ok = spectrum_ok and metric_failed and rate_ok
    _criterion(
        6,
        "broken-symmetry behavior",
        ok,
        f"eigenvalues +/- i*sqrt(3) {spectrum_ok}, metric rejected {metric_failed}, "
        f"growth rate {rate:.7f} vs {SQRT3:.7f}",
    )


def test_criterion_7_antilinear_algebra():
    rng = np.random.default_rng(777)
    worst_inv = 0.0
    worst_square = 0.0
    worst_root = 0.0
    worst_pt = 0.0
    all_exact = True
    eye = np.eye(2)
    for _ in range(1000):
        params = TimeReversalParams(*rng.uniform(0.0, 2.0 * np.pi, size=3))
        op = make_time_reversal(params)
        check = is_hermitian_antilinear_involution(op)
        worst_inv = max(worst_inv, check.symmetry_residual, check.unitarity_residual)
        worst_square = max(worst_square, np.abs(op.squared() - eye).max())
        u = unitary_sqrt_of_tau(params)
        worst_root = max(worst_root, np.abs(u @ u - op.tau).max())

        base = _random_exact_general(rng)
        system = general_t_hamiltonian(base, params)
        worst_pt = max(
            worst_pt,
            check_pt_symmetry(system.hamiltonian, system.parity, system.time_reversal),
        )
        report = check_exactness(system.hamiltonian, system.parity, system.time_reversal)
        all_exact = all_exact and report.exact
    ok = (
        worst_inv <= 1e-10
        and worst_square <= 1e-10
        and worst_root <= 1e-10
        and worst_pt <= 1e-10
        and all_exact
    )
    _criterion(
        7,
        "antilinear algebra",
        ok,
        f"involution {worst_inv:.3e}, T^2 {worst_square:.3e}, U^2 - tau {worst_root:.3e}, "
        f"PT residual {worst_pt:.3e}, all exact {all_exact}",
    )


def test_criterion_8_unitary_reductions():
    rng = np.random.default_rng(888)
    worst_u1 = 0.0
    worst_u2 = 0.0
    for _ in range(1000):
        p = _random_exact_general(rng)
        h = general_hamiltonian(p)
        red = reduce_general_to_symmetric(p)
        worst_u1 = max(worst_u1, np.abs(red.u1 @ red.h_prime @ red.u1.conj().T - h).max())
        eq = hermitize_equivalence(p)
        worst_u2 = max(
            worst_u2,
            np.abs(eq.u2 @ eq.h_prime_hermitian @ np.linalg.inv(eq.u2) - h).max(),
        )
    ok = worst_u1 <= 1e-9 and worst_u2 <= 1e-9
    _criterion(8, "unitary reductions", ok, f"U1 {worst_u1:.3e}, U2 {worst_u2:.3e}")


def test_criterion_9_cli_golden_and_exit_codes(tmp_path, capsys):
    sec_a = 1.1547005383792517
    tan_a = 0.5773502691896258
    r_plus = 1.0379548493020425
    r_minus = -0.27811916365045
    golden_atol = 2e-14  # 15 significant digits on O(1) entries

    def run(argv):
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out

    def write(name, matrix):
        path = tmp_path / name
        path.write_text(json.dumps(matrix_document(np.asarray(matrix, dtype=complex))))
        return str(path)

    family_path = write("family.json", symmetric_hamiltonian(SymmetricFamilyParams(0, 1, 2, 0)))
    second_path = write(
        "family2.json", symmetric_hamiltonian(SymmetricFamilyParams(1.0, 0.6, 1.0, np.pi / 2))
    )
    broken_path = write("broken.json", symmetric_hamiltonian(SymmetricFamilyParams(0, 2, 1, 0)))
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(state_document(np.array([1.0, 0.0]))))

    checks = {}

    # bundle 1: hermitize of the family point is diag(sqrt(3), -sqrt(3))
    rc, out = run(["hermitize", family_path])
    h = parse_matrix_document(json.loads(out))
    checks["hermitize family"] = (
        rc == 0 and np.abs(h - np.diag([SQRT3, -SQRT3])).max() <= golden_atol
    )

    # bundle 2: hermitize at (1, 0.6, 1.0, pi/2)
    rc, out = run(["hermitize", second_path])
    h = parse_matrix_document(json.loads(out))
    checks["hermitize second point"] = (
        rc == 0 and np.abs(h - np.array([[1.0, 0.8], [0.8, 1.0]])).max() <= golden_atol
    )

    # bundle 3: the symmetric family bundle
    rc, out = run(["family", "symmetric", "--s", "1", "--t", "2"])
    bundle = json.loads(out)
    expected = {
        "hamiltonian": np.array([[2.0, 1.0j], [1.0j, -2.0]]),
        "eta_plus": np.array([[sec_a, 1j * tan_a], [-1j * tan_a, sec_a]]),
        "parity": np.diag([1.0, -1.0]).astype(complex),
        "charge": np.array([[sec_a, 1j * tan_a], [1j * tan_a, -sec_a]]),
        "rho_plus": np.array([[r_plus, -1j * r_minus], [1j * r_minus, r_plus]]),
        "hermitian_h": np.diag([SQRT3, -SQRT3]).astype(complex),
    }
    checks["family symmetric bundle"] = rc == 0 and all(
        np.abs(parse_matrix_document(bundle[key]) - value).max() <= golden_atol
        for key, value in expected.items()
    )

    # bundle 4: the general family point (0, 1, 1, 1, 0)
    rc, out = run(["family", "general", "--s", "1", "--t", "1", "--u", "1"])
    h = parse_matrix_document(json.loads(out)["hamiltonian"])
    checks["family general"] = (
        rc == 0 and np.abs(h - np.array([[1.0, 0.0], [2.0j, -1.0]])).max() <= golden_atol
    )

    # conserved metric norm of e_1 = sqrt(eta_11) = 1.074569931823542
    rc, out = run(
        ["evolve", family_path, "--state", str(state_path), "--steps", "5", "--norm", "metric"]
    )
    norms = np.array([float(line.split(",")[1]) for line in out.strip().splitlines()[1:]])
    checks["evolve metric constant"] = rc == 0 and np.abs(
        norms - 1.074569931823542
    ).max() <= 1e-14 * 1.08

    # exit-code contract
    checks["exit 0"] = run(["analyze", family_path])[0] == 0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text('{"dim": 2}')
    checks["exit 2 malformed"] = run(["analyze", str(bad_path)])[0] == 2
    checks["exit 3 metric broken"] = run(["metric", broken_path])[0] == 3
    checks["exit 3 family broken"] = run(["family", "symmetric", "--s", "2", "--t", "1"])[0] == 3
    checks["exit 0 allow-broken"] = (
        run(["family", "symmetric", "--s", "2", "--t", "1", "--allow-broken"])[0] == 0
    )
    checks["exit 3 evolve broken metric"] = (
        run(["evolve", broken_path, "--state", str(state_path), "--norm", "metric"])[0] == 3
    )

    failed = [name for name, passed in checks.items() if not passed]
    _criterion(
        9,
        "CLI golden tests",
        not failed,
        "all bundles and exit codes" if not failed else f"failed: {', '.join(failed)}",
    )
