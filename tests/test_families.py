"""Closed forms for the two-level families and their unitary reductions."""
import numpy as np
import numpy.testing as npt
import pytest

from pht.antilinear import (
    AntilinearOperator,
    TimeReversalParams,
    check_exactness,
    check_pt_symmetry,
    is_hermitian_antilinear_involution,
)
from pht.errors import (
    BrokenSymmetryParamsError,
    DegenerateDirectionError,
    ExceptionalPointError,
    InvalidAxisError,
)
from pht.families import (
    GeneralFamilyParams,
    SymmetricFamilyParams,
    general_hamiltonian,
    general_t_hamiltonian,
    hermitize_equivalence,
    parity_from_angle,
    pauli_rotation,
    reduce_general_to_symmetric,
    symmetric_eigensystem,
    symmetric_hamiltonian,
    symmetric_operators,
)
from pht.linalg import IDENTITY2, PAULI, SIGMA3, biorthonormalize
from pht.metric import (
    build_charge_conjugation,
    build_eta_plus,
    build_generalized_parity,
)

from conftest import random_exact_symmetric_params

ATOL = 1e-12
SQRT3 = 1.7320508075688772


def exact_params(rng):
    return SymmetricFamilyParams(*random_exact_symmetric_params(rng))


def test_symmetric_hamiltonian_golden_entries():
    h = symmetric_hamiltonian(SymmetricFamilyParams(0.0, 1.0, 2.0, 0.0))
    npt.assert_allclose(h, np.array([[2.0, 1.0j], [1.0j, -2.0]]), atol=0)
    h = symmetric_hamiltonian(SymmetricFamilyParams(0.0, 1.0, 2.0, np.pi / 2))
    npt.assert_allclose(h, np.array([[-1.0j, 2.0], [2.0, 1.0j]]), atol=ATOL)


def test_symmetric_hamiltonian_is_complex_symmetric():
    rng = np.random.default_rng(43)
    for _ in range(10):
        h = symmetric_hamiltonian(exact_params(rng))
        npt.assert_allclose(h, h.T, atol=0)


def test_eigenvalues_match_characteristic_polynomial():
    # roots of w^2 - tr(H) w + det(H): w = r +/- sqrt(t^2 - s^2)
    rng = np.random.default_rng(47)
    for _ in range(30):
        p = exact_params(rng)
        h = symmetric_hamiltonian(p)
        gap = np.sqrt(p.t**2 - p.s**2)
        expected = np.array([p.r + gap, p.r - gap])
        got = np.sort(np.linalg.eigvals(h).real)[::-1]
        npt.assert_allclose(got, expected, atol=1e-10)
    # broken regime: conjugate pair r +/- i sqrt(s^2 - t^2)
    h = symmetric_hamiltonian(SymmetricFamilyParams(0.5, 2.0, 1.0, 0.3))
    w = np.linalg.eigvals(h)
    npt.assert_allclose(np.sort(w.imag), [-SQRT3, SQRT3], atol=1e-10)
    npt.assert_allclose(w.real, [0.5, 0.5], atol=1e-10)


def test_exactness_predicate_and_alpha():
    assert SymmetricFamilyParams(0.0, 1.0, 2.0, 0.0).is_exact
    assert not SymmetricFamilyParams(0.0, 2.0, 1.0, 0.0).is_exact
    assert not SymmetricFamilyParams(0.0, 1.0, 1.0, 0.0).is_exact  # exceptional point
    assert SymmetricFamilyParams(0.0, -1.9, -2.0, 0.0).is_exact  # signs allowed
    assert SymmetricFamilyParams(0.0, 1.0, 2.0, 0.0).alpha == pytest.approx(np.pi / 6)
    with pytest.raises(ExceptionalPointError):
        SymmetricFamilyParams(0.0, 1.0, 1.0, 0.0).alpha


def test_symmetric_eigensystem_properties():
    rng = np.random.default_rng(53)
    for _ in range(30):
        p = exact_params(rng)
        h = symmetric_hamiltonian(p)
        system = symmetric_eigensystem(p)
        for k, sign in enumerate((1.0, -1.0)):
            psi = system.psi[:, k]
            npt.assert_allclose(h @ psi, system.eigenvalues[k] * psi, atol=1e-10)
            npt.assert_allclose(psi @ psi, sign, atol=ATOL)
            npt.assert_allclose(system.phi[:, k], sign * np.conj(psi), atol=0)
        npt.assert_allclose(system.phi.conj().T @ system.psi, np.eye(2), atol=1e-10)
        assert system.completeness_residual() < 1e-10


def test_symmetric_eigensystem_regular_at_s_zero():
    # the printed amplitude quotients degenerate to 0/0 at alpha = 0; the
    # half-angle forms must stay finite and correct there
    p = SymmetricFamilyParams(0.3, 0.0, 1.7, 1.1)
    system = symmetric_eigensystem(p)
    assert np.all(np.isfinite(system.psi))
    h = symmetric_hamiltonian(p)
    for k in range(2):
        psi = system.psi[:, k]
        npt.assert_allclose(h @ psi, system.eigenvalues[k] * psi, atol=ATOL)
    npt.assert_allclose(system.eigenvalues, [0.3 + 1.7, 0.3 - 1.7], atol=ATOL)


def test_symmetric_eigensystem_rejects_broken_params():
    with pytest.raises(ExceptionalPointError):
        symmetric_eigensystem(SymmetricFamilyParams(0.0, 1.0, 0.5, 0.0))


def test_closed_forms_match_generic_pipeline():
    # the transpose-normalized pipeline must reproduce every closed-form
    # operator entrywise, not just up to scaling
    rng = np.random.default_rng(59)
    for _ in range(20):
        p = exact_params(rng)
        h = symmetric_hamiltonian(p)
        ops = symmetric_operators(p)
        system = biorthonormalize(h, normalization="transpose")
        metric = build_eta_plus(system)
        npt.assert_allclose(metric.eta_plus, ops.eta_plus, atol=1e-11)
        npt.assert_allclose(metric.rho_plus, ops.rho_plus, atol=1e-11)
        npt.assert_allclose(build_generalized_parity(system), ops.parity, atol=1e-11)
        npt.assert_allclose(build_charge_conjugation(system), ops.charge, atol=1e-11)


def test_operator_bundle_identities():
    rng = np.random.default_rng(61)
    for _ in range(30):
        p = exact_params(rng)
        h = symmetric_hamiltonian(p)
        ops = symmetric_operators(p)
        npt.assert_allclose(ops.parity @ ops.parity, IDENTITY2, atol=ATOL)
        npt.assert_allclose(ops.charge @ ops.charge, IDENTITY2, atol=ATOL)
        npt.assert_allclose(h @ ops.charge, ops.charge @ h, atol=1e-11)
        npt.assert_allclose(
            ops.charge, np.linalg.inv(ops.eta_plus) @ ops.parity, atol=1e-11
        )
        npt.assert_allclose(ops.eta_plus, ops.parity @ ops.charge, atol=1e-11)
        npt.assert_allclose(ops.rho_plus @ ops.rho_plus, ops.eta_plus, atol=ATOL)
        rho_inv = np.linalg.inv(ops.rho_plus)
        npt.assert_allclose(ops.rho_plus @ h @ rho_inv, ops.hermitian_h, atol=1e-11)
        npt.assert_allclose(ops.hermitian_h, ops.hermitian_h.conj().T, atol=ATOL)


def test_hermitian_partner_radical_form():
    rng = np.random.default_rng(67)
    for _ in range(20):
        p = exact_params(rng)
        gap = np.sqrt(p.t**2 - p.s**2)
        expected = p.r * IDENTITY2 + np.sign(p.t) * gap * parity_from_angle(p.phi)
        npt.assert_allclose(symmetric_operators(p).hermitian_h, expected, atol=ATOL)
    # explicit spot value: (1, 0.6, 1.0, pi/2) has sqrt(t^2 - s^2) = 0.8
    ops = symmetric_operators(SymmetricFamilyParams(1.0, 0.6, 1.0, np.pi / 2))
    npt.assert_allclose(ops.hermitian_h, [[1.0, 0.8], [0.8, 1.0]], atol=ATOL)


def test_symmetric_operators_reject_broken_params():
    with pytest.raises(ExceptionalPointError):
        symmetric_operators(SymmetricFamilyParams(0.0, 1.1, 1.0, 0.0))


def _levi_civita(i, j, k):
    if {i, j, k} != {1, 2, 3}:
        return 0
    return 1 if (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1


def test_pauli_rotation_against_levi_civita_oracle():
    for axis in (1, 2, 3):
        for target in (1, 2, 3):
            for theta in (0.0, 0.7, -2.1):
                got = pauli_rotation(axis, theta, target)
                if axis == target:
                    expected = PAULI[target - 1]
                else:
                    expected = np.cos(theta) * PAULI[target - 1]
                    for k in (1, 2, 3):
                        expected = expected + (
                            np.sin(theta) * _levi_civita(axis, target, k) * PAULI[k - 1]
                        )
                npt.assert_allclose(got, expected, atol=ATOL)


def test_pauli_rotation_validates_indices():
    with pytest.raises(InvalidAxisError):
        pauli_rotation(0, 0.1, 3)
    with pytest.raises(InvalidAxisError):
        pauli_rotation(2, 0.1, 4)


def test_parity_from_angle_is_rotated_sigma3():
    for phi in np.linspace(0.0, 2.0 * np.pi, 9):
        npt.assert_allclose(parity_from_angle(phi), pauli_rotation(2, phi, 3), atol=ATOL)
        p = parity_from_angle(phi)
        npt.assert_allclose(p @ p, IDENTITY2, atol=ATOL)
        npt.assert_allclose(np.sort(np.linalg.eigvalsh(p)), [-1.0, 1.0], atol=ATOL)


def test_general_hamiltonian_golden():
    h = general_hamiltonian(GeneralFamilyParams(0.0, 1.0, 1.0, 1.0, 0.0))
    npt.assert_allclose(h, np.array([[1.0, 0.0], [2.0j, -1.0]]), atol=0)
    # eigenvalues r +/- sqrt(t^2 + u^2 - s^2) = +/- 1
    npt.assert_allclose(np.sort(np.linalg.eigvals(h).real), [-1.0, 1.0], atol=1e-12)
    # u = 0 reduces to the symmetric family
    p = GeneralFamilyParams(0.4, 0.5, 1.2, 0.0, 2.2)
    npt.assert_allclose(
        general_hamiltonian(p),
        symmetric_hamiltonian(SymmetricFamilyParams(0.4, 0.5, 1.2, 2.2)),
        atol=0,
    )


def test_general_exactness_uses_hypot():
    assert GeneralFamilyParams(0.0, 1.3, 1.0, 1.0, 0.0).is_exact  # hypot ~ 1.414
    assert not GeneralFamilyParams(0.0, 1.5, 1.0, 1.0, 0.0).is_exact


def test_reduce_general_to_symmetric():
    rng = np.random.default_rng(71)
    for _ in range(30):
        r, phi = rng.uniform(-2, 2), rng.uniform(0, 2 * np.pi)
        t, u = rng.uniform(-2, 2, size=2)
        s = rng.uniform(-0.9, 0.9) * np.hypot(t, u)
        p = GeneralFamilyParams(r, s, t, u, phi)
        red = reduce_general_to_symmetric(p)
        npt.assert_allclose(red.u1 @ red.u1.conj().T, IDENTITY2, atol=ATOL)
        npt.assert_allclose(
            red.u1 @ red.h_prime @ red.u1.conj().T, general_hamiltonian(p), atol=1e-11
        )
        assert red.params.t == pytest.approx(np.hypot(t, u))
        npt.assert_allclose(red.h_prime, symmetric_hamiltonian(red.params), atol=0)
    # golden: (0, 1, 1, 1, 0) reduces to t' = sqrt(2)
    red = reduce_general_to_symmetric(GeneralFamilyParams(0.0, 1.0, 1.0, 1.0, 0.0))
    assert red.params.t == pytest.approx(np.sqrt(2.0))


def test_reduce_works_in_broken_regime():
    p = GeneralFamilyParams(0.0, 5.0, 1.0, 1.0, 0.8)
    red = reduce_general_to_symmetric(p)
    npt.assert_allclose(
        red.u1 @ red.h_prime @ red.u1.conj().T, general_hamiltonian(p), atol=1e-11
    )


def test_reduce_rejects_degenerate_direction():
    with pytest.raises(DegenerateDirectionError):
        reduce_general_to_symmetric(GeneralFamilyParams(1.0, 0.5, 0.0, 0.0, 0.0))


def test_general_t_hamiltonian_golden():
    # xi = zeta = pi/2 gives tau = i sigma_3 and U = diag(e^{i pi/4}, e^{-i pi/4})
    base = GeneralFamilyParams(0.0, 1.0, 2.0, 0.0, 0.0)
    tparams = TimeReversalParams(0.0, np.pi / 2, np.pi / 2)
    system = general_t_hamiltonian(base, tparams)
    npt.assert_allclose(system.hamiltonian, [[2.0, -1.0], [1.0, -2.0]], atol=ATOL)
    npt.assert_allclose(system.time_reversal.tau, 1j * SIGMA3, atol=ATOL)
    npt.assert_allclose(system.parity, SIGMA3, atol=ATOL)


def test_general_t_symmetry_and_exactness():
    rng = np.random.default_rng(73)
    for _ in range(25):
        t, u = rng.uniform(-2, 2, size=2)
        if np.hypot(t, u) < 0.2:
            t = 1.0
        s = rng.uniform(-0.9, 0.9) * np.hypot(t, u)
        base = GeneralFamilyParams(rng.uniform(-1, 1), s, t, u, rng.uniform(0, 2 * np.pi))
        tparams = TimeReversalParams(*rng.uniform(0, 2 * np.pi, size=3))
        system = general_t_hamiltonian(base, tparams)
        assert is_hermitian_antilinear_involution(system.time_reversal).passed
        assert check_pt_symmetry(system.hamiltonian, system.parity, system.time_reversal) < 1e-12
        report = check_exactness(system.hamiltonian, system.parity, system.time_reversal)
        assert report.exact


def test_general_t_rejects_broken_base():
    with pytest.raises(BrokenSymmetryParamsError):
        general_t_hamiltonian(
            GeneralFamilyParams(0.0, 2.0, 1.0, 0.5, 0.0), TimeReversalParams()
        )


def test_hermitize_equivalence_golden():
    # (0, 1, 1, 1, 0): h' = sigma_3 and U2 h' U2^{-1} recovers H = [[1,0],[2i,-1]]
    p = GeneralFamilyParams(0.0, 1.0, 1.0, 1.0, 0.0)
    eq = hermitize_equivalence(p)
    npt.assert_allclose(eq.h_prime_hermitian, SIGMA3, atol=ATOL)
    npt.assert_allclose(
        eq.u2 @ eq.h_prime_hermitian @ np.linalg.inv(eq.u2),
        general_hamiltonian(p),
        atol=1e-11,
    )


def test_hermitize_equivalence_random():
    rng = np.random.default_rng(79)
    for _ in range(25):
        t, u = rng.uniform(-2, 2, size=2)
        if np.hypot(t, u) < 0.2:
            u = 1.0
        s = rng.uniform(-0.9, 0.9) * np.hypot(t, u)
        p = GeneralFamilyParams(rng.uniform(-2, 2), s, t, u, rng.uniform(0, 2 * np.pi))
        eq = hermitize_equivalence(p)
        npt.assert_allclose(eq.h_prime_hermitian, eq.h_prime_hermitian.conj().T, atol=ATOL)
        npt.assert_allclose(
            eq.u2 @ eq.h_prime_hermitian @ np.linalg.inv(eq.u2),
            general_hamiltonian(p),
            atol=1e-10,
        )


def test_rho_plus_inverse_is_its_conjugate():
    # det rho_plus = r_+^2 - r_-^2 = sqrt(sec^2 - tan^2) = 1, which hermitize_equivalence uses
    near_ep = 1.0 - 10.0 ** -np.arange(2, 7)
    for ratio in np.concatenate([np.linspace(-0.99, 0.99, 23), near_ep, -near_ep]):
        rho = symmetric_operators(SymmetricFamilyParams(0.3, ratio, 1.5, 0.7)).rho_plus
        residual = np.linalg.norm(rho @ rho.conj() - IDENTITY2)
        assert residual <= 1e-12 * np.linalg.norm(rho) ** 2, ratio


def test_hermitize_equivalence_rejects_broken():
    with pytest.raises(ExceptionalPointError):
        hermitize_equivalence(GeneralFamilyParams(0.0, 3.0, 1.0, 1.0, 0.0))


def test_t_sign_flip_keeps_similarity():
    # for t < 0 the partner is r + t cos(alpha) P, i.e. the radical with the
    # sign of t; the similarity h = rho H rho^{-1} must hold either way
    p = SymmetricFamilyParams(0.2, 0.3, -1.5, 0.9)
    ops = symmetric_operators(p)
    h = symmetric_hamiltonian(p)
    npt.assert_allclose(
        ops.rho_plus @ h @ np.linalg.inv(ops.rho_plus), ops.hermitian_h, atol=ATOL
    )
    expected = 0.2 * IDENTITY2 - np.sqrt(1.5**2 - 0.3**2) * parity_from_angle(0.9)
    npt.assert_allclose(ops.hermitian_h, expected, atol=ATOL)
