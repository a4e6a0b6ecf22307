"""Correctness oracle: every check returns a list of problems; an empty list passes.

Reference values come from the generator (known spectra, conditioning and
family parameters) and from closed forms written out here, not from ``pht``.
Tolerances follow the conditioning of each input: an error propagated through
an eigenvector basis of condition ``kappa`` grows like ``eps * kappa`` per
factor (Bauer-Fike for eigenvalues; the metric ``eta`` has condition
``kappa^2``), so relative checks use ``rel_tol(kappa, d)`` below.
"""
from __future__ import annotations

import csv
import io
import json

import numpy as np

from gen import family_h

EPS = np.finfo(float).eps
# PT residual of a real H against P = 1, T = K is exactly zero in floating point.
PT_EXACT_TOL = 1e-14
# Relative error allowed on a fitted growth exponent over a 20/gamma window.
GROWTH_RTOL = 1e-4


def rel_tol(kappa: float, d: int) -> float:
    return 64.0 * np.sqrt(d) * EPS * max(kappa, 1.0) ** 2


def horizon(h, t1: float) -> float:
    """Growth of propagation error over ``[0, t1]``: ``exp(-iHt)`` loses ``eps ||H t||``."""
    return 1.0 + float(np.linalg.norm(h, 2)) * t1


def _fro(a) -> float:
    return float(np.linalg.norm(a))


def spectrum(name, got, want, tol) -> list:
    """Both multisets lie within ``tol * max|want|`` of each other (Hausdorff)."""
    got, want = np.asarray(got, complex), np.asarray(want, complex)
    if got.shape != want.shape:
        return [f"{name}: {got.size} eigenvalues, expected {want.size}"]
    dist = np.abs(got[:, None] - want[None, :])
    err = max(dist.min(axis=0).max(), dist.min(axis=1).max()) / max(np.abs(want).max(), 1e-300)
    return [f"{name}: spectrum error {err:.2e} > {tol:.1e}"] if err > tol else []


def hermitian(name, h, tol) -> list:
    err = _fro(h - h.conj().T) / max(_fro(h), 1e-300)
    return [f"{name}: anti-Hermitian part {err:.2e} > {tol:.1e}"] if err > tol else []


def pseudo_hermitian(name, h, eta, tol) -> list:
    """``H^dagger eta = eta H`` relative to ``||H|| ||eta||``, and ``eta`` positive."""
    err = _fro(h.conj().T @ eta - eta @ h) / max(_fro(h) * _fro(eta), 1e-300)
    out = [f"{name}: pseudo-Hermiticity residual {err:.2e} > {tol:.1e}"] if err > tol else []
    if np.linalg.eigvalsh(0.5 * (eta + eta.conj().T))[0] <= 0.0:
        out.append(f"{name}: metric is not positive definite")
    return out + hermitian(f"{name} metric", eta, tol)


def close(name, got, want, tol) -> list:
    err = _fro(np.asarray(got) - want) / max(_fro(want), 1e-300)
    return [f"{name}: relative error {err:.2e} > {tol:.1e}"] if err > tol else []


def conserved(name, norms, tol) -> list:
    norms = np.asarray(norms, float)
    err = float(np.max(np.abs(norms - norms[0]))) / norms[0]
    return [f"{name}: norm drifts by {err:.2e} > {tol:.1e}"] if err > tol else []


def growth(name, times, norms, gamma) -> list:
    t, n = np.asarray(times), np.asarray(norms)
    tail = t >= t[0] + 0.4 * (t[-1] - t[0])
    slope = np.polyfit(t[tail], np.log(n[tail]), 1)[0]
    err = abs(slope - gamma) / gamma
    return [f"{name}: growth rate {slope:.6g} vs {gamma:.6g}"] if err > GROWTH_RTOL else []


# ------------------------------------------------------------ closed forms

def family_kappa(p) -> float:
    """Eigenvector condition ``sec(alpha) + |tan(alpha)|`` of the exact family point."""
    x = abs(p["s"]) / float(np.hypot(p["t"], p.get("u", 0.0)))
    return (1.0 + x) / np.sqrt(max(1.0 - x * x, 1e-300))


def family_eigenvalues(p) -> np.ndarray:
    root = np.sqrt(complex(p["t"] ** 2 + p.get("u", 0.0) ** 2 - p["s"] ** 2))
    return np.array([p["r"] + root, p["r"] - root])


def symmetric_closed_forms(p) -> dict:
    """``eta_plus`` and the Hermitian partner of the symmetric family (transpose convention)."""
    alpha = np.arcsin(p["s"] / p["t"])
    sec, tan = 1.0 / np.cos(alpha), np.tan(alpha)
    c, s_ = np.cos(p["phi"]), np.sin(p["phi"])
    parity = np.array([[c, s_], [s_, -c]], dtype=complex)
    return {"eta": np.array([[sec, 1j * tan], [-1j * tan, sec]]),
            "h": p["r"] * np.eye(2) + p["t"] * np.cos(alpha) * parity}


# ------------------------------------------------------------ library ops

def check_spectral(case, out) -> list:
    m = case.m
    d = m.h.shape[0]
    tol = rel_tol(m.cond, d)
    real = m.regime == "real"
    sd = out["spectral"]
    want_cls = "real-diagonalizable" if real else "conjugate-pairs"
    problems = []
    if sd.classification.value != want_cls:
        problems.append(f"classified {sd.classification.value}, expected {want_cls}")
    problems += spectrum("eigendecompose", sd.eigenvalues, m.w, tol)
    system = out.get("system")
    if real:
        if system is None:
            return problems + [f"biorthonormalize refused a real spectrum: {out.get('biorth_error')!r}"]
        problems += close("biorthonormality", system.phi.conj().T @ system.psi, np.eye(d), tol)
        problems += pseudo_hermitian("eta_plus", m.h, out["metric"].eta_plus, tol)
        problems += close("charge^2", out["charge"] @ out["charge"], np.eye(d), tol)
        problems += hermitian("hermitize", out["h"], tol)
        problems += spectrum("hermitize", np.linalg.eigvalsh(out["h"]), m.w, tol)
    elif system is not None:
        problems.append("biorthonormalize accepted a complex spectrum")
    if out["pt_residual"] > PT_EXACT_TOL:
        problems.append(f"PT residual {out['pt_residual']:.2e} for a real H")
    ex = out["exactness"]
    if ex.exact != real:
        problems.append(f"exactness {ex.exact}, expected {real}")
    elif real:
        # With P = 1 and T = K a PT-fixed vector is a real vector.
        f = ex.fixed_eigenvectors
        err = _fro(f.imag) / _fro(f)
        if err > tol:
            problems.append(f"PT-fixed eigenvectors not real: {err:.2e}")
    elif ex.failure_reason != "complex_eigenvalues":
        problems.append(f"failure reason {ex.failure_reason!r}")
    return problems


def check_dynamics(case, out) -> list:
    p = case.params
    d = case.psi0.shape[0]
    exact = case.regime != "broken"
    kappa = case.m.cond if case.m is not None else (family_kappa(p) if exact else 1.0)
    tol = rel_tol(kappa, d)
    problems = []
    if case.kind in ("symmetric", "general"):
        problems += close("hamiltonian", out["hamiltonian"], family_h(p), tol)
    if case.kind == "symmetric" and exact:
        ref = symmetric_closed_forms(p)
        problems += close("closed-form eta_plus", out["ops"].eta_plus, ref["eta"], tol)
        problems += close("closed-form h", out["ops"].hermitian_h, ref["h"], tol)
        problems += spectrum("closed-form eigensystem", out["eigensystem"].eigenvalues,
                             family_eigenvalues(p), tol)
        problems += close("numeric eta_plus", out["metric"].eta_plus, ref["eta"], tol)
        problems += close("numeric h", out["h"], ref["h"], tol)
    elif case.kind == "general" and exact:
        h = out["hamiltonian"]
        u1 = out["reduction"].u1
        problems += close("U1 unitary", u1.conj().T @ u1, np.eye(2), tol)
        problems += close("H = U1 H' U1^-1", u1 @ out["reduction"].h_prime @ u1.conj().T, h, tol)
        eq = out["equivalence"]
        problems += hermitian("h'", eq.h_prime_hermitian, tol)
        problems += close("H = U2 h' U2^-1",
                          eq.u2 @ eq.h_prime_hermitian @ np.linalg.inv(eq.u2), h, tol)
    elif case.kind == "general-t":
        if out["pt_residual"] > tol:
            problems.append(f"PT residual {out['pt_residual']:.2e} > {tol:.1e}")
        if not out["exactness"].exact:
            problems.append("general-t point not exact")
    if exact:
        want = case.m.w if case.m is not None else family_eigenvalues(p)
        problems += hermitian("hermitize", out["h"], tol)
        problems += spectrum("hermitize", np.linalg.eigvalsh(out["h"]), want, tol)
        eta = out["metric"].eta_plus
        problems += pseudo_hermitian("eta_plus", out["hamiltonian"], eta, tol)
        tol_t = tol * horizon(out["hamiltonian"], case.t1)
        problems += conserved("metric trajectory", out["traj_metric"].norms, tol_t)
        n0 = np.sqrt(np.vdot(case.psi0, eta @ case.psi0).real)
        for k, psi in zip(case.evolve_steps, out["evolved"]):
            n = np.sqrt(np.vdot(psi, eta @ psi).real)
            problems += conserved(f"evolve step {k}", [n0, n], tol_t)
    else:
        gamma = float(family_eigenvalues(p)[0].imag)
        problems += growth("euclidean trajectory", out["traj_euclid"].times,
                           out["traj_euclid"].norms, gamma)
        if abs(out["fit"] - gamma) > GROWTH_RTOL * gamma:
            problems.append(f"fit_growth_rate {out['fit']:.6g} vs {gamma:.6g}")
        for k, psi in zip(case.evolve_steps, out["evolved"]):
            problems += conserved(f"evolve step {k} vs trajectory",
                                  [out["traj_euclid"].norms[k], np.linalg.norm(psi)], 1e-6)
    return problems


# ------------------------------------------------------------ cli ops

def _matrix(doc) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc["entries"]])


def check_cli(case, rc: int, stdout: str) -> list:
    if rc != case.expect_rc:
        return [f"exit code {rc}, expected {case.expect_rc}"]
    if case.check == "rc-only" or rc != 0:
        return []
    try:
        return _check_cli_output(case, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_cli_output(case, stdout: str) -> list:
    m = case.data.get("m")
    fam = case.data.get("family")
    if case.check == "evolve":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["t", "norm"] or len(rows) != 1002:
            return [f"CSV has {len(rows)} rows"]
        t, n = np.array([[float(x) for x in r] for r in rows[1:]]).T
        if case.data["norm"] == "metric":
            tol = rel_tol(m.cond, m.h.shape[0]) * horizon(m.h, case.data["t1"])
            return conserved("metric trajectory", n, tol)
        return growth("euclidean trajectory", t, n, fam["gamma"])
    report = json.loads(stdout)
    if case.check == "family":
        return _check_family(case.data["kind"], fam, report)
    d = m.h.shape[0]
    tol = rel_tol(m.cond, d)
    real = m.regime == "real"
    problems = []
    if case.check in ("analyze", "check-pt"):
        if report["pt_residual"] > PT_EXACT_TOL or not report["pt_symmetric"]:
            problems.append(f"PT residual {report['pt_residual']:.2e} for a real H")
        if report["exact"] != real:
            problems.append(f"exact {report['exact']}, expected {real}")
    if case.check == "analyze":
        want = "real-diagonalizable" if real else "conjugate-pairs"
        if report["classification"] != want:
            problems.append(f"classified {report['classification']}, expected {want}")
        problems += spectrum("analyze", [complex(*z) for z in report["eigenvalues"]], m.w, tol)
    elif case.check == "metric":
        eta = _matrix(report["eta_plus"])
        rho = _matrix(report["rho_plus"])
        charge = _matrix(report["charge"])
        problems += pseudo_hermitian("eta_plus", m.h, eta, tol)
        problems += close("rho_plus^2", rho @ rho, eta, tol)
        problems += close("charge^2", charge @ charge, np.eye(d), tol)
        if fam:
            problems += close("closed-form eta_plus", eta, symmetric_closed_forms(fam)["eta"], tol)
    elif case.check == "hermitize":
        h = _matrix(report)
        problems += hermitian("hermitize", h, tol)
        problems += spectrum("hermitize", np.linalg.eigvalsh(h), m.w, tol)
        if fam:
            problems += close("closed-form h", h, symmetric_closed_forms(fam)["h"], tol)
    return problems


def _check_family(kind, p, report) -> list:
    tol = rel_tol(family_kappa(p), 2)
    h_ham = _matrix(report["hamiltonian"])
    eta, rho, herm = (_matrix(report[k]) for k in ("eta_plus", "rho_plus", "hermitian_h"))
    problems = []
    if kind == "symmetric":
        ref = symmetric_closed_forms(p)
        problems += close("hamiltonian", h_ham, family_h(p), tol)
        problems += close("eta_plus", eta, ref["eta"], tol)
        problems += close("hermitian_h", herm, ref["h"], tol)
    elif kind == "general":
        problems += close("hamiltonian", h_ham, family_h(p), tol)
    else:
        u = _matrix(report["u"])
        tau = _matrix(report["tau"])
        problems += close("tau = u^2", u @ u, tau, tol)
        problems += close("tau symmetric unitary", tau.conj().T @ tau, np.eye(2), tol)
        problems += close("tau symmetric", tau.T, tau, tol)
        problems += close("hamiltonian", h_ham, u @ family_h(p) @ u.conj().T, tol)
    problems += pseudo_hermitian("eta_plus", h_ham, eta, tol)
    problems += close("rho_plus^2", rho @ rho, eta, tol)
    problems += hermitian("hermitian_h", herm, tol)
    problems += close("rho H rho^-1", rho @ h_ham @ np.linalg.inv(rho), herm, tol)
    problems += spectrum("hermitian_h", np.linalg.eigvalsh(herm), family_eigenvalues(p), tol)
    return problems
