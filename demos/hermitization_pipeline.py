"""Hermitization of a random quasi-Hermitian matrix, end to end.

Draws a non-Hermitian D x D matrix with a real spectrum, builds the
biorthonormal system and the positive metric, maps the matrix to its
Hermitian partner, and shows how observables transport between the two
inner-product spaces.

Run with:  python demos/hermitization_pipeline.py
"""
import numpy as np

from pht import (
    biorthonormalize,
    build_eta_plus,
    hermitize,
    inner_product,
    InnerProductKind,
    map_observable,
    verify_pseudo_hermiticity,
)

DIM = 6


def random_real_spectrum_matrix(rng, dim):
    w = np.sort(rng.uniform(-4.0, 4.0, size=dim))[::-1]
    s = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return s @ np.diag(w) @ np.linalg.inv(s), w


def main():
    rng = np.random.default_rng(0)
    h, w_true = random_real_spectrum_matrix(rng, DIM)
    print(f"Random {DIM}x{DIM} matrix with real spectrum; "
          f"departure from Hermiticity |H - H^+| = {np.linalg.norm(h - h.conj().T):.3f}")

    system = biorthonormalize(h)
    print(f"biorthonormality |<phi_n, psi_m> - delta| = "
          f"{np.abs(system.phi.conj().T @ system.psi - np.eye(DIM)).max():.2e}")
    print(f"completeness residual = {system.completeness_residual():.2e}")

    metric = build_eta_plus(system)
    eigs = np.linalg.eigvalsh(metric.eta_plus)
    print(f"metric spectrum: [{eigs[0]:.4f}, ..., {eigs[-1]:.4f}]  (all positive)")
    print(f"pseudo-Hermiticity residual wrt eta_plus: "
          f"{verify_pseudo_hermiticity(h, metric.eta_plus):.2e}")

    partner = hermitize(h, metric)
    print(f"\nHermitian partner: |h - h^+| = {np.linalg.norm(partner - partner.conj().T):.2e}")
    print(f"spectrum preserved: max |eig(h) - eig(H)| = "
          f"{np.abs(np.sort(np.linalg.eigvalsh(partner))[::-1] - w_true).max():.2e}")

    # a Hermitian observable, pushed into the metric picture and back
    o = rng.normal(size=(DIM, DIM))
    o = o + o.T
    tilde = map_observable(o, metric, "to_tilde")
    back = map_observable(tilde, metric, "from_tilde")
    print(f"\nobservable round trip |O - back| = {np.abs(o - back).max():.2e}")
    eta = metric.eta_plus
    print(f"metric-space self-adjointness |eta O~ - O~^+ eta| = "
          f"{np.abs(eta @ tilde - tilde.conj().T @ eta).max():.2e}")

    # rho_plus^-1 is a unitary between the Euclidean and metric geometries:
    # rho^-H eta rho^-1 = 1, and its spectral-norm residual bounds every pair
    r = metric.rho_plus_inv
    print(f"\nrho-unitarity |rho^-H eta rho^-1 - 1|_2 = "
          f"{np.linalg.norm(r.conj().T @ eta @ r - np.eye(DIM), 2):.2e}")
    psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    kind = InnerProductKind.metric_eta(metric)
    lhs = inner_product(metric.rho_plus_inv @ psi, metric.rho_plus_inv @ psi, kind)
    rhs = inner_product(psi, psi)
    print(f"spot check <rho^-1 psi, rho^-1 psi>_eta = {lhs.real:.10f}")
    print(f"           <psi, psi>                  = {rhs.real:.10f}")


if __name__ == "__main__":
    main()
