"""Shared helpers: random diagonalizable matrices with real spectra, and an eig recorder."""
import numpy as np
import pytest


@pytest.fixture
def eig_calls(monkeypatch):
    """List that gains the operand's dtype for each ``np.linalg.eig`` call made during the test."""
    calls = []
    eig = np.linalg.eig

    def counting_eig(*args, **kwargs):
        calls.append(np.asarray(args[0]).dtype)
        return eig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    return calls


def random_similarity(rng, dim, spread=5.0):
    """Diagonalizable matrix with real spectrum and well-conditioned eigenbasis.

    Built as S diag(w) S^{-1} with sorted real eigenvalues and S a product of
    random unitaries around a mild diagonal stretch, so cond(S) stays below ~3.
    Returns the matrix together with its eigenvalues in descending order.
    """
    w = np.sort(rng.uniform(-spread, spread, size=dim))[::-1]
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    s = q1 @ np.diag(np.exp(rng.uniform(-0.5, 0.5, size=dim))) @ q2
    return s @ np.diag(w) @ np.linalg.inv(s), w


def random_exact_symmetric_params(rng, margin=0.95):
    """Draw (r, s, t, phi) inside the unbroken region with |s| <= margin * t."""
    t = rng.uniform(0.3, 3.0)
    s = rng.uniform(-margin, margin) * t
    return rng.uniform(-2.0, 2.0), s, t, rng.uniform(0.0, 2.0 * np.pi)
