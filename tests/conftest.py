"""Shared helpers: random diagonalizable matrices with real spectra, integer-grid
matrices that scale exactly by powers of two, and an eig recorder."""
import numpy as np
import pytest
from hypothesis import strategies as st


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


def integer_grid_matrices(max_dim=4, count=1):
    """Complex matrices whose parts are multiples of 2^-10 below 2^10 in modulus.

    Scaling one by ``2**j`` for ``|j| <= 1000`` neither overflows nor leaves
    the normal range, so it is exact.  With ``count > 1``, a tuple of that
    many matrices of one dimension.
    """
    def build(dim):
        size = 2 * count * dim * dim
        parts = st.lists(st.integers(-(2**20), 2**20), min_size=size, max_size=size)
        return parts.map(lambda v: np.ldexp(np.reshape(v, (count, 2, dim, dim)).astype(float), -10))

    matrices = st.integers(2, max_dim).flatmap(build).map(lambda p: p[:, 0] + 1j * p[:, 1])
    return matrices.map(lambda m: m[0]) if count == 1 else matrices.map(tuple)


def scale_by_power_of_two(m, j):
    return np.ldexp(m.real, j) + 1j * np.ldexp(m.imag, j)
