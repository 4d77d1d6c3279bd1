"""Independent references, written against numpy only.

None of these touches ``geocert``: a reference built on the code it checks
would share its bugs.
"""

from __future__ import annotations

import numpy as np


def _sym(a):
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def eigh_fn(a, fn):
    """Spectral function ``Q fn(Lambda) Q^T`` through numpy's eigh."""
    w, q = np.linalg.eigh(_sym(a))
    return _sym((q * fn(w)) @ q.T)


def eigh_sqrt(a):
    return eigh_fn(a, np.sqrt)


def midpoint(a, b):
    """Closed-form geodesic midpoint ``A^1/2 (A^-1/2 B A^-1/2)^1/2 A^1/2``."""
    ah = eigh_fn(a, np.sqrt)
    aih = eigh_fn(a, lambda w: 1.0 / np.sqrt(w))
    return _sym(ah @ eigh_sqrt(aih @ np.asarray(b, dtype=float) @ aih) @ ah)


def karcher_residual(x, anchors) -> float:
    """``||sum_i log(X^-1/2 A_i X^-1/2)||_F``: zero exactly at the Karcher mean.

    It is half the Riemannian gradient norm of ``sum_i d(A_i, X)^2`` in the
    whitened frame at ``X``, so it is comparable with a solver's gradient
    tolerance.
    """
    xih = eigh_fn(x, lambda w: 1.0 / np.sqrt(w))
    total = sum(eigh_fn(xih @ np.asarray(a, dtype=float) @ xih, np.log) for a in anchors)
    return float(np.linalg.norm(total))


def rel_err(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300))


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def rotate(a, q) -> np.ndarray:
    """``Q A Q^T``, symmetrized."""
    return _sym(q @ np.asarray(a, dtype=float) @ q.T)


def random_spd(rng: np.random.Generator, d: int, cond: float) -> np.ndarray:
    """``Q diag(lam) Q^T`` with Haar ``Q`` and condition number at most ``cond``."""
    q = random_rotation(rng, d)
    half = 0.5 * np.log(cond)
    lam = np.exp(rng.uniform(-half, half, size=d))
    return _sym((q * lam) @ q.T)
