"""Dense linear algebra and scalar helpers shared by every other module.

Matrices are plain 2-D float64 numpy arrays (row-major), and svd returns
np.linalg.svd's (u, sigma, vt). Every public operation validates
finiteness on the way in, so NaN/Inf never escapes silently. Everything
here is a pure function and safe to call from concurrent client threads.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "svd",
    "softmax",
    "l2_normalize_rows",
    "random_orthogonal",
]


def _as_finite_matrix(m, name: str = "m") -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _leading_signs(q: np.ndarray) -> np.ndarray:
    """Per column of q, -1.0 if its first entry above 1e-12 in magnitude is
    negative, else 1.0; multiplying by 1.0 keeps every bit, by -1.0 negates."""
    lead = np.argmax(np.abs(q) > 1e-12, axis=0)
    return np.where(q[lead, np.arange(q.shape[1])] < 0.0, -1.0, 1.0)


def svd(m):
    """Full SVD (u, sigma, vt) of a square matrix, m = u @ diag(sigma) @ vt.

    The factors are np.linalg.svd's, sigma sorted descending. Their signs
    are LAPACK's: a caller that needs u @ vt (procrustes) gets the same
    bits under any flip of a column of u with the matching row of vt.
    """
    a = _as_finite_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"svd expects a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("svd expects dimension >= 1")
    return np.linalg.svd(a)


def softmax(v, tau: float) -> np.ndarray:
    """Temperature softmax exp(v/tau) / sum(exp(v/tau)), max-subtracted."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    x = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("softmax input contains non-finite entries")
    z = x / tau
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def l2_normalize_rows(m) -> np.ndarray:
    """Scale every nonzero row of m to unit l2 norm.

    Exactly-zero rows pass through unchanged: isolated nodes produce zero
    aggregates and must not abort training.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"m must be a 2-D matrix, got ndim={a.ndim}")
    sq = np.add.reduce(a * a, axis=1)               # np.linalg.norm(a, axis=1) ** 2
    # the checks read sq as a list: callers pass a row pair, and on two
    # floats one numpy reduction costs more than the whole list
    rows = sq.tolist()
    # a NaN or inf entry makes the total non-finite; so can finite rows whose
    # squares overflow, which take their norms after division by their max-abs entry
    if not math.isfinite(sum(rows)):
        if not np.isfinite(a).all():
            raise ValueError("m contains non-finite entries")
        a = a / np.where(np.isinf(sq), np.abs(a).max(axis=1), 1.0)[:, None]
        sq = np.add.reduce(a * a, axis=1)
        rows = sq.tolist()
    norms = np.sqrt(sq)
    if 0.0 not in rows:                             # no zero row: no mask needed
        return a / norms[:, None]
    return np.divide(a, norms[:, None], out=a.copy(), where=norms[:, None] > 0.0)


def random_orthogonal(d: int, seed) -> np.ndarray:
    """Seeded random d x d orthogonal matrix.

    The Q of a seeded standard-normal matrix's QR, each column's sign set
    so that its leading entry is positive (_leading_signs). That choice
    alone fixes every sign, so the result is unique per seed and d=1
    always yields +1.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q * _leading_signs(q)[None, :]
