"""Client-side semantic calibration against the server's anchors.

The anchors arrive as a bare d x C array whose columns are the
per-class anchors. Clients summarize their ego-embeddings as per-class
means, rotate those means onto the anchors with the closed-form
orthogonal Procrustes solution (through a checked SVD), and penalize
per-node distance between the rotated ego-embedding and the anchor of
its label.

A client's semantic manifold is its d x C array p of class means with a
(C,) boolean mask of the classes present in its train split, and its
calibration rotation is a bare orthogonal d x d array r.
Embeddings are column vectors here: calibration is r @ h.
Per-client losses are normalized by the labeled-train count so the
three local loss terms share a scale.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "class_means",
    "svd",
    "procrustes",
    "semantic_loss",
    "semantic_per_class_loss",
]


def class_means(ego: np.ndarray, labels: np.ndarray, train_mask: np.ndarray,
                num_classes: int):
    """Per-class mean ego-embeddings as (p, present).

    Column c of the (d, C) array p is the mean ego-embedding over labeled
    train nodes of class c. A class with no such node keeps a zero column
    and a False entry in the (C,) bool mask present.
    """
    d = ego.shape[1]
    p = np.zeros((d, num_classes))
    present = np.zeros(num_classes, dtype=bool)
    for c in range(num_classes):
        rows = np.nonzero(train_mask & (labels == c))[0]
        if len(rows):
            p[:, c] = ego[rows].mean(axis=0)
            present[c] = True
    return p, present


def _as_finite_matrix(m, name: str = "m") -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


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


def procrustes(p: np.ndarray, present: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Orthogonal d x d map r minimizing ||r @ p - delta||_F over present classes.

    Closed form: with the SVD of delta_present @ p_present.T = u s vt,
    the minimizer is r = u @ vt. Absent-class columns are excluded so
    zero columns cannot bias the rotation.
    """
    if not present.any():
        raise RuntimeError("procrustes needs at least one present class")
    u, _, vt = svd(anchors[:, present] @ p[:, present].T)
    return u @ vt


def semantic_loss(ego: np.ndarray, labels: np.ndarray, train_mask: np.ndarray,
                  rotation: np.ndarray, anchors: np.ndarray):
    """Mean squared anchor distance of calibrated train egos, with gradient.

    loss = (1/T) sum_v ||r @ h_v - delta_{y_v}||^2 over the T labeled
    train nodes; grad wrt each such ego row is (2/T) r.T (r h - delta).
    """
    train = np.nonzero(train_mask)[0]
    grad = np.zeros_like(ego)
    if len(train) == 0:
        raise RuntimeError("semantic_loss needs at least one train node")
    residual = ego[train] @ rotation.T - anchors[:, labels[train]].T
    loss = float((residual ** 2).sum()) / len(train)
    grad[train] = (2.0 / len(train)) * (residual @ rotation)
    return loss, grad


def semantic_per_class_loss(ego: np.ndarray, labels: np.ndarray,
                            train_mask: np.ndarray,
                            rotation: np.ndarray,
                            anchors: np.ndarray) -> np.ndarray:
    """Class-conditional mean of the squared anchor distances (0 if absent)."""
    out = np.zeros(anchors.shape[1])
    for cls in range(len(out)):
        rows = np.nonzero(train_mask & (labels == cls))[0]
        if len(rows):
            residual = ego[rows] @ rotation.T - anchors[:, cls]
            out[cls] = float((residual ** 2).sum(axis=1).mean())
    return out
