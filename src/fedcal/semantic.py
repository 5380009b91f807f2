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
Embeddings are column vectors here: calibration is r @ h. The functions
take the labeled train nodes' rows, as the caller selects them, and read
no split mask. Per-client losses are normalized by the labeled-train
count so the three local loss terms share a scale.
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


def class_means(ego: np.ndarray, labels: np.ndarray, num_classes: int):
    """Per-class mean rows of ego as (p, present).

    ego holds the labeled train nodes' ego-embeddings and labels their
    classes. Column c of the (d, C) array p is the mean of the rows of
    class c. A class with no row keeps a zero column and a False entry in
    the (C,) bool mask present.
    """
    p = np.zeros((ego.shape[1], num_classes))
    present = np.zeros(num_classes, dtype=bool)
    for c in range(num_classes):
        rows = np.flatnonzero(labels == c)
        if len(rows):
            p[:, c] = ego[rows].mean(axis=0)
            present[c] = True
    return p, present


def svd(m):
    """Full SVD (u, sigma, vt) of a square matrix, m = u @ diag(sigma) @ vt.

    The factors are np.linalg.svd's, sigma sorted descending. Their signs
    are LAPACK's: a caller that needs u @ vt (procrustes) gets the same
    bits under any flip of a column of u with the matching row of vt.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"m must be a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("m contains non-finite entries")
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


def semantic_loss(ego: np.ndarray, labels: np.ndarray, rotation: np.ndarray,
                  anchors: np.ndarray):
    """Mean squared anchor distance of calibrated train egos, with gradient.

    ego holds the T labeled train nodes' ego-embeddings and labels their
    classes. loss = (1/T) sum_v ||r @ h_v - delta_{y_v}||^2, and the
    returned (T, d) gradient wrt the rows is (2/T) r.T (r h - delta).
    """
    if len(ego) == 0:
        raise RuntimeError("semantic_loss needs at least one train node")
    residual = ego @ rotation.T - anchors[:, labels].T
    loss = float((residual ** 2).sum()) / len(ego)
    return loss, (2.0 / len(ego)) * (residual @ rotation)


def semantic_per_class_loss(ego: np.ndarray, labels: np.ndarray,
                            rotation: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Per-class mean of the train rows' squared anchor distances (0 if absent)."""
    out = np.zeros(anchors.shape[1])
    for cls in range(len(out)):
        rows = np.flatnonzero(labels == cls)
        if len(rows):
            residual = ego[rows] @ rotation.T - anchors[:, cls]
            out[cls] = float((residual ** 2).sum(axis=1).mean())
    return out
