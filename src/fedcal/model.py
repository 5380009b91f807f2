"""Node-classification backbone with analytic gradients.

The backbone keeps three blocks per node: a structure-free ego-embedding
tanh(X @ w_ego), the mean ego-embedding of the 1-hop ring, and the
average of the 1-hop and exact-2-hop ring means. The classifier reads
the concatenation of the three blocks. tanh keeps ego-embeddings
bounded, and ring means fall back to the nearest available block
(2-hop -> 1-hop aggregate, 1-hop -> own ego) so leaf and isolated nodes
never produce NaN.

All gradients are hand-written; finite-difference tests pin them down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, HopAggregator
from .semantic import semantic_loss
from .structural import MatchingMatrix, structural_loss_ego

__all__ = [
    "ModelParams",
    "ForwardCache",
    "init_params",
    "forward",
    "cross_entropy",
    "total_loss",
    "sgd_step",
    "lr_schedule",
]


@dataclass
class ModelParams:
    w_ego: np.ndarray    # (d0, d)
    w_cls: np.ndarray    # (3d, C)
    b_cls: np.ndarray    # (C,)


@dataclass
class ForwardCache:
    """Per-node activations kept for backprop, ring means zero off agg.rows;
    total_loss reads the head's blocks on agg.rows only (tanh' reuses ego
    directly, so no pre-activation tensor is needed)."""

    ego: np.ndarray      # (n, d)
    hop1: np.ndarray     # (n, d)
    hop2: np.ndarray     # (n, d)
    logits: np.ndarray   # (n, C)


def init_params(d0: int, d: int, num_classes: int, seed) -> ModelParams:
    """Seeded Gaussian init, std 1/sqrt(fan_in), zero classifier bias."""
    rng = np.random.default_rng(seed)
    return ModelParams(
        w_ego=rng.standard_normal((d0, d)) / np.sqrt(d0),
        w_cls=rng.standard_normal((3 * d, num_classes)) / np.sqrt(3 * d),
        b_cls=np.zeros(num_classes),
    )


def forward(params: ModelParams, g: Graph, agg: HopAggregator) -> ForwardCache:
    """Ego/ring embeddings and class logits of every node; agg is g's ring
    operator. Ring means are zero off agg.rows, so logits hold only there."""
    if params.w_ego.shape[0] != g.feat_dim:
        raise ValueError(
            f"w_ego expects {params.w_ego.shape[0]} features, graph has {g.feat_dim}"
        )
    d = params.w_ego.shape[1]
    if params.w_cls.shape[0] != 3 * d:
        raise ValueError("w_cls rows must equal 3 * embed dim")
    if params.b_cls.shape[0] != params.w_cls.shape[1]:
        raise ValueError("b_cls length must equal w_cls columns")
    ego = np.tanh(g.features @ params.w_ego)
    hop1, hop2 = agg.rings(ego)
    blocks = np.hstack([ego, hop1, hop2])
    logits = blocks @ params.w_cls + params.b_cls
    return ForwardCache(ego=ego, hop1=hop1, hop2=hop2, logits=logits)


def cross_entropy(logits: np.ndarray, labels: np.ndarray, train_mask: np.ndarray):
    """Mean CE over train nodes; returns (loss, gradient wrt logits)."""
    train = np.nonzero(train_mask)[0]
    if len(train) == 0:
        raise RuntimeError("cross_entropy needs at least one train node")
    z = logits[train]
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    y = labels[train]
    loss = float(-log_probs[np.arange(len(train)), y].mean())
    grad = np.zeros_like(logits)
    probs = np.exp(log_probs)
    probs[np.arange(len(train)), y] -= 1.0
    grad[train] = probs / len(train)
    return loss, grad


def total_loss(params: ModelParams, g: Graph, anchors: np.ndarray,
               rotation: np.ndarray, templates: np.ndarray,
               matching: MatchingMatrix, batch, agg: HopAggregator):
    """Local objective CE + semantic + structural, with parameter gradients.

    The rotation, matching matrix, templates and anchors are constants of
    the local round: no gradient flows into them. Passing anchors=None
    drops the semantic term and matching=None the structural term (the
    CE term is always present), which is how ablations run. agg is g's
    ring operator with rows covering train and batch nodes. The CE gradient
    is zero off agg.rows, so the classifier-head gradients are taken on
    those rows alone, with the same bits; the structural term reuses the
    forward's ring means. Returns (total, (ce, semantic,
    structural), grads), grads a ModelParams of gradients; the calibration
    terms reach only w_ego, the CE term also reaches the classifier.
    """
    cache = forward(params, g, agg)
    d = cache.ego.shape[1]

    ce, g_logits = cross_entropy(cache.logits, g.labels, g.train_mask)
    # g_logits is zero off agg.rows: the head reads those rows, or all as views
    at = agg.rows if len(agg.rows) < g.num_nodes else slice(None)
    blocks = np.hstack([cache.ego[at], cache.hop1[at], cache.hop2[at]])
    g_head = g_logits[at]
    g_wcls = blocks.T @ g_head
    g_bcls = g_head.sum(axis=0)
    g_blocks = g_head @ params.w_cls.T
    g_ego = agg.backward(g_blocks[:, d:2 * d], g_blocks[:, 2 * d:])
    g_ego[at] += g_blocks[:, :d]

    sem = 0.0
    if anchors is not None:
        if rotation is None:
            raise ValueError("semantic term requires a calibration rotation")
        sem, g_sem = semantic_loss(cache.ego, g.labels, g.train_mask, rotation, anchors)
        g_ego += g_sem

    stru = 0.0
    if matching is not None:
        if templates is None or batch is None:
            raise ValueError("structural term requires templates and a batch")
        stru, g_str = structural_loss_ego(
            cache.hop1, cache.hop2, matching, batch, templates, agg
        )
        g_ego += g_str

    g_pre = g_ego * (1.0 - cache.ego ** 2)
    g_wego = g.features.T @ g_pre
    grads = ModelParams(w_ego=g_wego, w_cls=g_wcls, b_cls=g_bcls)
    return ce + sem + stru, (ce, sem, stru), grads


def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """One gradient-descent step; aborts on non-finite gradients."""
    if not lr > 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    for name in ("w_ego", "w_cls", "b_cls"):
        if not np.all(np.isfinite(getattr(grads, name))):
            raise RuntimeError(f"non-finite gradient in {name}")
    return ModelParams(
        w_ego=params.w_ego - lr * grads.w_ego,
        w_cls=params.w_cls - lr * grads.w_cls,
        b_cls=params.b_cls - lr * grads.b_cls,
    )


def lr_schedule(t: int, lr0: float, decay_steps: float) -> float:
    """lr0 / (1 + t/decay_steps): diverging sum, converging sum of squares."""
    if lr0 <= 0 or decay_steps <= 0:
        raise ValueError("lr0 and decay_steps must be positive")
    return lr0 / (1.0 + t / decay_steps)
