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
from .structural import structural_loss_ego

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
    """Per-node activations kept for backprop. blocks is the C-ordered head
    input [ego | hop1 | hop2]; rings, its (n, 2, d) view, holds agg.rings'
    pairs at agg.rows and zeros elsewhere. The caller hands it to total_loss,
    which reads the head's rows at its operator's rows and writes nothing
    (tanh' reuses ego, so no pre-activation tensor is needed)."""

    ego: np.ndarray      # (n, d)
    rings: np.ndarray    # (n, 2, d), a view of blocks' last 2d columns
    blocks: np.ndarray   # (n, 3d)
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
    operator. agg.rings' pairs fill the head input at agg.rows in one write,
    zero elsewhere, so logits hold only on agg.rows."""
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
    blocks = np.zeros((len(ego), 3 * d))
    blocks[:, :d] = ego
    rings = blocks.reshape(-1, 3, d)[:, 1:]         # a view: hop1, hop2 of each row
    rings[agg.rows] = agg.rings(ego)
    logits = blocks @ params.w_cls + params.b_cls
    return ForwardCache(ego=ego, rings=rings, blocks=blocks, logits=logits)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean CE of the train rows' logits; returns (loss, gradient on those rows)."""
    if len(logits) == 0:
        raise RuntimeError("cross_entropy needs at least one train node")
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(len(labels))
    loss = float(-log_probs[rows, labels].mean())
    probs = np.exp(log_probs)
    probs[rows, labels] -= 1.0
    return loss, probs / len(labels)


def total_loss(params: ModelParams, g: Graph, agg: HopAggregator,
               cache: ForwardCache, train, semantic=None, structural=None):
    """Local objective CE + semantic + structural, with parameter gradients.

    cache is the caller's ForwardCache of params on g, from agg or from an
    operator whose rows include agg.rows, such as the one agg was restricted
    from: the terms read its ring means and logits only on agg.rows, which
    CSR fills row by row with the same bits either way. total_loss runs no
    forward and writes nothing into cache. train holds the labeled node ids
    that the CE and semantic terms score (ValueError names an unlabeled
    one). semantic = (rotation, anchors) holds semantic_loss's trailing
    arguments and structural = (f, batch, templates) the (B, Q) matching f,
    the batch's node ids and the templates; None drops that whole term (the
    CE term is always present), which is how ablations run. They are
    constants of the local round: no gradient flows into them. agg is g's
    ring operator with rows covering train and batch nodes (ValueError
    names a missing one, whose ring means would read as zeros).
    cross_entropy and semantic_loss get the train nodes' rows, and
    structural_loss_ego the batch's ring pairs cache.rings[batch], row i
    for batch[i]. Every term's row gradients are scattered with add.at, so
    a node listed twice gets both; the CE and structural ones reach the
    egos through agg.backward. Returns (total, (ce, semantic, structural),
    grads), grads a ModelParams of gradients; the calibration terms reach
    only w_ego, the CE term also the classifier.
    """
    at = agg.rows
    at_train = agg.positions(train, "train")
    labels = g.labels[train]
    if (labels < 0).any():                          # -1 would score as the last class
        raise ValueError(f"train node {train[np.argmax(labels < 0)]} carries no label")
    if structural is not None:
        f, batch, templates = structural
        at_batch = agg.positions(batch, "batch")
    d = cache.ego.shape[1]

    ce, g_ce = cross_entropy(cache.logits[train], labels)
    g_head = np.zeros((len(at), g_ce.shape[1]))   # zero at the non-train rows
    np.add.at(g_head, at_train, g_ce)
    g_wcls = cache.blocks[at].T @ g_head
    g_bcls = g_head.sum(axis=0)
    g_blocks = (g_head @ params.w_cls.T).reshape(len(at), 3, d)
    g_ego = agg.backward(g_blocks[:, 1:])
    g_ego[at] += g_blocks[:, 0]

    sem = 0.0
    if semantic is not None:
        sem, g_sem = semantic_loss(cache.ego[train], labels, *semantic)
        np.add.at(g_ego, train, g_sem)

    stru = 0.0
    if structural is not None:
        stru, g_pairs = structural_loss_ego(cache.rings[batch], f, templates)
        g_rings = np.zeros((len(at),) + g_pairs.shape[1:])
        np.add.at(g_rings, at_batch, g_pairs)
        g_ego += agg.backward(g_rings)

    g_pre = g_ego * (1.0 - cache.ego ** 2)
    g_wego = g.features.T @ g_pre
    grads = ModelParams(w_ego=g_wego, w_cls=g_wcls, b_cls=g_bcls)
    return ce + sem + stru, (ce, sem, stru), grads


def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """One gradient-descent step; aborts on non-finite gradients and on an
    lr that is not finite and > 0."""
    if not 0 < lr < np.inf:                         # NaN fails too
        raise ValueError(f"learning rate must be finite and > 0, got {lr}")
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
    if not (lr0 > 0 and decay_steps > 0):          # NaN fails too
        raise ValueError("lr0 and decay_steps must be positive")
    if lr0 == np.inf:                               # an infinite decay_steps is a constant rate
        raise ValueError("lr0 must be finite, got inf")
    return lr0 / (1.0 + t / decay_steps)
