"""Server-side refinement of the semantic anchors and structural templates.

The anchors are a d x C array (one unit column per class) and the
templates a (Q, 2, d) array; every update returns a new array and never
writes into the one it was given, which the clients may still be reading.

Anchors move along a clipped combination of the mean client deviation
(difficulty-weighted) and a mutual-repulsion term, then project back to
the unit sphere; the repulsion keeps the frame near maximal
equidistance, and a drift metric tracks how far the pairwise Gram
entries stray from -1/(C-1).

Templates solve a weighted barycenter problem under the two-point
Gromov-Wasserstein discrepancy. For two-point uniform metric-measure
spaces GW depends only on the intra-pair distances, so the solve splits
into a 1-D scale search plus an assignment-weighted mean for position.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .numerics import softmax
from .structural import MatchingMatrix

log = logging.getLogger(__name__)
_STEP_GUARD = 1e-8      # division guard in the anchor step clip
_GOLDEN_ITERS = 200     # golden-section cap; radials (alpha <= 2) hit the 1e-12 stop first

__all__ = [
    "SemanticReport",
    "StructuralReport",
    "RefineConfig",
    "deviation_vectors",
    "difficulty_weights",
    "constraint_vector",
    "refine_anchor",
    "refine_all_anchors",
    "gram_drift",
    "gw_2point",
    "template_objective",
    "update_template",
]


@dataclass
class SemanticReport:
    """Client upload: calibrated class means and per-class mean anchor loss."""

    k: np.ndarray               # (d, C), columns rotation @ class mean
    present_mask: np.ndarray    # (C,) bool
    per_class_loss: np.ndarray  # (C,), zero where absent


@dataclass
class StructuralReport:
    """Client upload: sampled radial sequences and their matching matrix.

    radials is the (B, 2, d) float64 batch the client matched; matching.f
    is its B x Q assignment. A client without the structural term uploads
    none.
    """

    radials: np.ndarray
    matching: MatchingMatrix


# Each config dataclass field that a config key sets carries the key, so the
# CLI's schema, its key-to-field mapping and the keys errors name are read here.
def config_key(key: str, default):
    """A dataclass field that the config key ``key`` sets, ``default`` when unset."""
    return field(default=default, metadata={"key": key})


def key_of(config, name: str) -> str:
    """The config key that sets field ``name`` of the dataclass ``config``."""
    return config.__dataclass_fields__[name].metadata["key"]


@dataclass
class RefineConfig:
    """Anchor-refinement settings; the template solve has none."""

    tau: float = config_key("refine.tau", 1.0)     # difficulty-weight temperature
    eta: float = config_key("refine.eta", 0.1)     # max anchor step (chord length)

    def __post_init__(self):
        for name in ("tau", "eta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{key_of(self, name)} must be finite and > 0, got {value}")


def deviation_vectors(reports, anchors: np.ndarray) -> np.ndarray:
    """(d, C) mean deviation of reported calibrated means from each anchor.

    Column i averages k[:, i] - delta[:, i] over the clients reporting
    class i; classes nobody reports get a zero column.
    """
    if not reports:
        raise ValueError("need at least one semantic report")
    d, c = anchors.shape
    out = np.zeros((d, c))
    counts = np.zeros(c)
    for rep in reports:
        for i in np.nonzero(rep.present_mask)[0]:
            out[:, i] += rep.k[:, i] - anchors[:, i]
            counts[i] += 1
    nz = counts > 0
    out[:, nz] /= counts[nz]
    return out


def difficulty_weights(reports, tau: float) -> np.ndarray:
    """Softmax-over-temperature of the mean per-class anchor losses."""
    if not reports:
        raise ValueError("need at least one semantic report")
    c = reports[0].per_class_loss.shape[0]
    totals = np.zeros(c)
    counts = np.zeros(c)
    for rep in reports:
        present = rep.present_mask
        totals[present] += rep.per_class_loss[present]
        counts[present] += 1
    mean = np.where(counts > 0, totals / np.maximum(counts, 1), 0.0)
    return softmax(mean, tau)


def constraint_vector(anchors: np.ndarray, i: int) -> np.ndarray:
    """Repulsion term -sum_{j != i} delta_j / ||delta_i - delta_j||^2."""
    d, c = anchors.shape
    out = np.zeros(d)
    for j in range(c):
        if j == i:
            continue
        gap = np.linalg.norm(anchors[:, i] - anchors[:, j])
        if gap <= 1e-6:
            raise RuntimeError(
                f"anchors {i} and {j} coincide (distance {gap:.2e}); repulsion undefined"
            )
        out -= anchors[:, j] / gap ** 2
    return out


def refine_anchor(delta_i: np.ndarray, v_i: np.ndarray, gamma_i: float,
                  s_i: np.ndarray, cfg: RefineConfig) -> np.ndarray:
    """One anchor update: clipped candidate step, then spherical projection.

    candidate = delta + gamma * v + s; the step toward it is scaled by
    t = min(1, eta / (||candidate - delta|| + 1e-8)) so the pre-projection
    chord never exceeds eta, and the result is renormalized to the unit
    sphere.
    """
    norm = np.linalg.norm(delta_i)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"anchor norm {norm} is not 1 within 1e-6")
    candidate = delta_i + gamma_i * v_i + s_i
    step = candidate - delta_i
    t = min(1.0, cfg.eta / (np.linalg.norm(step) + _STEP_GUARD))
    moved = delta_i + t * step
    moved_norm = np.linalg.norm(moved)
    if moved_norm <= 1e-12:
        raise RuntimeError("anchor update collapsed to the origin; projection undefined")
    return moved / moved_norm


def gram_drift(anchors: np.ndarray) -> float:
    """Max deviation of pairwise anchor inner products from -1/(C-1)."""
    c = anchors.shape[1]
    gram = anchors.T @ anchors
    off = gram[~np.eye(c, dtype=bool)]
    return float(np.abs(off + 1.0 / (c - 1)).max())


def refine_all_anchors(anchors: np.ndarray, reports, cfg: RefineConfig):
    """Refine every reported anchor; returns (new anchors, gram drift).

    Classes reported by no client keep their anchor unchanged for the
    round (their deviation is undefined). The drift of the refined frame
    is logged, not corrected: the repulsion term is what keeps the frame
    near maximal equidistance.
    """
    vs = deviation_vectors(reports, anchors)
    gammas = difficulty_weights(reports, cfg.tau)
    reported = np.zeros(anchors.shape[1], dtype=bool)
    for rep in reports:
        reported |= rep.present_mask
    refined = anchors.copy()
    for i in np.nonzero(reported)[0]:
        s_i = constraint_vector(anchors, i)
        refined[:, i] = refine_anchor(anchors[:, i], vs[:, i], float(gammas[i]), s_i, cfg)
    return refined, gram_drift(refined)


def _intra_distance(rows: np.ndarray) -> float:
    return float(np.linalg.norm(rows[0] - rows[1]))


def _gw_values(alphas, beta: float) -> np.ndarray:
    """Two-point GW discrepancies as a function of the intra-distances.

    The coupling polytope is the one-parameter family T(t), t in [0, 1/2],
    and the transport cost is the quadratic
        (alpha^2 + beta^2)/2 - 4 alpha beta (t^2 + (1/2 - t)^2),
    concave in t because distances are non-negative (alpha * beta >= 0).
    A boundary coupling t in {0, 1/2} therefore wins, giving
    (alpha^2 + beta^2)/2 - alpha beta = (alpha - beta)^2 / 2 in closed
    form; the clip at zero absorbs rounding.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    return np.maximum((alphas ** 2 + beta ** 2) / 2.0 - alphas * beta, 0.0)


def gw_2point(a, b) -> float:
    """Gromov-Wasserstein discrepancy of two 2 x d uniform point sets.

    Depends only on the two intra-pair distances, hence invariant to
    rotations, reflections and translations of either side.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(_gw_values([_intra_distance(a)], _intra_distance(b))[0])


def _collect_assignments(structural_reports, q: int):
    """Weights, intra-distances and (N, 2, d) rows of all reported radials.

    The intra-distances are np.linalg.norm's sqrt of a row dot, taken as
    stacked (1 x d) @ (d x 1) products.
    """
    weights = np.concatenate([rep.matching.f[:, q] for rep in structural_reports])
    rows = np.concatenate([rep.radials for rep in structural_reports])
    diff = rows[:, 0] - rows[:, 1]
    alphas = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    return weights, alphas, rows


def template_objective(structural_reports, q: int, template_rows: np.ndarray) -> float:
    """Weighted GW objective of one template against all assigned radials."""
    weights, alphas, _ = _collect_assignments(structural_reports, q)
    beta = _intra_distance(template_rows)
    return float((weights * _gw_values(alphas, beta)).sum())


def _golden_section(fn, lo: float, hi: float) -> float:
    """Minimize a unimodal fn on [lo, hi]; returns the best midpoint."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(_GOLDEN_ITERS):
        if b - a < 1e-12:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
    return (a + b) / 2.0


def update_template(q: int, structural_reports, templates: np.ndarray) -> np.ndarray:
    """Barycenter update of one template; returns its new 2 x d rows.

    Stage one finds the intra-distance beta* minimizing the weighted GW
    objective by golden-section search on [0, max alpha] (GW sees a
    template only through its intra-distance). Stage two positions the
    template at the assignment-weighted mean of its radials and moves
    the two rows symmetrically about their midpoint to realize beta*.
    Templates with zero total assignment are returned unchanged. A
    degenerate mean (coincident rows) takes its axis from a generator
    seeded by q.
    """
    weights, alphas, rows = _collect_assignments(structural_reports, q)
    total = weights.sum()
    if total <= 0.0:
        log.debug("template %d has zero total assignment; left unchanged", q)
        return templates[q].copy()

    # all-zero alphas give the empty bracket [0, 0], so beta* = 0.0 at once
    beta = _golden_section(lambda b: float((weights * _gw_values(alphas, b)).sum()),
                           0.0, float(alphas.max()))

    mean_rows = (weights[:, None, None] * rows).sum(axis=0) / total
    mid = mean_rows.mean(axis=0)
    axis = mean_rows[0] - mean_rows[1]
    norm = np.linalg.norm(axis)
    if norm <= 1e-12:
        axis = np.random.default_rng(q).standard_normal(mean_rows.shape[1])
        norm = np.linalg.norm(axis)
    direction = axis / norm
    return np.vstack([mid + beta / 2.0 * direction, mid - beta / 2.0 * direction])
