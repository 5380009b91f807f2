"""The server's two global manifolds: the semantic anchors and the
structural templates, built once and then refined every round.

The anchors are a d x C array (one unit column per class), built as a
simplex equiangular tight frame: every pair of distinct anchors has
inner product -1/(C-1), the most mutually repulsive configuration C unit
vectors admit. The templates are a (Q, 2, d) array of seeded Gaussian
rows scaled to unit norm. Clients only read the two arrays; nothing here
imports a client module.

Each client uploads plain arrays, ``(k, present, per_class_loss)`` and
``(radials, f)``; the refinement functions read them as the two pools
that ``fedsim.semantic_pool`` stacks and ``fedsim.structural_pool``
concatenates once, position by position in client order.
Every update returns a new array and never writes into the one it was
given, which the clients may still be reading.

Anchors move along a clipped combination of the mean client deviation
(difficulty-weighted) and a mutual-repulsion term, then project back to
the unit sphere; the repulsion keeps the frame near maximal
equidistance, and a drift metric tracks how far the pairwise Gram
entries stray from -1/(C-1). Pooled sums run in client order from +0.0,
where an absent class adds +0.0 and so changes no bit.

Templates solve a weighted barycenter problem under the two-point
Gromov-Wasserstein discrepancy. For two-point uniform metric-measure
spaces GW depends only on the intra-pair distances, so the solve splits
into a 1-D scale search plus an assignment-weighted mean for position.
"""

from __future__ import annotations

import numpy as np

_STEP_GUARD = 1e-8      # division guard in the anchor step clip
_GOLDEN_ITERS = 200     # golden-section cap; radials (alpha <= 2) hit the 1e-12 stop first

__all__ = [
    "random_orthogonal",
    "construct_etf",
    "init_templates",
    "softmax",
    "deviation_vectors",
    "difficulty_weights",
    "constraint_vector",
    "refine_anchor",
    "refine_all_anchors",
    "gram_drift",
    "intra_distances",
    "template_objective",
    "update_template",
]


def _leading_signs(q: np.ndarray) -> np.ndarray:
    """Per column of q, -1.0 if its first entry above 1e-12 in magnitude is
    negative, else 1.0; multiplying by 1.0 keeps every bit, by -1.0 negates."""
    lead = np.argmax(np.abs(q) > 1e-12, axis=0)
    return np.where(q[lead, np.arange(q.shape[1])] < 0.0, -1.0, 1.0)


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


def construct_etf(num_classes: int, dim: int, seed) -> np.ndarray:
    """Simplex-ETF anchors (d x C): scaled, centered columns of a random isometry.

    Requires dim >= num_classes so the centered simplex embeds with its
    exact Gram structure (unit norms, off-diagonal -1/(C-1)).
    """
    c = int(num_classes)
    if c < 2:
        raise ValueError("need at least two classes")
    if dim < c:
        raise ValueError(
            f"dim={dim} < num_classes={c}: the centered simplex needs rank "
            f"{c} columns of an isometry to keep its exact Gram structure"
        )
    phi = random_orthogonal(dim, seed)[:, :c]
    center = np.eye(c) - np.ones((c, c)) / c
    return np.sqrt(c / (c - 1.0)) * (phi @ center)


def init_templates(num_templates: int, dim: int, seed) -> np.ndarray:
    """(Q, 2, d) random templates: seeded Gaussian rows scaled to unit norm."""
    if num_templates < 1:
        raise ValueError("need at least one template")
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((num_templates, 2, dim))
    rows /= np.linalg.norm(rows, axis=2, keepdims=True)
    return rows


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


def deviation_vectors(semantic, anchors: np.ndarray) -> np.ndarray:
    """(d, C) mean deviation of the pooled calibrated means from each anchor.

    Column i averages k[:, i] - delta[:, i] over the clients reporting
    class i; classes nobody reports get a zero column.
    """
    k, present, _ = semantic
    out = np.where(present[:, None, :], k - anchors, 0.0).sum(axis=0, initial=0.0)
    counts = present.sum(axis=0)
    nz = counts > 0
    out[:, nz] /= counts[nz]
    return out


def difficulty_weights(semantic, tau: float) -> np.ndarray:
    """Softmax-over-temperature of the pooled mean per-class anchor losses."""
    _, present, losses = semantic
    totals = np.where(present, losses, 0.0).sum(axis=0, initial=0.0)
    counts = present.sum(axis=0)
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
                  s_i: np.ndarray, eta: float) -> np.ndarray:
    """One anchor update: clipped candidate step, then spherical projection.

    candidate = delta + gamma * v + s; the step toward it is scaled by
    t = min(1, eta / (||candidate - delta|| + 1e-8)) so the pre-projection
    chord never exceeds eta, and the result is renormalized to the unit
    sphere.
    """
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
    norm = np.linalg.norm(delta_i)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"anchor norm {norm} is not 1 within 1e-6")
    candidate = delta_i + gamma_i * v_i + s_i
    step = candidate - delta_i
    t = min(1.0, eta / (np.linalg.norm(step) + _STEP_GUARD))
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


def refine_all_anchors(anchors: np.ndarray, semantic, tau: float = 1.0, eta: float = 0.1):
    """The (d, C) anchors with every reported one refined from the semantic pool.

    tau is the difficulty-weight temperature and eta the step clip of
    ``refine_anchor`` (a chord length); a run uses the defaults. Classes
    reported by no client keep their anchor unchanged for the round
    (their deviation is undefined). The refined frame's ``gram_drift`` is
    recorded, not corrected: the repulsion term is what keeps the frame
    near maximal equidistance.
    """
    vs = deviation_vectors(semantic, anchors)
    gammas = difficulty_weights(semantic, tau)
    reported = semantic[1].any(axis=0)
    refined = anchors.copy()
    for i in np.nonzero(reported)[0]:
        s_i = constraint_vector(anchors, i)
        refined[:, i] = refine_anchor(anchors[:, i], vs[:, i], float(gammas[i]), s_i, eta)
    return refined


def intra_distances(rows: np.ndarray) -> np.ndarray:
    """(N,) distances between the two rows of each (2, d) pair in (N, 2, d) rows.

    Each is np.linalg.norm's sqrt of a row dot, taken as stacked
    (1 x d) @ (d x 1) products.
    """
    diff = rows[:, 0] - rows[:, 1]
    return np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])


def _gw_values(alphas: np.ndarray, beta: float) -> np.ndarray:
    """Two-point GW discrepancies as a function of the intra-distances.

    The coupling polytope is the one-parameter family T(t), t in [0, 1/2],
    and the transport cost is the quadratic
        (alpha^2 + beta^2)/2 - 4 alpha beta (t^2 + (1/2 - t)^2),
    concave in t because distances are non-negative (alpha * beta >= 0).
    A boundary coupling t in {0, 1/2} therefore wins, giving
    (alpha^2 + beta^2)/2 - alpha beta = (alpha - beta)^2 / 2 in closed
    form; the clip at zero absorbs rounding.
    """
    return np.maximum((alphas ** 2 + beta ** 2) / 2.0 - alphas * beta, 0.0)


def template_objective(structural, q: int, template_rows: np.ndarray) -> float:
    """Weighted GW objective of one template against all pooled radials."""
    f, alphas, _ = structural
    beta = intra_distances(template_rows[None])[0]
    return float((f[:, q] * _gw_values(alphas, beta)).sum())


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


def update_template(q: int, structural, templates: np.ndarray) -> np.ndarray:
    """Barycenter update of one template from the structural pool; returns
    its new 2 x d rows.

    Stage one finds the intra-distance beta* minimizing the weighted GW
    objective by golden-section search on [0, max alpha] (GW sees a
    template only through its intra-distance). Stage two positions the
    template at the assignment-weighted mean of its radials and moves
    the two rows symmetrically about their midpoint to realize beta*.
    Templates with zero total assignment are returned unchanged. A
    degenerate mean (coincident rows) takes its axis from a generator
    seeded by q.
    """
    f, alphas, rows = structural
    weights = f[:, q]
    total = weights.sum()
    if total <= 0.0:
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
