"""Local structural manifolds, optimal-transport matching, structural loss.

Each sampled node is summarized by a radial sequence: its l2-normalized
1-hop and 2-hop ring means stacked into a 2 x d matrix, read as the
uniform two-point empirical measure on those rows. A batch of B radial
sequences is one float64 array of shape (B, 2, d), and the server's Q
templates arrive as a (Q, 2, d) array of the same layout. The module is
array math alone: it takes (B, 2, d) ring-mean pairs, never node ids, and
returns gradients on them, which model.total_loss pulls back. The transport
distance between two such measures has a closed form (the optimum sits
at one of the two permutation couplings), and a log-domain Sinkhorn
solve assigns each radial sequence a distribution over templates.

Sinkhorn works on the log-kernel transposed to a C-ordered (Q, B) array
and calls numpy's ufuncs directly, because with B in the hundreds and Q
of a few, per-call overhead outweighs the arithmetic. Its results are
bit for bit those of the (B, Q) loop over scipy.special.logsumexp: every
sum runs in the order numpy gives it on the (B, Q) layout, and each
shortcut drops only operations that change no bit:

- SciPy sets each line's maxima to -inf, so they add exp(-inf) = +0.0
  to the sum. Here they are exponentiated with the other terms and then
  overwritten with +0.0 under the tie mask, so the sum is the same.
- SciPy divides that sum by the count of maxima and adds log(count).
  With one maximum on every line the count is 1: rest / 1 is rest, and
  log(1) = +0.0 leaves log1p(rest) >= 0 as it is, so both are skipped.
- With Q = 2, each line over the templates sums 0 and exp(lo - hi), so
  SciPy's value is log1p(exp(lo - hi)) + hi. At a tie SciPy gives
  log1p(0) + log(2) + hi and the closed form log1p(1) + hi, the same
  bits because np.log1p(1.0) == np.log(2.0), which the tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MatchingMatrix",
    "l2_normalize_rows",
    "radial_sequences_from_rings",
    "sinkhorn_match",
    "structural_loss",
    "structural_loss_ego",
]


@dataclass
class MatchingMatrix:
    """Row-stochastic B x Q assignment of radial sequences to templates.

    converged=False flags a Sinkhorn run that hit max_iters before the
    marginal residual dropped below tol; the last iterate is still
    returned and usable. objective_trace holds the per-iteration dual
    value of the entropic transport problem when requested: Sinkhorn is
    block-coordinate ascent on that dual, so the trace is non-decreasing
    and converges to the entropic objective value at the solution.
    """

    f: np.ndarray
    converged: bool = True
    iterations: int = 0
    objective_trace: np.ndarray = None


def l2_normalize_rows(m) -> np.ndarray:
    """Scale every nonzero row of m to unit l2 norm.

    Exactly-zero rows pass through unchanged and must not abort training:
    ring means fall back to the ego, so a zero ring row comes from all-zero
    ego rows, such as an all-zero feature row in a files dataset. A
    non-finite entry, or a row whose squared norm overflows, raises
    ValueError; ring means average tanh values, so a federation has neither.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"m must be a 2-D matrix, got ndim={a.ndim}")
    sq = np.add.reduce(a * a, axis=1)               # np.linalg.norm(a, axis=1) ** 2
    # the checks read sq as a list: callers pass a row pair, and on two
    # floats one numpy reduction costs more than the whole list
    rows = sq.tolist()
    # a NaN or inf entry makes the total non-finite; so can a row whose squared
    # norm overflows, or finite rows whose squared norms overflow only the total
    if not math.isfinite(sum(rows)):
        if not np.isfinite(a).all():
            raise ValueError("m contains non-finite entries")
        if not np.isfinite(sq).all():
            raise ValueError("m holds a row whose squared norm overflows")
    norms = np.sqrt(sq)
    if 0.0 not in rows:                             # no zero row: no mask needed
        return a / norms[:, None]
    return np.divide(a, norms[:, None], out=a.copy(), where=norms[:, None] > 0.0)


def radial_sequences_from_rings(pairs: np.ndarray) -> np.ndarray:
    """(B, 2, d) radial sequences from a (B, 2, d) array of ring-mean pairs,
    each pair's rows l2-normalized; pairs is left unwritten."""
    radials = np.array(pairs, dtype=np.float64)
    for pair in radials:
        pair[...] = l2_normalize_rows(pair)
    return radials


def _coupling_costs(rows: np.ndarray, templates: np.ndarray):
    """Keep and swap pairing differences of all radials x templates at once.

    rows is (B, 2, d) and templates (Q, 2, d), finite, B, Q >= 1; returns the
    (B, Q, 2, d) differences rows - templates under the identity and the
    swapped row pairing, then their (B, Q) squared sums.
    """
    rows = np.asarray(rows, dtype=np.float64)
    templates = np.asarray(templates, dtype=np.float64)
    if (rows.ndim != 3 or rows.shape[1] != 2 or templates.shape[1:] != rows.shape[1:]
            or len(rows) == 0 or len(templates) == 0):
        raise ValueError(f"expected (B, 2, d) radials and (Q, 2, d) templates with B, Q >= 1, "
                         f"got {rows.shape} and {templates.shape}")
    for name, x in (("radials", rows), ("templates", templates)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} hold a non-finite value")
    diff_keep = rows[:, None, :, :] - templates[None, :, :, :]
    diff_swap = rows[:, None, :, :] - templates[None, :, ::-1, :]
    keep, swap = (diff_keep ** 2).sum(axis=(2, 3)), (diff_swap ** 2).sum(axis=(2, 3))
    return diff_keep, diff_swap, keep, swap


def _cost_matrix(radials: np.ndarray, templates: np.ndarray) -> np.ndarray:
    *_, keep, swap = _coupling_costs(radials, templates)
    return 0.5 * np.minimum(keep, swap)


def _sum_over_b(t: np.ndarray) -> np.ndarray:
    """Row sums of a (Q, B) array, each in the order numpy sums the
    matching column of the C-ordered (B, Q) array: one row after another
    for Q >= 2, pairwise for Q = 1, where (B, 1) coalesces to one line."""
    return np.add.reduce(t, axis=1) if len(t) == 1 else np.add.accumulate(t, axis=1)[:, -1]


def _sum_over_q(t: np.ndarray) -> np.ndarray:
    """Column sums of a (Q, B) array, each in the order numpy sums the
    matching row of the C-ordered (B, Q) array: pairwise, which below 8
    terms is left to right, as a reduce down the Q rows adds them."""
    return np.add.reduce(t, axis=0) if len(t) < 8 else np.add.reduce(t.T.copy(), axis=1)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """Bit for bit ``scipy.special.logsumexp`` over axis of a finite (Q, B)
    array, as SciPy computes it on the C-ordered (B, Q) transpose."""
    if axis == 0 and len(x) == 2:                    # Q = 2: closed form, ties included
        x0, x1 = x
        hi = np.maximum(x0, x1)
        t = np.minimum(x0, x1)
        np.subtract(t, hi, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        return np.add(t, hi, out=t)
    top = np.maximum.reduce(x, axis=axis, keepdims=True)
    diff = x - top
    ties = diff == 0.0                               # the maxima, ties included
    terms = np.exp(diff, out=diff)
    np.copyto(terms, 0.0, where=ties)                # SciPy's exp(-inf) at the maxima
    rest = _sum_over_b(terms) if axis == 1 else _sum_over_q(terms)
    if np.count_nonzero(ties) == top.size:           # one maximum on every line
        return np.log1p(rest) + top.ravel()
    count = np.add.reduce(ties, axis=axis, dtype=np.float64)
    # count >= 1, so rest / count is SciPy's where(rest == 0, rest, rest / count)
    return np.log1p(rest / count) + np.log(count) + top.ravel()


def sinkhorn_match(radials, templates: np.ndarray, epsilon: float = 0.05,
                   max_iters: int = 500, tol: float = 1e-6,
                   debug: bool = False) -> MatchingMatrix:
    """Entropic assignment of radial sequences to templates.

    Runs log-domain Sinkhorn with uniform marginals (1/B rows, 1/Q
    columns) on the kernel exp(-cost/epsilon), the costs pre-scaled by
    their mean. Each iteration ends with a row update, so row marginals
    are exact and convergence is measured on the column-marginal l1
    residual. The returned matrix is the coupling times B, making every
    row a probability distribution over templates. Non-convergence is
    reported through the converged flag, not an exception. An epsilon or
    tol that is not finite and > 0, a max_iters below 1, and an epsilon so
    small that the scaled log-kernel is not finite or that a row of the
    result is off 1 by more than 1e-6 raise ValueError.

    The loop keeps the log-kernel transposed, as a C-ordered (Q, B)
    array, so each reduction runs over contiguous rows. Every sum keeps
    the order numpy gives the same sum over the (B, Q) layout (see
    _sum_over_b and _sum_over_q), so f, the iteration count and the
    trace equal those of the (B, Q) loop over scipy.special.logsumexp
    bit for bit. Two trims keep those bits (see the module docstring):
    no count of maxima when every line has one, since a count of 1 adds
    log(1) = +0.0; and, with Q = 2, the closed form
    log1p(exp(lo - hi)) + hi for the u-update over templates, where a
    tie gives log1p(1) + hi = log(2) + hi.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    cost = _cost_matrix(radials, templates)
    nb, nq = cost.shape
    mean = cost.mean()
    scaled = cost / mean if mean > 0 else cost
    log_kernel = -scaled / epsilon
    if not np.isfinite(log_kernel).all():
        raise ValueError(f"epsilon = {epsilon!r} leaves the scaled log-kernel non-finite")
    kernel = np.ascontiguousarray(log_kernel.T)                 # (Q, B)
    log_a = np.full(nb, -np.log(nb))
    log_b = np.full(nq, -np.log(nq))
    b = np.exp(log_b)
    u = np.zeros(nb)
    # u + kernel serves both this iteration's coupling and the next v-update
    u_kernel = u + kernel
    trace = [] if debug else None
    converged = False
    for iters in range(1, max_iters + 1):
        v = log_b - _logsumexp(u_kernel, 1)
        v_col = v[:, None]
        u = log_a - _logsumexp(kernel + v_col, 0)
        u_kernel = u + kernel
        coupling = np.exp(u_kernel + v_col)
        if debug:
            # dual of the entropic problem, in the scaled-cost units; the
            # total runs over the coupling in its (B, Q) order
            trace.append(epsilon * (float(u @ np.exp(log_a)) + float(v @ b)
                                    - np.add.reduce(coupling.T.ravel())))
        residual = np.add.reduce(np.abs(_sum_over_b(coupling) - b))
        if residual < tol:
            converged = True
            break
    f = np.multiply(nb, coupling.T, order="C")
    row_err = np.abs(np.add.reduce(f, axis=1) - 1.0).max()
    if not row_err <= 1e-6:                          # NaN fails too
        raise ValueError(f"epsilon = {epsilon!r} is too small: a row of the matching is "
                         f"off 1 by {row_err:.2g}, above 1e-6")
    return MatchingMatrix(
        f=f,
        converged=converged,
        iterations=iters,
        objective_trace=np.array(trace) if debug else None,
    )


def structural_loss(f: np.ndarray, radials, templates: np.ndarray):
    """Assignment-weighted transport cost with gradient on the radial rows.

    loss = (1/B) sum_b sum_q f[b,q] * min(keep, swap) / 2, f the (B, Q)
    matching (a MatchingMatrix's f), where keep and swap are the squared
    distances |r_b - t_q|^2 of radial b to template q under the identity
    and the swapped row pairing: the transport cost of two uniform
    two-point measures, whose optimal coupling is one of the two
    permutations. The optimal permutation of every pair is held fixed
    (identity at ties), giving the deterministic subgradient
    d loss / d row = (1/B) sum_q f[b,q] (row - matched template row).
    The costs and the matched differences both come from the keep and
    swap pairing differences of _coupling_costs, built once.
    """
    nb = len(radials)
    if f.shape != (nb, len(templates)):
        raise ValueError(
            f"matching shape {f.shape} does not fit B={nb}, Q={len(templates)}"
        )
    diff_keep, diff_swap, keep, swap = _coupling_costs(radials, templates)
    swapped = swap < keep                              # ties keep the identity
    loss = float((f * 0.5 * np.minimum(keep, swap)).sum() / nb)
    diff = np.where(swapped[:, :, None, None], diff_swap, diff_keep)
    grad_rows = (f[:, :, None, None] * diff).sum(axis=1) / nb
    return loss, grad_rows


def structural_loss_ego(pairs: np.ndarray, f: np.ndarray, templates: np.ndarray):
    """Structural loss with the gradient chained back to the ring means.

    Normalizes the (B, 2, d) ring-mean pairs into radial sequences, takes
    structural_loss against the templates under the (B, Q) matching f, and
    pulls the loss gradient through the normalization, zero ring rows held
    constant. Returns the loss and the (B, 2, d) gradient on pairs.
    """
    radials = radial_sequences_from_rings(pairs)
    loss, grad_rows = structural_loss(f, radials, templates)

    # d(h/|h|) = (g - (g.r) r) / |h| per nonzero ring row; the stacked
    # (1 x d) @ (d x 1) products are the row dots np.linalg.norm makes
    raw = np.asarray(pairs, dtype=np.float64)                    # (B, 2, d)
    norms = np.sqrt(raw[..., None, :] @ raw[..., None])[..., 0]  # (B, 2, 1)
    live = norms != 0.0
    unit = np.divide(raw, norms, out=np.zeros_like(raw), where=live)
    along = (grad_rows[..., None, :] @ unit[..., None])[..., 0]
    return loss, np.divide(grad_rows - along * unit, norms, out=np.zeros_like(raw), where=live)
