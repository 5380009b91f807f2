"""Node-by-node reference implementations the tests check the fast paths against.

The library computes ring means for all nodes at once with sparse ring
operators (graph.HopAggregator) and normalizes a batch of them
(structural.radial_sequences_from_rings); these walk one node's
neighbourhood at a time instead. The partition reference runs the
partitioner's two loops on numpy arrays and scalars, where the library
runs them on plain per-node lists. The structural-loss reference scores
one (radial, template) pair at a time, where the library scores all
pairs from one (B, Q, 2, d) array of pairing differences. The semantic
references loop over the client uploads one class at a time, where the
library sums the stacked pool (fedsim.semantic_pool). Four helpers that
no library module calls live here too: a star graph, a node's neighbour
ids, and the transport and two-point Gromov-Wasserstein distances of one
pair.
"""

from collections import deque

import numpy as np

from fedcal.graph import Graph, _farthest_point_seeds
from fedcal.refine import _gw_values, intra_distances, softmax
from fedcal.structural import _cost_matrix, l2_normalize_rows


def star_graph(leaves, feat_dim=3):
    """Node 0 joined to nodes 1..leaves, every feature 1 and every label 0."""
    edges = [(0, i) for i in range(1, leaves + 1)]
    n = leaves + 1
    return Graph.from_edges(
        np.ones((n, feat_dim)), np.zeros(n, dtype=int), edges
    )


def neighbors(g: Graph, v: int) -> np.ndarray:
    """Sorted neighbor ids of node v: a view of row v's CSR indices."""
    a = g.adjacency
    return a.indices[a.indptr[v]:a.indptr[v + 1]]


def k_hop_sets(g: Graph, v: int, k: int) -> np.ndarray:
    """Nodes at shortest-path distance exactly k from v, for k in {1, 2}."""
    if not (0 <= v < g.num_nodes):
        raise ValueError(f"node {v} out of range")
    if k == 1:
        return np.array(neighbors(g, v), dtype=np.int64)
    if k != 2:
        raise ValueError("only k in {1, 2} is supported")
    one = set(int(u) for u in neighbors(g, v))
    two = set()
    for u in one:
        two.update(int(w) for w in neighbors(g, u))
    two.discard(v)
    two -= one
    return np.array(sorted(two), dtype=np.int64)


def radial_sequence(g: Graph, ego: np.ndarray, node: int) -> np.ndarray:
    """Normalized ring means around one node, as a 2 x d array.

    Ring means use the shared fallbacks: an empty 2-hop ring reuses the
    1-hop aggregate and an empty 1-hop ring reuses the node's own ego
    row. Zero rows stay zero after normalization.
    """
    one = neighbors(g, node)
    agg1 = ego[one].mean(axis=0) if len(one) else ego[node].copy()
    two = k_hop_sets(g, node, 2)
    agg2 = ego[two].mean(axis=0) if len(two) else agg1
    rows = np.vstack([agg1, 0.5 * (agg1 + agg2)])
    return l2_normalize_rows(rows)


def partition_node_ids(g: Graph, m: int, seed) -> list:
    """Root node ids of each part of graph.partition_nonoverlapping(g, m, seed).

    Same seeds, same smallest-part-first region growing with np.argmin's
    lowest-index tie-break, same boundary pass with np.argmax's first
    maximum, all on numpy owner/size arrays.
    """
    n = g.num_nodes
    seeds = _farthest_point_seeds(g, m, np.random.default_rng(seed))

    owner = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(m, dtype=np.int64)
    frontiers = [deque() for _ in range(m)]
    for p, s in enumerate(seeds):
        owner[s] = p
        sizes[p] = 1
        frontiers[p].extend(int(u) for u in neighbors(g, s))
    scan = 0
    remaining = n - m
    while remaining > 0:
        p = int(np.argmin(sizes))
        v = -1
        while frontiers[p]:
            cand = frontiers[p].popleft()
            if owner[cand] < 0:
                v = cand
                break
        if v < 0:
            while owner[scan] >= 0:
                scan += 1
            v = scan
        owner[v] = p
        sizes[p] += 1
        remaining -= 1
        frontiers[p].extend(int(u) for u in neighbors(g, v) if owner[u] < 0)

    target = n / m
    lo = min(int(np.ceil(0.8 * target)), n // m)
    hi = max(int(np.floor(1.2 * target)), -(-n // m))
    for v in range(n):
        cur = int(owner[v])
        counts = np.bincount(owner[neighbors(g, v)], minlength=m)
        best = int(np.argmax(counts))
        if best != cur and counts[best] > counts[cur]:
            if sizes[cur] - 1 >= lo and sizes[best] + 1 <= hi:
                owner[v] = best
                sizes[cur] -= 1
                sizes[best] += 1
    return [g.node_ids[owner == p] for p in range(m)]


def structural_loss_pairs(f: np.ndarray, radials: np.ndarray, templates: np.ndarray):
    """(loss, row gradient) of structural.structural_loss, one (b, q) at a time.

    Each pair takes the cheaper of the identity and the swapped row
    pairing, the identity on ties. The gradient of radial b sums
    f[b, q] * (row - matched template row) over q in template order; loss
    and gradient are divided by B.
    """
    nb, nq = f.shape
    loss = 0.0
    grad = np.zeros((nb, 2, radials.shape[2]))
    for b in range(nb):
        for q in range(nq):
            keep = float(((radials[b] - templates[q]) ** 2).sum())
            swap = float(((radials[b] - templates[q][::-1]) ** 2).sum())
            matched = templates[q][::-1] if swap < keep else templates[q]
            loss += f[b, q] * 0.5 * min(keep, swap)
            grad[b] += f[b, q] * (radials[b] - matched)
    return loss / nb, grad / nb


def ot_distance(a, b) -> float:
    """Transport cost between two 2 x d row sets under uniform weights.

    With two support points per side and squared-Euclidean ground cost,
    the optimal coupling is one of the two permutations, so the value is
    half the cheaper permutation's total cost (the library's cost matrix
    for one pair).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != 2:
        raise ValueError(f"expected matching 2 x d arrays, got {a.shape} vs {b.shape}")
    return float(_cost_matrix(a[None], b[None])[0, 0])


def gw_2point(a, b) -> float:
    """Gromov-Wasserstein discrepancy of two 2 x d uniform point sets.

    Depends only on the two intra-pair distances, hence invariant to
    rotations, reflections and translations of either side.
    """
    alpha = intra_distances(np.asarray(a, dtype=np.float64)[None])
    beta = intra_distances(np.asarray(b, dtype=np.float64)[None])[0]
    return float(_gw_values(alpha, beta)[0])


def deviation_vectors_loop(uploads, anchors: np.ndarray) -> np.ndarray:
    """refine.deviation_vectors, one (k, present, per_class_loss) upload and
    one present class at a time."""
    d, c = anchors.shape
    out = np.zeros((d, c))
    counts = np.zeros(c)
    for k, present, _ in uploads:
        for i in np.nonzero(present)[0]:
            out[:, i] += k[:, i] - anchors[:, i]
            counts[i] += 1
    nz = counts > 0
    out[:, nz] /= counts[nz]
    return out


def difficulty_weights_loop(uploads, tau: float) -> np.ndarray:
    """refine.difficulty_weights, one (k, present, per_class_loss) upload at a time."""
    c = uploads[0][2].shape[0]
    totals = np.zeros(c)
    counts = np.zeros(c)
    for _, present, losses in uploads:
        totals[present] += losses[present]
        counts[present] += 1
    mean = np.where(counts > 0, totals / np.maximum(counts, 1), 0.0)
    return softmax(mean, tau)
