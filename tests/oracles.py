"""Node-by-node reference implementations the tests check the fast paths against.

The library computes ring means for all nodes at once with sparse ring
operators (graph.HopAggregator) and normalizes a batch of them
(structural.radial_sequences_from_rings); these walk one node's
neighbourhood at a time instead. The partition reference runs the
partitioner's two loops on numpy arrays and scalars, where the library
runs them on plain per-node lists.
"""

from collections import deque

import numpy as np

from fedcal.graph import Graph, _farthest_point_seeds
from fedcal.numerics import l2_normalize_rows


def k_hop_sets(g: Graph, v: int, k: int) -> np.ndarray:
    """Nodes at shortest-path distance exactly k from v, for k in {1, 2}."""
    if not (0 <= v < g.num_nodes):
        raise ValueError(f"node {v} out of range")
    if k == 1:
        return np.array(g.neighbors(v), dtype=np.int64)
    if k != 2:
        raise ValueError("only k in {1, 2} is supported")
    one = set(int(u) for u in g.neighbors(v))
    two = set()
    for u in one:
        two.update(int(w) for w in g.neighbors(u))
    two.discard(v)
    two -= one
    return np.array(sorted(two), dtype=np.int64)


def radial_sequence(g: Graph, ego: np.ndarray, node: int) -> np.ndarray:
    """Normalized ring means around one node, as a 2 x d array.

    Ring means use the shared fallbacks: an empty 2-hop ring reuses the
    1-hop aggregate and an empty 1-hop ring reuses the node's own ego
    row. Zero rows stay zero after normalization.
    """
    one = g.neighbors(node)
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
        frontiers[p].extend(int(u) for u in g.neighbors(s))
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
        frontiers[p].extend(int(u) for u in g.neighbors(v) if owner[u] < 0)

    target = n / m
    lo = min(int(np.ceil(0.8 * target)), n // m)
    hi = max(int(np.floor(1.2 * target)), -(-n // m))
    for v in range(n):
        cur = int(owner[v])
        counts = np.bincount(owner[g.neighbors(v)], minlength=m)
        best = int(np.argmax(counts))
        if best != cur and counts[best] > counts[cur]:
            if sizes[cur] - 1 >= lo and sizes[best] + 1 <= hi:
                owner[v] = best
                sizes[cur] -= 1
                sizes[best] += 1
    return [g.node_ids[owner == p] for p in range(m)]
