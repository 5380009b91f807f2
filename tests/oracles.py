"""Node-by-node reference implementations the tests check the fast paths against.

The library computes ring means for all nodes at once with sparse ring
operators (graph.HopAggregator) and normalizes a batch of them
(structural.radial_sequences_from_rings); these walk one node's
neighbourhood at a time instead.
"""

import numpy as np

from fedcal.graph import Graph
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
