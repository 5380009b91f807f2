"""Graph data model, client partitioning, synthetic generation, file I/O.

A Graph is an undirected, unweighted node-attributed graph with one
train/val/test split array, its edges held in one symmetric scipy.sparse
CSR adjacency that whole-graph operations work on by sparse algebra.
Instances are treated as immutable after construction; all operations
return new Graph values. Each partition mode is one function of the root
graph, the client count and a seed.

File formats (plain text, `#` starts a comment line):
  edges     one ``u v`` pair per line, 0-based node ids
  features  one row per node, whitespace-separated finite decimals
  labels    one integer per node, -1 meaning unlabeled
"""

from __future__ import annotations

import codecs
import importlib.util
import io
import sys
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np


def _defer_unused_numpy_submodules():
    """Register numpy.f2py and numpy.testing as lazy modules that load on
    first attribute access. SciPy's array-API layer touches every numpy
    attribute while scipy.sparse imports, which would otherwise load both
    (with unittest, email, charset_normalizer and its codecs: about 9 MB
    and 0.1 s per process) though fedcal uses neither."""
    for name in ("numpy.f2py", "numpy.testing"):
        spec = None if name in sys.modules else importlib.util.find_spec(name)
        if spec is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        # bound, or numpy's __getattr__ re-enters itself on `import numpy.f2py`
        setattr(np, name.rpartition(".")[2], module)


_defer_unused_numpy_submodules()
import scipy.sparse as sp  # noqa: E402  after the deferral above

__all__ = [
    "Graph",
    "HopAggregator",
    "induced_subgraph",
    "partition_nonoverlapping",
    "partition_overlapping",
    "generate_sbm",
    "data_lines",
    "load_graph",
    "parse_row",
    "read_text",
    "save_graph_files",
    "split_masks",
    "edge_homophily",
]


@dataclass
class Graph:
    """One (sub)graph: features, labels, CSR adjacency and the node split.

    ``adjacency`` is a symmetric n x n ``scipy.sparse`` CSR matrix of
    ones with sorted, unique column indices and an empty diagonal, so
    row v's index slice is the sorted neighbor list of node v.
    ``split`` gives each node one code (see the field): train, val and test
    are disjoint by construction and hold labeled nodes only. ``train_mask``,
    ``val_mask`` and ``test_mask`` are its read-only ``split == k`` masks.
    ``node_ids`` keeps the identity of each node in the graph it was
    induced from (arange(n) for a root graph), so overlapping clients can
    be compared and embeddings exported under stable ids.
    """

    features: np.ndarray                 # (n, d0) float64
    labels: np.ndarray                   # (n,) int64, -1 = unlabeled
    adjacency: sp.csr_matrix             # (n, n) symmetric 0/1, empty diagonal
    split: np.ndarray                    # (n,) int8: 0 none, 1 train, 2 val, 3 test
    node_ids: np.ndarray = field(default=None)  # (n,) int64

    def __post_init__(self):
        # numbers only: numpy makes object of None and of ints past int64,
        # and the casts would parse text and drop an imaginary part
        features, labels = np.asarray(self.features), np.asarray(self.labels)
        if features.dtype.kind not in "buif":
            raise ValueError(f"features must have a bool, integer or float dtype, "
                             f"got {features.dtype}")
        if labels.dtype.kind not in "iuf":
            raise ValueError(f"labels must have an integer or float dtype, got {labels.dtype}")
        self.features = np.asarray(features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] == 0:
            raise ValueError("features must be an (n, d0) matrix with d0 >= 1, "
                             f"got shape {self.features.shape}")
        if labels.dtype.kind == "f":             # checked before the int cast truncates 1.7
            whole = (labels == np.floor(labels)) & (labels >= -2.0 ** 63) & (labels < 2.0 ** 63)
            bad = np.flatnonzero(~whole)         # NaN and inf too
            if len(bad):
                raise ValueError(f"label {labels.flat[bad[0]]} of node {bad[0]} is not "
                                 "a whole number within int64")
        # -1 is the one unlabeled mark; a uint64 past int64 would wrap in the cast
        bad = np.flatnonzero((labels < -1) | (labels > np.iinfo(np.int64).max))
        if len(bad):
            raise ValueError(f"label {labels.flat[bad[0]]} of node {bad[0]} is below -1 "
                             "or past int64")
        self.labels = np.asarray(labels, dtype=np.int64)
        self.adjacency = sp.csr_matrix(self.adjacency, dtype=np.float64)
        n = self.features.shape[0]
        ids = np.arange(n) if self.node_ids is None else np.asarray(self.node_ids)
        if ids.shape != (n,):
            raise ValueError(f"node_ids must hold one id per node, shape ({n},), "
                             f"got shape {ids.shape}")
        if ids.dtype.kind not in "iu" or not np.can_cast(ids.dtype, np.int64):
            raise ValueError(f"node_ids must have an integer dtype within int64, "
                             f"got {ids.dtype}")
        self.node_ids = np.asarray(ids, dtype=np.int64)
        self.split = np.asarray(self.split)
        self.validate()                          # checks the codes before the cast
        self.split = self.split.astype(np.int8)
        masks = self.split == np.arange(1, 4, dtype=np.int8)[:, None]     # (3, n)
        self.split.flags.writeable = masks.flags.writeable = False
        self.train_mask, self.val_mask, self.test_mask = masks

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        return self.adjacency.nnz // 2

    def validate(self):
        """Raise ValueError naming the first fault of the fields' invariants.

        Symmetry is tested by comparing the canonical index arrays of the
        adjacency and of its transposed CSR copy; only on a mismatch does
        the elementwise ``a != a.T`` run, to name the first asymmetric edge.
        """
        n = self.num_nodes
        if self.labels.shape != (n,):
            raise ValueError("labels length must equal node count")
        a = self.adjacency
        if a.shape != (n, n):
            raise ValueError("adjacency must be n x n for n nodes")
        s = self.split
        if s.shape != (n,):
            raise ValueError("split length must equal node count")
        if not np.issubdtype(s.dtype, np.integer):
            raise ValueError(f"split must hold integer codes, got dtype {s.dtype}")
        bad = np.flatnonzero((s < 0) | (s > 3))
        if len(bad):
            raise ValueError(f"split code {s[bad[0]]} at node {bad[0]} is not 0, 1, 2 or 3")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite entries")
        unlabeled = np.flatnonzero((s > 0) & (self.labels < 0))
        if len(unlabeled):
            v = unlabeled[0]
            raise ValueError(f"{('train', 'val', 'test')[s[v] - 1]} node {v} carries no label")
        if not a.has_canonical_format or np.any(a.data != 1.0):
            raise ValueError("adjacency must hold unique sorted entries equal to 1")
        if a.diagonal().any():
            raise ValueError(f"self-loop at node {np.flatnonzero(a.diagonal())[0]}")
        t = a.T.tocsr()                          # canonical, as a is
        if not (np.array_equal(a.indptr, t.indptr) and np.array_equal(a.indices, t.indices)):
            asym = (a != a.T).tocoo()
            raise ValueError(f"asymmetric edge between {asym.row[0]} and {asym.col[0]}")

    @classmethod
    def from_edges(cls, features, labels, edges) -> "Graph":
        """Build an unsplit Graph from an (m, 2) array-like of (u, v) pairs.

        Edges are symmetrized and deduplicated in one COO-to-CSR pass over
        both directions of every pair; self-loops are dropped. A
        node id that is not a whole number or not in [0, n) raises
        ValueError naming its edge; both checks run before the int cast,
        which would truncate 1.7 to 1 and overflow at 1e20 or 2**70.
        """
        n = np.asarray(features).shape[0]        # the constructor checks the dtype
        edges = np.asarray(edges).reshape(-1, 2)
        if edges.dtype.kind not in "biuf":           # digit strings parse as ids
            try:
                edges = edges.astype(np.int64)
            except OverflowError:               # Python ints beyond int64, checked below
                pass
        if edges.dtype.kind == "f":
            bad = np.nonzero((edges != np.floor(edges)).any(axis=1))[0]     # NaN too
            if len(bad):
                u, v = edges[bad[0]]
                raise ValueError(f"edge ({u}, {v}) holds a node id that is not an integer")
        bad = np.nonzero(((edges < 0) | (edges >= n)).any(axis=1))[0]
        if len(bad):
            u, v = edges[bad[0]]
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        edges = edges.astype(np.int64, copy=False)
        u, v = edges[edges[:, 0] != edges[:, 1]].T
        adjacency = sp.csr_matrix((np.ones(2 * len(u)), (np.append(u, v), np.append(v, u))),
                                  shape=(n, n))
        adjacency.data[:] = 1.0                  # duplicates were summed
        return cls(features=features, labels=labels, adjacency=adjacency,
                   split=np.zeros(n, dtype=np.int8))


def induced_subgraph(g: Graph, nodes) -> Graph:
    """Subgraph on the given node list (original-order ids, deduplicated, codes kept).

    An id that is not an integer in [0, n) raises ValueError naming the
    first such id; the check runs before the int cast, which would
    truncate 0.5 to 0, and before indexing, which would wrap -1 to n - 1.
    """
    ids = np.asarray(nodes).ravel()
    n = g.num_nodes
    if ids.dtype.kind in "iuf":
        bad = np.flatnonzero((ids != np.floor(ids)) | (ids < 0) | (ids >= n))   # NaN too
    else:                         # bool, text, None, ints past int64: each tested alone
        bad = [i for i, v in enumerate(ids.tolist()) if isinstance(v, bool)
               or not isinstance(v, (int, np.integer)) or not 0 <= v < n]
    if len(bad):
        raise ValueError(f"node id {ids.tolist()[bad[0]]!r} is not an integer in [0, {n})")
    nodes = np.unique(ids.astype(np.int64))
    return Graph(
        features=g.features[nodes],
        labels=g.labels[nodes],
        adjacency=g.adjacency[nodes][:, nodes],
        split=g.split[nodes],
        node_ids=g.node_ids[nodes],
    )


def _hop_distances(a: sp.csr_matrix, sources) -> np.ndarray:
    """Float hop count from the nearest source to each node, inf if unreachable.

    Breadth-first over the CSR rows, one level at a time: a level gathers
    the index slices of its frontier rows and keeps one copy of each
    unvisited neighbor, so it costs work in proportion to the frontier's
    edges.
    """
    indptr, indices = a.indptr, a.indices
    n = a.shape[0]
    dist = np.full(n, np.inf)
    slot = np.empty(n, dtype=np.intp)
    frontier = np.asarray(sources, dtype=np.intp)
    dist[frontier] = 0.0
    level = 0.0
    while len(frontier):
        level += 1.0
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        nbrs = indices[np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)]
        nbrs = nbrs[dist[nbrs] == np.inf]
        # one copy per node: of its positions in nbrs, keep the one slot holds
        k = np.arange(len(nbrs))
        slot[nbrs] = k
        frontier = nbrs[slot[nbrs] == k]
        dist[frontier] = level
    return dist


def _farthest_point_seeds(g: Graph, m: int, rng: np.random.Generator) -> list:
    """m seed nodes: one random, the rest maximizing hop distance to chosen seeds.

    Distances come from a multi-source BFS (``_hop_distances``); nodes
    unreachable from every seed are at distance inf, so argmax takes the
    first of them.
    """
    seeds = [int(rng.integers(g.num_nodes))]
    while len(seeds) < m:
        seeds.append(int(np.argmax(_hop_distances(g.adjacency, seeds))))
    return seeds


def partition_nonoverlapping(g: Graph, num_clients: int, seed=0):
    """num_clients >= 1 disjoint, covering, size-balanced client subgraphs (g for 1).

    Seeded greedy BFS region growing: farthest-point seeds, fronts grown
    smallest-part-first (so sizes stay within one node of each other),
    then a single boundary-refinement pass that moves a node to the
    neighboring part holding more of its neighbors whenever the move
    keeps sizes within the +-20% balance band.
    """
    m = num_clients
    n = g.num_nodes
    if m < 1:
        raise ValueError(f"non-overlapping partition needs >= 1 client, got {m}")
    if m > n:
        raise ValueError(f"cannot split {n} nodes into {m} parts")
    if m == 1:
        return [g]
    rng = np.random.default_rng(seed)
    seeds = _farthest_point_seeds(g, m, rng)

    # both loops step one node at a time, so they read Python ints: indptr
    # as a list, indices through a memoryview, whose slices copy nothing and
    # whose items are the same ints a list of every edge would hold
    indptr, indices = g.adjacency.indptr.tolist(), memoryview(g.adjacency.indices)
    owner = [-1] * n
    sizes = [1] * m
    frontiers = [deque(indices[indptr[s]:indptr[s + 1]]) for s in seeds]
    for p, s in enumerate(seeds):
        owner[s] = p
    scan = 0                                     # pointer for teleport fallback
    for _ in range(n - m):
        p = sizes.index(min(sizes))              # ties go to the lowest index
        v = -1
        while frontiers[p]:
            cand = frontiers[p].popleft()
            if owner[cand] < 0:
                v = cand
                break
        if v < 0:                                # disconnected or exhausted front
            while owner[scan] >= 0:
                scan += 1
            v = scan
        owner[v] = p
        sizes[p] += 1
        frontiers[p].extend([u for u in indices[indptr[v]:indptr[v + 1]] if owner[u] < 0])

    # balance band: +-20% of the ideal size, widened just enough to keep
    # the perfectly balanced sizes floor(n/m)/ceil(n/m) always feasible
    target = n / m
    lo = min(int(np.ceil(0.8 * target)), n // m)
    hi = max(int(np.floor(1.2 * target)), -(-n // m))
    for v in range(n):
        cur = owner[v]
        counts = [0] * m
        for u in indices[indptr[v]:indptr[v + 1]]:
            counts[owner[u]] += 1
        best = counts.index(max(counts))         # ties go to the first maximum
        if best != cur and counts[best] > counts[cur]:
            if sizes[cur] - 1 >= lo and sizes[best] + 1 <= hi:
                owner[v] = best
                sizes[cur] -= 1
                sizes[best] += 1

    owner = np.array(owner)
    return [induced_subgraph(g, np.nonzero(owner == p)[0]) for p in range(m)]


def partition_overlapping(g: Graph, num_clients: int, seed=0):
    """Client subgraphs with deliberately shared nodes.

    The root graph is first split into num_clients/5 temporary disjoint
    subgraphs; from each, five independent seeded samples of half the
    nodes (rounded up) are drawn with their induced edges, giving exactly
    num_clients client graphs (a positive multiple of 5). Each node keeps
    its code of the root graph's split.
    """
    m = num_clients
    if m < 5 or m % 5 != 0:
        raise ValueError(f"overlapping partition needs a positive multiple of 5 "
                         f"clients, got {m}")
    temps = partition_nonoverlapping(g, m // 5, seed)
    clients = []
    for ti, tg in enumerate(temps):
        half = -(-tg.num_nodes // 2)             # ceil(n/2)
        for s in range(5):
            rng = np.random.default_rng([seed, ti, s])
            nodes = rng.choice(tg.num_nodes, size=half, replace=False)
            clients.append(induced_subgraph(tg, nodes))
    return clients


_EDGE_CHUNK = 1 << 16                    # uniforms per step of generate_sbm's edge loop


def generate_sbm(n: int, num_classes: int, p_in: float, p_out: float,
                 feat_dim: int, feat_sep: float, seed) -> Graph:
    """Seeded stochastic block model with class-separated Gaussian features.

    Classes are assigned round-robin (balanced); each unordered node pair
    gets an edge independently with probability p_in (same class) or
    p_out (different class). Features are a seeded unit class-mean vector
    scaled by feat_sep plus standard-normal noise. p_in > p_out yields a
    homophilic graph, p_in < p_out a heterophilic one. The pair draws
    stream in fixed chunks, so time grows with n^2 / 2 but memory only
    with the edges kept.
    """
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    if feat_sep < 0:
        raise ValueError("feat_sep must be >= 0")
    if n < 1 or num_classes < 1 or feat_dim < 1:
        raise ValueError("n, num_classes and feat_dim must be >= 1")
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % num_classes

    # one uniform per pair (i < j) in row-major order, drawn in chunks that
    # continue the same stream; pair t sits in row i with offsets[i] <= t
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * (n - 1) - rows * (rows - 1) // 2
    pairs = n * (n - 1) // 2
    p_max = max(p_in, p_out)
    edges = [np.empty((0, 2), dtype=np.int64)]
    for start in range(0, pairs, _EDGE_CHUNK):
        u = rng.random(min(_EDGE_CHUNK, pairs - start))
        t = np.flatnonzero(u < p_max)
        u = u[t]
        t += start
        i = np.searchsorted(offsets, t, side="right") - 1
        j = t - offsets[i] + i + 1
        keep = u < np.where(labels[i] == labels[j], p_in, p_out)
        edges.append(np.column_stack([i[keep], j[keep]]))
    edges = np.concatenate(edges)

    means = rng.standard_normal((num_classes, feat_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    features = feat_sep * means[labels] + rng.standard_normal((n, feat_dim))
    return Graph.from_edges(features, labels, edges)


def edge_homophily(g: Graph) -> float:
    """Fraction of edges joining same-class nodes (labeled endpoints only)."""
    upper = sp.triu(g.adjacency, k=1, format="coo")
    lu, lv = g.labels[upper.row], g.labels[upper.col]
    labeled = (lu >= 0) & (lv >= 0)
    total = int(labeled.sum())
    same = int((lu[labeled] == lv[labeled]).sum())
    return same / total if total else 0.0


def read_text(path, newline=None) -> io.StringIO:
    """The file at path as UTF-8 text, split as ``open(path, newline=newline)`` splits it.

    A leading UTF-8 byte-order mark is dropped. A directory raises
    ValueError naming path, and bytes that are not UTF-8 one naming
    path:line, the line that holds the first such byte.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except IsADirectoryError:
        raise ValueError(f"{path}: is a directory, not a file") from None
    # a leading byte-order mark is skipped, and error offsets still count it
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return io.StringIO(data[bom:].decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        start = bom + exc.start
        # a stand-in for the bad byte, so splitlines counts the line it opens
        line = len((data[:start] + b".").splitlines())
        raise ValueError(f"{path}:{line}: not UTF-8 text ({exc.reason} at byte "
                         f"{start})") from None


def data_lines(path):
    """(line number, stripped text) of each line of the file at path that is
    neither blank nor a ``#`` comment; the numbers count every line."""
    for lineno, raw in enumerate(read_text(path), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_row(path, lineno, text, parse, width, what) -> list:
    """The whitespace-separated values of one line, each read by ``parse``.

    A value ``parse`` rejects, a count other than ``width`` (any count when
    it is None) and a value that is not finite each raise ValueError naming
    path:lineno and ``what``.
    """
    try:
        row = [parse(x) for x in text.split()]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {what}: {exc}") from None
    if width is not None and len(row) != width:
        raise ValueError(f"{path}:{lineno}: {what} row has {len(row)} values, "
                         f"expected {width}")
    if not all(-np.inf < x < np.inf for x in row):
        raise ValueError(f"{path}:{lineno}: {what} holds a non-finite value")
    return row


def load_graph(edges_path, features_path, labels_path, num_classes=None) -> Graph:
    """Read a graph from the three text files (see module docstring)."""
    features = []
    for lineno, line in data_lines(features_path):
        width = len(features[0]) if features else None
        features.append(parse_row(features_path, lineno, line, float, width, "features"))
    if not features:
        raise ValueError(f"{features_path}: no feature rows")
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]

    labels = []
    for lineno, line in data_lines(labels_path):
        (lab,) = parse_row(labels_path, lineno, line, int, 1, "label")
        if lab < -1:
            raise ValueError(f"{labels_path}:{lineno}: label {lab} out of range")
        if num_classes is not None and lab >= num_classes:
            raise ValueError(
                f"{labels_path}:{lineno}: label {lab} >= num_classes {num_classes}"
            )
        labels.append(lab)
    if len(labels) != n:
        raise ValueError(
            f"{labels_path}: {len(labels)} labels for {n} feature rows"
        )

    edges = []
    for lineno, line in data_lines(edges_path):
        u, v = parse_row(edges_path, lineno, line, int, 2, "edge")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{edges_path}:{lineno}: edge ({u}, {v}) out of range")
        edges.append((u, v))

    return Graph.from_edges(features, labels, edges)


def save_graph_files(g: Graph, edges_path, features_path, labels_path):
    """Write a graph in the text format load_graph reads."""
    upper = sp.triu(g.adjacency, k=1, format="coo")    # row-major order
    np.savetxt(edges_path, np.column_stack([upper.row, upper.col]), fmt="%d")
    with open(features_path, "w", encoding="utf-8") as fh:
        for row in g.features:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
    np.savetxt(labels_path, g.labels, fmt="%d")


def split_masks(g: Graph, ratios=(0.2, 0.4, 0.4), seed=0) -> Graph:
    """g with a stratified train/val/test split over its labeled nodes.

    Per class, nodes are shuffled with the seeded generator and seat
    counts follow largest-remainder rounding of ratios * class size (an
    implicit leftover bucket, code 0 like every unlabeled node, absorbs
    1 - sum(ratios)). A run always takes the default 0.2/0.4/0.4.
    """
    ratios = tuple(ratios)    # a bool or a string is no ratio, and NaN fails r >= 0
    if len(ratios) != 3 or not all(isinstance(r, (int, float, np.integer, np.floating))
                                   and not isinstance(r, bool) and r >= 0 for r in ratios):
        raise ValueError("ratios must be three non-negative numbers")
    ratios = tuple(map(float, ratios))
    if sum(ratios) > 1.0 + 1e-12:
        raise ValueError("ratios must sum to at most 1")
    rng = np.random.default_rng(seed)
    split = np.zeros(g.num_nodes, dtype=np.int8)
    codes = np.array([1, 2, 3, 0], dtype=np.int8)    # train, val, test, leftover
    quotas4 = np.array(list(ratios) + [max(0.0, 1.0 - sum(ratios))])
    labeled = np.nonzero(g.labels >= 0)[0]
    for c in np.unique(g.labels[labeled]):
        idx = labeled[g.labels[labeled] == c]
        idx = rng.permutation(idx)
        share = quotas4 * len(idx)
        base = np.floor(share).astype(int)
        order = np.argsort(-(share - base), kind="stable")
        for k in range(len(idx) - base.sum()):
            base[order[k]] += 1
        split[idx] = np.repeat(codes, base)
    return replace(g, split=split)


def _row_means(pattern: sp.csr_matrix, fallback: sp.csr_matrix) -> sp.csr_matrix:
    """Mean operator over each row of a 0/1 CSR pattern; empty rows copy fallback.

    The pattern is the caller's to give away: its data is replaced by the
    row means, and without an empty row it is the result.
    The fallback rows are selected and added only when some row is empty.
    """
    counts = np.diff(pattern.indptr)
    pattern.data = np.repeat(1.0 / np.maximum(counts, 1), counts)
    if counts.all():
        return pattern
    return pattern + (sp.diags((counts == 0) * 1.0) @ fallback).sorted_indices()


class HopAggregator:
    """Sparse ring-mean operators for one graph, built once and reused.

    m1 is the CSR adjacency A row-normalized, with the identity row for an
    isolated node, so hop1 rows average the 1-hop neighbor values. The
    exact-2-hop ring is the pattern of (A + I)^2 minus that of A + I (the
    product is symmetric, so the CSR copy of its transpose gives it with
    sorted rows); row-normalized into a2, an empty ring falling back to the
    m1 row (built only when some ring is empty), it
    gives m2 = (m1 + a2) / 2, the mean of the 1-hop and 2-hop ring means.
    While building, A + I and the 2-hop ball are dropped once the ring
    exists, the ring is rescaled in place into a2, and m1 + a2 is halved in
    place into m2, so after the ring is formed at most m1, a2 and m2 are
    alive together.
    Both operators are constants of the graph, so gradients flow through
    them as fixed linear maps. They hold only the rows of the sorted node
    ids ``rows``: every node here, a subset in an aggregator from restrict,
    which only this aggregator of every node offers and which keeps its last
    result for the next call with the same rows.
    rings returns the (len(rows), 2, d) ring-mean pairs of rows from every
    node's values; backward takes gradients so laid out and writes every node.
    positions maps node ids onto rows, rejecting a node rows lack.
    """

    def __init__(self, g: Graph):
        a = g.adjacency
        eye = sp.identity(g.num_nodes, format="csr")
        near = a + eye
        within2 = (near @ near).T.tocsr()        # symmetric; CSC to CSR sorts rows
        within2.data[:] = 1.0
        ring2 = within2 - near                   # exact zeros are not stored
        del within2, near
        self.rows = np.arange(g.num_nodes)
        self.m1 = _row_means(a.copy(), eye)
        self.m2 = self.m1 + _row_means(ring2, self.m1)
        self.m2.data *= 0.5                      # the bits of 0.5 * (m1 + a2)
        self.m1t, self.m2t = self.m1.T, self.m2.T        # CSC views, built once
        self._last = None                                # the last restriction

    def restrict(self, rows) -> "HopAggregator":
        """Aggregator over the strictly increasing node ids rows: row slices,
        or self for all rows. Only the aggregator of every node restricts;
        ValueError otherwise, or for rows that are not such ids. The last
        restriction, over its own copy of rows, is kept and returned again
        for an equal row set."""
        n = self.m1.shape[1]
        if len(self.rows) != n:
            raise ValueError("restrict needs the aggregator of every node")
        ids = np.asarray(rows)
        if (ids.ndim != 1 or ids.dtype.kind not in "iu"
                or not (np.diff(ids, prepend=-1, append=n) > 0).all()):
            raise ValueError(f"rows must be strictly increasing node ids in [0, {n})")
        if len(rows) == len(self.rows):
            return self
        if self._last is not None and np.array_equal(self._last.rows, rows):
            return self._last
        local = object.__new__(HopAggregator)
        local.rows, local.m1, local.m2 = np.array(rows), self.m1[rows], self.m2[rows]
        local.m1t, local.m2t = local.m1.T, local.m2.T
        self._last = local
        return local

    def positions(self, nodes, what) -> np.ndarray:
        """Index in rows of each of nodes; ValueError names the first not there."""
        at = np.searchsorted(self.rows, nodes)
        lost = np.flatnonzero(np.append(self.rows, -1)[at] != nodes)  # -1: past the end
        if len(lost):
            raise ValueError(f"{what} node {nodes[lost[0]]} is not in the aggregator's rows")
        return at

    def rings(self, values: np.ndarray) -> np.ndarray:
        """(len(rows), 2, d) ring means of the nodes in rows, read from every
        node's row of values: [:, 0] is m1 @ values, [:, 1] m2 @ values."""
        return np.stack([self.m1 @ values, self.m2 @ values], axis=1)

    def backward(self, g_rings: np.ndarray) -> np.ndarray:
        """Pull gradients laid out as rings returns them onto every node's row,
        bit for bit as a full backward with zero gradients off rows would."""
        return self.m1t @ g_rings[:, 0] + self.m2t @ g_rings[:, 1]
