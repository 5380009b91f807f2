import copy
import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from fedcal.graph import (
    Graph,
    HopAggregator,
    data_lines,
    edge_homophily,
    generate_sbm,
    induced_subgraph,
    load_graph,
    partition_nonoverlapping,
    parse_row,
    partition_overlapping,
    save_graph_files,
    split_masks,
    _EDGE_CHUNK,
    _hop_distances,
)
from fedcal import fedsim
from fedcal.cli import build_run_config, parse_config_file
from oracles import k_hop_sets, neighbors, partition_node_ids

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def path_graph(n, feat_dim=2):
    edges = [(i, i + 1) for i in range(n - 1)]
    feats = np.arange(n * feat_dim, dtype=float).reshape(n, feat_dim)
    return Graph.from_edges(feats, np.zeros(n, dtype=int), edges)


def direct_graph(adjacency):
    n = adjacency.shape[0]
    return Graph(np.zeros((n, 1)), np.zeros(n, dtype=int), adjacency, np.zeros(n, dtype=int))


class TestGraphInvariants:
    def test_from_edges_normalizes(self):
        g = Graph.from_edges(
            np.zeros((3, 1)), [0, 1, -1], [(0, 1), (1, 0), (2, 2), (1, 2), (0, 1)]
        )
        assert list(neighbors(g, 1)) == [0, 2]
        assert list(neighbors(g, 2)) == [1]  # self-loop dropped
        assert g.num_edges == 2  # duplicate and reversed edges counted once

    def test_from_edges_empty_edge_list(self):
        g = Graph.from_edges(np.zeros((4, 1)), np.zeros(4, dtype=int), [])
        assert g.num_edges == 0
        assert g.adjacency.shape == (4, 4)
        assert all(len(neighbors(g, v)) == 0 for v in range(4))

    def test_from_edges_names_out_of_range_edge(self):
        with pytest.raises(ValueError, match=r"edge \(2, 5\) out of range for n=3"):
            Graph.from_edges(np.zeros((3, 1)), [0, 0, 0], [(0, 1), (2, 5), (-1, 0)])

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1.7)], "edge (0.0, 1.7) holds a node id that is not an integer"),
        ([(0.5, 1)], "edge (0.5, 1.0) holds a node id that is not an integer"),
        ([(0, 1), (2, np.nan)], "edge (2.0, nan) holds a node id that is not an integer"),
        ([(0, 1e20)], "edge (0.0, 1e+20) out of range for n=3"),
        ([(0, np.inf)], "edge (0.0, inf) out of range for n=3"),
    ])
    def test_from_edges_names_edge_with_non_integer_id(self, edges, message):
        # the int cast truncated 1.7 and 0.5 into the edge 0-1 and overflowed at 1e20
        with pytest.raises(ValueError) as raised:
            Graph.from_edges(np.zeros((3, 1)), [0, 0, 0], edges)
        assert str(raised.value) == message

    @pytest.mark.parametrize("big", [2**70, -2**70])
    def test_from_edges_names_edge_with_id_beyond_int64(self, big):
        # numpy holds such a list as Python ints, which the int cast overflowed on
        with pytest.raises(ValueError) as raised:
            Graph.from_edges(np.zeros((3, 1)), [0, 0, 0], [(0, 1), (0, big)])
        assert str(raised.value) == f"edge (0, {big}) out of range for n=3"

    def test_from_edges_takes_whole_float_ids(self):
        g = Graph.from_edges(np.zeros((3, 1)), [0, 0, 0], [(0.0, 1.0), (2.0, 1.0)])
        h = Graph.from_edges(np.zeros((3, 1)), [0, 0, 0], [(0, 1), (2, 1)])
        assert (g.adjacency != h.adjacency).nnz == 0
        s = Graph.from_edges(np.zeros((3, 1)), [0, 0, 0], [("0", "1"), ("2", "1")])
        assert (s.adjacency != h.adjacency).nnz == 0
        o = Graph.from_edges(np.zeros((3, 1)), [0, 0, 0],
                             np.array([("0", "1"), ("2", "1")], dtype=object))
        assert (o.adjacency != h.adjacency).nnz == 0

    def test_rejects_asymmetric_adjacency(self):
        adjacency = sp.csr_matrix(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
        with pytest.raises(ValueError, match="asymmetric edge"):
            direct_graph(adjacency)

    @pytest.mark.parametrize("n, pairs, equal_indptr, message", [
        (3, [(0, 1), (1, 2), (2, 0)], True, "asymmetric edge between 0 and 1"),
        (5, [(0, 4), (4, 0), (1, 3), (3, 2), (2, 1)], True, "asymmetric edge between 1 and 2"),
        (3, [(0, 1)], False, "asymmetric edge between 0 and 1"),
        (5, [(0, 4), (4, 0), (3, 1)], False, "asymmetric edge between 1 and 3"),
    ])
    def test_asymmetry_names_first_edge(self, n, pairs, equal_indptr, message):
        # a directed cycle has every row and column count equal, so only its
        # index arrays tell it from its transpose; a one-way edge moves indptr
        rows, cols = zip(*pairs)
        adjacency = sp.csr_matrix((np.ones(len(pairs)), (rows, cols)), shape=(n, n))
        transposed = adjacency.T.tocsr()
        assert np.array_equal(adjacency.indptr, transposed.indptr) == equal_indptr
        assert not np.array_equal(adjacency.indices, transposed.indices)
        with pytest.raises(ValueError) as raised:
            direct_graph(adjacency)
        assert str(raised.value) == message

    @pytest.mark.parametrize("seed", range(6))
    def test_from_edges_equals_canonical_csr_of_dense(self, seed):
        # duplicates, both directions of a pair and self-loops, each drawn often
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        edges = np.concatenate([edges, edges[::2], edges[1::3, ::-1],
                                np.repeat(rng.integers(0, n, size=(2, 1)), 2, axis=1)])
        dense = np.zeros((n, n))
        dense[edges[:, 0], edges[:, 1]] = dense[edges[:, 1], edges[:, 0]] = 1.0
        np.fill_diagonal(dense, 0.0)
        got = Graph.from_edges(np.zeros((n, 1)), np.zeros(n, dtype=int), edges).adjacency
        want = sp.csr_matrix(dense)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()

    def test_rejects_self_loop(self):
        adjacency = sp.csr_matrix(np.array([[0, 1, 0], [1, 1, 0], [0, 0, 0]]))
        with pytest.raises(ValueError, match="self-loop at node 1"):
            direct_graph(adjacency)

    def test_direct_graph_matches_from_edges(self):
        adjacency = sp.csr_matrix(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]]))
        g = direct_graph(adjacency)
        h = Graph.from_edges(np.zeros((3, 1)), [0, 0, 0], [(0, 1), (2, 0)])
        assert (g.adjacency != h.adjacency).nnz == 0
        assert list(neighbors(g, 0)) == [1, 2]
        assert g.num_edges == h.num_edges == 2

    @pytest.mark.parametrize("split, message", [
        (np.zeros(3, dtype=int), "split length must equal node count"),
        (np.zeros(2, dtype=bool), "integer codes, got dtype bool"),
        (np.ones(2, dtype=bool), "integer codes, got dtype bool"),
        (np.zeros(2), "integer codes, got dtype float64"),
        (np.array([0, -1]), "split code -1 at node 1 is not 0, 1, 2 or 3"),
        (np.array([4, 0]), "split code 4 at node 0 is not 0, 1, 2 or 3"),
        (np.array([0, 257]), "split code 257 at node 1 is not 0, 1, 2 or 3"),
    ], ids=["length", "bool_false", "bool_true", "float", "minus_one", "four", "wraps_to_1"])
    def test_rejects_bad_split(self, split, message):
        g = Graph.from_edges(np.zeros((2, 1)), [0, 0], [])
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(g, split=split)

    def test_split_is_int8_and_masks_read_only(self):
        g = Graph.from_edges(np.zeros((4, 1)), [0, 1, 0, 1], [])
        g = dataclasses.replace(g, split=np.array([0, 1, 2, 3]))
        assert g.split.dtype == np.int8
        assert g.train_mask.tolist() == [False, True, False, False]
        assert g.val_mask.tolist() == [False, False, True, False]
        assert g.test_mask.tolist() == [False, False, False, True]
        for array in (g.split, g.train_mask, g.val_mask, g.test_mask):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize("code, name", [(1, "train"), (2, "val"), (3, "test")])
    def test_rejects_unlabeled_train_node(self, code, name):
        # a split node without a label would drop out of the losses and metrics
        with pytest.raises(ValueError, match=f"^{name} node 0 carries no label$"):
            Graph(np.zeros((2, 1)), [-1, 0], sp.csr_matrix((2, 2)), split=np.array([code, 0]))

    @pytest.mark.parametrize("features, labels, adjacency, message", [
        (np.zeros((3, 1)), [0, 0], sp.csr_matrix((3, 3)),
         "labels length must equal node count"),
        (np.zeros((3, 1)), [0, 0, 0], sp.csr_matrix((3, 4)),
         "adjacency must be n x n for n nodes"),
        (np.array([[0.0], [np.nan], [0.0]]), [0, 0, 0], sp.csr_matrix((3, 3)),
         "features contain non-finite entries"),
        (np.zeros((2, 1)), [0, 0], sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]])),
         "adjacency must hold unique sorted entries equal to 1"),
        # a vector was accepted, and feat_dim then raised IndexError
        (np.zeros(4), [0, 1, 0, 1], sp.csr_matrix((4, 4)),
         "features must be an (n, d0) matrix with d0 >= 1, got shape (4,)"),
        (np.zeros((4, 2, 2)), [0, 1, 0, 1], sp.csr_matrix((4, 4)),
         "features must be an (n, d0) matrix with d0 >= 1, got shape (4, 2, 2)"),
        (np.zeros((4, 0)), [0, 1, 0, 1], sp.csr_matrix((4, 4)),
         "features must be an (n, d0) matrix with d0 >= 1, got shape (4, 0)"),
        # the int cast truncated 0.5 and 1.7 to 0 and 1 and failed on NaN and 1e30
        (np.zeros((4, 1)), [0.5, 1.7, 0, 1], sp.csr_matrix((4, 4)),
         "label 0.5 of node 0 is not a whole number within int64"),
        (np.zeros((4, 1)), [0, 1, np.nan, 1], sp.csr_matrix((4, 4)),
         "label nan of node 2 is not a whole number within int64"),
        (np.zeros((4, 1)), [0, 1, 0, 1e30], sp.csr_matrix((4, 4)),
         "label 1e+30 of node 3 is not a whole number within int64"),
        # the int cast raised a bare OverflowError or TypeError, or parsed text
        (np.zeros((2, 1)), [2 ** 70, 0], sp.csr_matrix((2, 2)),
         "labels must have an integer or float dtype, got object"),
        (np.zeros((2, 1)), [None, 0], sp.csr_matrix((2, 2)),
         "labels must have an integer or float dtype, got object"),
        (np.zeros((2, 1)), ["0.5", "0"], sp.csr_matrix((2, 2)),
         "labels must have an integer or float dtype, got <U3"),
        (np.zeros((2, 1)), ["1", "0"], sp.csr_matrix((2, 2)),
         "labels must have an integer or float dtype, got <U1"),
        # taken as 1 and 0, or with only a ComplexWarning
        (np.zeros((2, 1)), [True, False], sp.csr_matrix((2, 2)),
         "labels must have an integer or float dtype, got bool"),
        (np.zeros((2, 1)), [1 + 0j, 0], sp.csr_matrix((2, 2)),
         "labels must have an integer or float dtype, got complex128"),
        # the float check skipped object arrays, and the cast truncated 0.5
        (np.zeros((2, 1)), np.array([0.5, 1], dtype=object), sp.csr_matrix((2, 2)),
         "labels must have an integer or float dtype, got object"),
        # -1 is the one unlabeled mark, and 2**63 wrapped to -2**63
        (np.zeros((2, 1)), [-2, 0], sp.csr_matrix((2, 2)),
         "label -2 of node 0 is below -1 or past int64"),
        (np.zeros((2, 1)), np.array([0, 2 ** 63], dtype=np.uint64), sp.csr_matrix((2, 2)),
         "label 9223372036854775808 of node 1 is below -1 or past int64"),
        # the float cast dropped the imaginary part
        (np.array([[1 + 2j], [0j]]), [0, 0], sp.csr_matrix((2, 2)),
         "features must have a bool, integer or float dtype, got complex128"),
    ], ids=["labels_length", "adjacency_3x4", "nan_feature", "entry_2", "vector_features",
            "3d_features", "no_feature_column", "fractional_label", "nan_label",
            "label_beyond_int64", "int_label_past_int64", "none_label", "fractional_text_label",
            "text_label", "bool_labels", "complex_label", "object_float_label",
            "label_below_minus_1", "uint64_label_past_int64", "complex_features"])
    def test_rejects_malformed_direct_graph(self, features, labels, adjacency, message):
        n = len(features)
        with pytest.raises(ValueError) as raised:
            Graph(features, labels, adjacency, split=np.zeros(n, dtype=int))
        assert str(raised.value) == message

    @pytest.mark.parametrize("node_ids, message", [
        # a 3-node graph kept one id, and text ids were kept as strings
        (np.array([7]), "node_ids must hold one id per node, shape (3,), got shape (1,)"),
        (np.arange(6).reshape(3, 2),
         "node_ids must hold one id per node, shape (3,), got shape (3, 2)"),
        (np.array([0.5, 1.5, "x"]), "node_ids must have an integer dtype within int64, got <U32"),
        (np.array([0.0, 1.0, 2.0]),
         "node_ids must have an integer dtype within int64, got float64"),
        (np.array([True, False, True]),
         "node_ids must have an integer dtype within int64, got bool"),
        (np.array([0, 1, 2 ** 63], dtype=np.uint64),
         "node_ids must have an integer dtype within int64, got uint64"),
    ], ids=["one_id", "matrix", "text", "float", "bool", "uint64"])
    def test_rejects_malformed_node_ids(self, node_ids, message):
        with pytest.raises(ValueError) as raised:
            Graph(np.zeros((3, 2)), np.zeros(3, int), sp.csr_matrix((3, 3)),
                  np.zeros(3, np.int8), node_ids=node_ids)
        assert str(raised.value) == message

    def test_node_ids_are_held_as_int64(self):
        for node_ids in ([4, 5, 6], np.array([4, 5, 6], dtype=np.int32),
                         np.array([4, 5, 6], dtype=np.uint8)):
            g = Graph(np.zeros((3, 2)), np.zeros(3, int), sp.csr_matrix((3, 3)),
                      np.zeros(3, np.int8), node_ids=node_ids)
            assert g.node_ids.dtype == np.int64
            assert g.node_ids.tolist() == [4, 5, 6]

    def test_from_edges_leaves_the_features_dtype_to_the_constructor(self):
        # its own float cast dropped the imaginary part before the check ran
        with pytest.raises(ValueError, match="^features must have a bool, integer or float "
                                             "dtype, got complex128$"):
            Graph.from_edges(np.array([[1 + 2j], [0j]]), [0, 0], [])

    @pytest.mark.parametrize("partition, clients", [(partition_nonoverlapping, 3),
                                                    (partition_overlapping, 5)])
    def test_client_subgraphs_share_no_memory_with_the_root(self, partition, clients):
        g = split_masks(generate_sbm(60, 2, 0.2, 0.05, 3, 1.0, seed=4), seed=4)

        def arrays(h):
            a = h.adjacency
            return (h.features, h.labels, h.split, h.node_ids, h.train_mask, h.val_mask,
                    h.test_mask, a.data, a.indices, a.indptr)

        for part in partition(g, clients, seed=4):
            for mine in arrays(part):
                assert not any(np.shares_memory(mine, root) for root in arrays(g))

    @pytest.mark.parametrize("nodes, message", [
        # numpy wrapped -1 to node 3, the cast truncated 0.5, and 9 raised IndexError
        ([-1, 2], "node id -1 is not an integer in [0, 4)"),
        ([0.5, 1], "node id 0.5 is not an integer in [0, 4)"),
        ([0, 9], "node id 9 is not an integer in [0, 4)"),
        ([1, np.nan], "node id nan is not an integer in [0, 4)"),
        ([True, False], "node id True is not an integer in [0, 4)"),
        (["0", "1"], "node id '0' is not an integer in [0, 4)"),
        ([0, None], "node id None is not an integer in [0, 4)"),
        ([0, 2 ** 70], f"node id {2 ** 70} is not an integer in [0, 4)"),
        (np.array([3, 2 ** 63], dtype=np.uint64),
         f"node id {2 ** 63} is not an integer in [0, 4)"),
    ], ids=["negative", "fraction", "past_n", "nan", "bool", "text", "none",
            "beyond_int64", "uint64_past_int64"])
    def test_induced_subgraph_names_the_first_bad_id(self, nodes, message):
        with pytest.raises(ValueError) as raised:
            induced_subgraph(path_graph(4), nodes)
        assert str(raised.value) == message

    def test_induced_subgraph_takes_integer_valued_ids(self):
        g = path_graph(4)
        for nodes in ([3.0, 1.0], np.array([3, 1], dtype=np.uint8),
                      np.array([3, 1], dtype=object)):
            assert induced_subgraph(g, nodes).node_ids.tolist() == [1, 3]

    def test_induced_subgraph_preserves_symmetry(self):
        g = generate_sbm(40, 2, 0.3, 0.1, 3, 1.0, seed=5)
        sub = induced_subgraph(g, [0, 3, 5, 7, 11, 20, 21])
        sub.validate()
        assert np.array_equal(sub.node_ids, [0, 3, 5, 7, 11, 20, 21])


class TestPartitionNonOverlapping:
    def test_path_two_halves(self):
        g = path_graph(10)
        parts = partition_nonoverlapping(g, 2, seed=0)
        assert sorted(p.num_nodes for p in parts) == [5, 5]
        ids = np.concatenate([p.node_ids for p in parts])
        assert sorted(ids.tolist()) == list(range(10))

    def test_singleton_clients(self):
        g = path_graph(6)
        parts = partition_nonoverlapping(g, 6, seed=1)
        assert [p.num_nodes for p in parts] == [1] * 6

    def test_sbm_cover_and_disjoint(self):
        g = generate_sbm(600, 2, 0.05, 0.01, 4, 1.0, seed=2)
        parts = partition_nonoverlapping(g, 5, seed=2)
        ids = np.concatenate([p.node_ids for p in parts])
        assert len(ids) == 600
        assert len(set(ids.tolist())) == 600

    @pytest.mark.parametrize("m", [2, 5, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_disjoint_cover_and_balance(self, m, seed):
        g = generate_sbm(300, 3, 0.05, 0.02, 4, 1.0, seed=seed)
        parts = partition_nonoverlapping(g, m, seed=seed)
        ids = np.concatenate([p.node_ids for p in parts])
        assert sorted(ids.tolist()) == list(range(300))
        target = 300 / m
        for p in parts:
            assert 0.8 * target - 1e-9 <= p.num_nodes <= 1.2 * target + 1e-9
            p.validate()

    def test_rejects_more_parts_than_nodes(self):
        with pytest.raises(ValueError):
            partition_nonoverlapping(path_graph(3), 4, seed=0)

    def test_spec_validation(self):
        g = path_graph(10)
        (part,) = partition_nonoverlapping(g, 1)
        assert part is g                         # one part is the graph itself
        with pytest.raises(ValueError, match="^non-overlapping partition needs >= 1 client, "
                                             "got 0$"):
            partition_nonoverlapping(g, 0)
        with pytest.raises(ValueError, match="multiple of 5"):
            partition_overlapping(g, 0)
        with pytest.raises(ValueError, match="multiple of 5"):
            partition_overlapping(g, 6)


class TestPartitionOverlapping:
    def test_rejects_more_temporary_parts_than_nodes(self):
        # 10 clients split the graph into 2 temporary parts first
        with pytest.raises(ValueError, match="^cannot split 1 nodes into 2 parts$"):
            partition_overlapping(path_graph(1), 10, seed=0)

    def test_five_clients_from_whole_graph(self):
        g = generate_sbm(100, 2, 0.1, 0.02, 3, 1.0, seed=0)
        parts = partition_overlapping(g, 5, seed=0)
        assert len(parts) == 5
        for p in parts:
            assert p.num_nodes == 50  # ceil(100/2)
            assert set(p.node_ids.tolist()) <= set(range(100))

    def test_clients_within_temporary_subgraph(self):
        g = generate_sbm(200, 2, 0.08, 0.02, 3, 1.0, seed=3)
        parts = partition_overlapping(g, 10, seed=3)
        assert len(parts) == 10
        temp = partition_nonoverlapping(g, 2, seed=3)
        temp_sets = [set(t.node_ids.tolist()) for t in temp]
        for ti in range(2):
            for s in range(5):
                client = parts[ti * 5 + s]
                assert set(client.node_ids.tolist()) <= temp_sets[ti]

    def test_overlap_matches_hypergeometric_expectation(self):
        # two samples of k of n nodes overlap in k^2/n on average
        g = generate_sbm(80, 2, 0.1, 0.05, 3, 1.0, seed=1)
        k = 40
        expected = k * k / 80
        overlaps = []
        for seed in range(100):
            parts = partition_overlapping(g, 5, seed=seed)
            a = set(parts[0].node_ids.tolist())
            b = set(parts[1].node_ids.tolist())
            overlaps.append(len(a & b))
        assert abs(np.mean(overlaps) - expected) <= 0.1 * expected

    def test_rejects_non_multiple_of_five(self):
        g = path_graph(10)
        with pytest.raises(ValueError):
            partition_overlapping(g, 6, seed=0)


def graph_from_edges(n, edges):
    return Graph.from_edges(np.zeros((n, 1)), np.zeros(n, dtype=int), edges)


class TestHopDistancesReference:
    """The farthest-point BFS against SciPy's unweighted multi-source dijkstra."""

    @staticmethod
    def check(g, seeds):
        got = _hop_distances(g.adjacency, seeds)
        ref = dijkstra(g.adjacency, indices=seeds, unweighted=True, min_only=True)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
        return got

    @pytest.mark.parametrize("seeds", [[0], [3], [5], [0, 5], [2, 2]])
    def test_isolated_nodes(self, seeds):
        # nodes 3 and 5 have no edges
        self.check(graph_from_edges(6, [(0, 1), (1, 2), (2, 4)]), seeds)

    @pytest.mark.parametrize("seeds", [[0], [4], [9], [0, 7], [1, 4, 8]])
    def test_several_components(self, seeds):
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (7, 8), (8, 9)]
        self.check(graph_from_edges(10, edges), seeds)

    @pytest.mark.parametrize("seeds", [[0], [399], [200], [0, 399], [17, 250, 251]])
    def test_long_path(self, seeds):
        self.check(path_graph(400), seeds)

    def test_sbm_graph_and_its_farthest_seeds(self):
        g = generate_sbm(1500, 3, 0.006, 0.002, 2, 1.0, seed=4)
        seeds = [7]
        for _ in range(5):
            seeds.append(int(np.argmax(self.check(g, seeds))))

    def test_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            edges = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
            seeds = rng.integers(0, n, size=int(rng.integers(1, 4))).tolist()
            self.check(graph_from_edges(n, edges), seeds)


def with_int64_indices(g):
    """g with its adjacency's indices and indptr cast to int64, as scipy
    stores them for a matrix past 2**31 entries."""
    a = g.adjacency.copy()
    a.indices, a.indptr = a.indices.astype(np.int64), a.indptr.astype(np.int64)
    wide = copy.copy(g)
    wide.adjacency = a
    return wide


class TestPartitionReference:
    """partition_nonoverlapping against its loops over numpy arrays and scalars."""

    @staticmethod
    def check(g, m, seed):
        ref = partition_node_ids(g, m, seed)
        # the loops read indices through a memoryview, whose item format
        # follows the index dtype: int32 here, int64 in the wide copy
        wide = with_int64_indices(g)
        for h in (g, wide):
            parts = partition_nonoverlapping(h, m, seed=seed)
            assert len(parts) == len(ref) == m
            for part, ids in zip(parts, ref):
                assert np.array_equal(part.node_ids, ids)

    @pytest.mark.parametrize("n, m", [
        (2, 2), (3, 2), (3, 3), (10, 2), (10, 3), (10, 10), (41, 2), (41, 7), (41, 41),
    ])
    def test_path_graphs(self, n, m):
        for seed in range(3):
            self.check(path_graph(n), m, seed)

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 10])
    def test_isolated_nodes_and_components(self, m):
        # an empty front sends the part to the lowest unowned node
        components = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (7, 8), (8, 9)]
        for seed in range(4):
            self.check(graph_from_edges(10, components), m, seed)
            self.check(graph_from_edges(10, [(0, 1), (2, 4), (4, 5)]), m, seed)
            self.check(graph_from_edges(10, []), m, seed)

    def test_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            n = int(rng.integers(2, 40))
            edges = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
            m = int(rng.integers(2, n + 1))
            self.check(graph_from_edges(n, edges), m, int(rng.integers(100)))

    @pytest.mark.parametrize("m", [2, 5, 10, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sbm_300(self, m, seed):
        self.check(generate_sbm(300, 3, 0.05, 0.02, 4, 1.0, seed=seed), m, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2, (3, 7)])
    def test_sbm_600(self, seed):
        g = generate_sbm(600, 2, 0.05, 0.01, 4, 1.0, seed=seed)
        for m in (2, 5):
            self.check(g, m, seed)

    def test_large_graph_workload(self):
        cfg = parse_config_file(os.path.join(REPO, "perfbench", "workloads", "large-graph.cfg"))
        fed = build_run_config(cfg).federation_config(seed=1)
        g = fedsim.build_dataset(fed)
        assert g.num_nodes == 6000
        self.check(g, fed.num_clients, (fed.seed, fedsim._TAG_PART))


class TestGenerateSbm:
    def test_extreme_probabilities_give_two_cliques(self):
        g = generate_sbm(20, 2, 1.0, 0.0, 2, 1.0, seed=0)
        for v in range(20):
            for u in neighbors(g, v):
                assert g.labels[u] == g.labels[v]
        # each class of 10 nodes forms a clique
        assert g.num_edges == 2 * (10 * 9 // 2)

    def test_equal_probabilities_mix_classes(self):
        ratios = []
        for seed in range(20):
            g = generate_sbm(200, 4, 0.05, 0.05, 3, 1.0, seed=seed)
            ratios.append(edge_homophily(g))
        assert abs(np.mean(ratios) - 0.25) <= 0.05

    def test_zero_separation_collapses_class_means(self):
        gaps = []
        for seed in range(5):
            g = generate_sbm(600, 2, 0.02, 0.02, 8, 0.0, seed=seed)
            m0 = g.features[g.labels == 0].mean(axis=0)
            m1 = g.features[g.labels == 1].mean(axis=0)
            gaps.append(np.linalg.norm(m0 - m1))
        # pure-noise class means differ by about sqrt(2 d / n_c)
        assert np.mean(gaps) <= 4 * np.sqrt(2 * 8 / 300)

    def test_homophily_direction(self):
        homo = generate_sbm(300, 2, 0.1, 0.01, 3, 1.0, seed=0)
        hetero = generate_sbm(300, 2, 0.01, 0.1, 3, 1.0, seed=0)
        assert edge_homophily(homo) > 0.5 > edge_homophily(hetero)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            generate_sbm(10, 2, 1.5, 0.0, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_sbm(10, 2, 0.5, 0.0, 2, -1.0, seed=0)

    def test_rejects_no_nodes(self):
        with pytest.raises(ValueError,
                           match="^n, num_classes and feat_dim must be >= 1$"):
            generate_sbm(0, 2, 0.5, 0.0, 2, 1.0, seed=0)


def reference_sbm(n, num_classes, p_in, p_out, feat_dim, feat_sep, seed):
    """generate_sbm as it was before its edge draws were chunked: one
    uniform per node pair over the whole triu_indices array at once."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % num_classes
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(iu.size) < prob
    edges = np.column_stack([iu[keep], ju[keep]])
    means = rng.standard_normal((num_classes, feat_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    features = feat_sep * means[labels] + rng.standard_normal((n, feat_dim))
    return Graph.from_edges(features, labels, edges)


def first_n_over(pairs):
    """Smallest n whose n(n-1)/2 node pairs exceed the given count."""
    n = 1
    while n * (n - 1) // 2 <= pairs:
        n += 1
    return n


class TestGenerateSbmReference:
    # ONE_CHUNK_N is the first n whose pairs exceed one _EDGE_CHUNK;
    # 1449 is the first n whose pairs exceed 2**20
    ONE_CHUNK_N = first_n_over(_EDGE_CHUNK)

    @pytest.mark.parametrize("n, classes, p_in, p_out", [
        (1, 2, 0.5, 0.1),
        (2, 2, 1.0, 1.0),
        (3, 3, 1.0, 0.0),
        (ONE_CHUNK_N - 1, 2, 0.03, 0.01),
        (ONE_CHUNK_N, 3, 0.01, 0.03),
        (ONE_CHUNK_N, 4, 1.0, 0.0),
        (1448, 2, 0.01, 0.003),
        (1449, 3, 0.003, 0.01),
        (1449, 4, 1.0, 0.0),
        (2900, 4, 0.002, 0.001),
        (2900, 3, 0.0, 0.0),
        (300, 2, 0.02, 0.1),
    ])
    def test_equals_unchunked_draws(self, n, classes, p_in, p_out):
        for seed in (0, (7, 101)):
            g = generate_sbm(n, classes, p_in, p_out, 3, 1.2, seed=seed)
            ref = reference_sbm(n, classes, p_in, p_out, 3, 1.2, seed=seed)
            assert np.array_equal(g.features, ref.features)
            assert np.array_equal(g.labels, ref.labels)
            assert np.array_equal(g.adjacency.indptr, ref.adjacency.indptr)
            assert np.array_equal(g.adjacency.indices, ref.adjacency.indices)

    def test_memory_grows_with_edges_not_pairs(self):
        tracemalloc.start()
        try:
            g = generate_sbm(6000, 2, 0.003, 0.002, 16, 1.0, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.num_edges > 40000
        # the 18M node pairs alone would take 144 MB as one float64 array
        assert peak < 64 * 2**20


def traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def csr_bytes(*mats):
    return sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in mats)


class TestSetupMemory:
    """Setup's traced peaks against the bytes of what it returns or reads."""

    def test_hop_aggregator_peak_on_a_hub_graph(self):
        # m1 and m2 take 11.5 MB here, nearly all in the dense rows of m2
        agg, peak = traced_peak(HopAggregator, hub_graph(1000))
        assert peak <= 3.5 * csr_bytes(agg.m1, agg.m2)

    def test_partition_peak_on_the_large_graph_workload(self):
        cfg = parse_config_file(os.path.join(REPO, "perfbench", "workloads", "large-graph.cfg"))
        fed = build_run_config(cfg).federation_config(seed=1)
        g = fedsim.build_dataset(fed)
        _, peak = traced_peak(partition_nonoverlapping, g, fed.num_clients,
                              (fed.seed, fedsim._TAG_PART))
        assert peak <= 2.5 * csr_bytes(g.adjacency)


class TestFilesAndSplits:
    def test_round_trip(self, tmp_path):
        g = generate_sbm(30, 3, 0.2, 0.05, 4, 1.0, seed=9)
        paths = [tmp_path / name for name in ("e.txt", "x.txt", "y.txt")]
        save_graph_files(g, *paths)
        loaded = load_graph(*paths)
        assert loaded.num_nodes == 30
        assert np.allclose(loaded.features, g.features)
        assert np.array_equal(loaded.labels, g.labels)
        for v in range(30):
            assert np.array_equal(neighbors(loaded, v), neighbors(g, v))

    @pytest.mark.parametrize("value", ["bad", "nan", "-inf"])
    def test_parse_error_carries_line_number(self, tmp_path, value):
        (tmp_path / "x.txt").write_text(f"1.0 2.0\n1.0 {value}\n")
        (tmp_path / "y.txt").write_text("0\n1\n")
        (tmp_path / "e.txt").write_text("0 1\n")
        with pytest.raises(ValueError, match="x.txt:2"):
            load_graph(tmp_path / "e.txt", tmp_path / "x.txt", tmp_path / "y.txt")

    def test_label_out_of_range(self, tmp_path):
        (tmp_path / "x.txt").write_text("1.0\n2.0\n")
        (tmp_path / "y.txt").write_text("0\n5\n")
        (tmp_path / "e.txt").write_text("0 1\n")
        with pytest.raises(ValueError, match="label 5"):
            load_graph(
                tmp_path / "e.txt", tmp_path / "x.txt", tmp_path / "y.txt",
                num_classes=2,
            )

    @pytest.mark.parametrize("files, message", [
        ({"x": "# no rows\n", "y": "0\n", "e": ""}, "{x}: no feature rows"),
        ({"y": "0\n-2\n1\n0\n"}, "{y}:2: label -2 out of range"),
        ({"y": "0\n1\n0\n"}, "{y}: 3 labels for 4 feature rows"),
        ({"e": "0 9\n"}, "{e}:1: edge (0, 9) out of range"),
    ], ids=["no_feature_rows", "label_minus_2", "three_labels", "edge_0_9"])
    def test_rejects_file_naming_path_and_line(self, tmp_path, files, message):
        paths = {key: tmp_path / f"{key}.txt" for key in ("e", "x", "y")}
        texts = {"x": "1.0\n2.0\n3.0\n4.0\n", "y": "0\n1\n0\n1\n", "e": "0 1\n2 3\n"}
        for key, path in paths.items():
            path.write_text(files.get(key, texts[key]))
        with pytest.raises(ValueError) as raised:
            load_graph(paths["e"], paths["x"], paths["y"], num_classes=2)
        assert str(raised.value) == message.format(**paths)

    def test_malformed_edge_line(self, tmp_path):
        (tmp_path / "x.txt").write_text("1.0\n2.0\n")
        (tmp_path / "y.txt").write_text("0\n1\n")
        (tmp_path / "e.txt").write_text("# comment is fine\n0 1 2\n")
        with pytest.raises(ValueError, match="e.txt:2"):
            load_graph(tmp_path / "e.txt", tmp_path / "x.txt", tmp_path / "y.txt")

    def test_data_lines_skip_blank_and_comment_lines_but_count_them(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# header\n\n  0 1  \n\t\n   # indented comment\n2 3\n")
        assert list(data_lines(path)) == [(3, "0 1"), (6, "2 3")]
        # the config reader skips the same lines and names the same numbers
        path.write_text("# header\n\nfederation.clients = 3\n\t\n  # note\nbogus\n")
        with pytest.raises(ValueError) as raised:
            parse_config_file(path)
        assert str(raised.value) == f"{path}:6: expected 'key = value'"
        path.write_text("# header\n\n  federation.clients = 3  \n# note\n")
        assert parse_config_file(path) == {"federation.clients": "3"}

    def test_parse_row_reads_any_count_without_width(self):
        assert parse_row("f.txt", 4, "1 -2 3", int, None, "ids") == [1, -2, 3]
        # an int beyond float range is still finite
        assert parse_row("f.txt", 4, "1" + "0" * 400, int, 1, "id") == [10 ** 400]
        with pytest.raises(ValueError, match=r"^f\.txt:4: value holds a non-finite value$"):
            parse_row("f.txt", 4, "1e400", float, None, "value")

    def test_default_split_sizes(self):
        g = Graph.from_edges(np.zeros((100, 1)), np.zeros(100, dtype=int), [])
        g = split_masks(g, seed=0)
        assert int(g.train_mask.sum()) == 20
        assert int(g.val_mask.sum()) == 40
        assert int(g.test_mask.sum()) == 40

    def test_stratification(self):
        labels = np.array([0] * 50 + [1] * 50)
        g = Graph.from_edges(np.zeros((100, 1)), labels, [])
        g = split_masks(g, seed=1)
        for c in (0, 1):
            assert int((g.train_mask & (labels == c)).sum()) == 10

    def test_all_train_ratio(self):
        g = Graph.from_edges(np.zeros((30, 1)), np.zeros(30, dtype=int), [])
        g = split_masks(g, ratios=(1.0, 0.0, 0.0), seed=0)
        assert int(g.train_mask.sum()) == 30

    def test_unlabeled_nodes_stay_out(self):
        labels = np.array([0, 1, -1, -1, 0, 1])
        g = Graph.from_edges(np.zeros((6, 1)), labels, [])
        g = split_masks(g, ratios=(0.5, 0.25, 0.25), seed=0)
        assert not g.train_mask[2] and not g.val_mask[2] and not g.test_mask[2]
        assert not g.train_mask[3] and not g.val_mask[3] and not g.test_mask[3]

    def test_split_deterministic(self):
        g = generate_sbm(60, 3, 0.1, 0.05, 2, 1.0, seed=4)
        a = split_masks(g, seed=7)
        b = split_masks(g, seed=7)
        assert np.array_equal(a.train_mask, b.train_mask)
        assert np.array_equal(a.val_mask, b.val_mask)
        assert np.array_equal(a.test_mask, b.test_mask)

    def test_masks_are_the_split_codes_over_random_ratios(self):
        rng = np.random.default_rng(8)
        for trial in range(40):
            n = int(rng.integers(1, 80))
            labels = rng.integers(-1, 3, size=n)
            ratios = rng.dirichlet(np.ones(4))[:3]
            g = Graph.from_edges(np.zeros((n, 1)), labels, [])
            g = split_masks(g, ratios=ratios, seed=trial)
            assert g.split.dtype == np.int8
            for code, mask in enumerate((g.train_mask, g.val_mask, g.test_mask), start=1):
                assert np.array_equal(mask, g.split == code)
            assert not g.split[labels < 0].any()

    def test_induced_subgraph_keeps_each_code(self):
        g = split_masks(generate_sbm(60, 3, 0.1, 0.05, 2, 1.0, seed=4), seed=3)
        nodes = np.random.default_rng(2).choice(60, size=25, replace=False)
        sub = induced_subgraph(g, nodes)
        kept = np.sort(nodes)
        assert np.array_equal(sub.node_ids, kept)
        assert np.array_equal(sub.split, g.split[kept])
        assert np.array_equal(sub.val_mask, g.val_mask[kept])

    def test_rejects_ratio_overflow(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            split_masks(g, ratios=(0.8, 0.3, 0.3), seed=0)

    def test_rejects_two_ratios(self):
        with pytest.raises(ValueError, match="^ratios must be three non-negative numbers$"):
            split_masks(path_graph(4), ratios=(0.5, 0.5), seed=0)

    @pytest.mark.parametrize("ratios", [(np.nan, 0.4, 0.4), (0.2, 0.4, np.nan)])
    def test_rejects_nan_ratio(self, ratios):
        with pytest.raises(ValueError, match="^ratios must be three non-negative numbers$"):
            split_masks(path_graph(4), ratios=ratios, seed=0)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("value", [True, False, np.True_, "0.1", None])
    def test_rejects_a_non_number_ratio(self, position, value):
        # a bool used to seat as 1.0 or 0.0, a string to parse, and None to
        # raise a bare TypeError
        ratios = [0.2, 0.4, 0.4]
        ratios[position] = value
        with pytest.raises(ValueError, match="^ratios must be three non-negative numbers$"):
            split_masks(path_graph(4), ratios=ratios, seed=0)

    def test_accepts_ints_and_numpy_floats(self):
        g = Graph.from_edges(np.zeros((10, 1)), np.zeros(10, dtype=int), [])
        a = split_masks(g, ratios=(np.float64(0.2), np.float32(0.5), 0), seed=0)
        b = split_masks(g, ratios=(0.2, 0.5, 0.0), seed=0)
        assert np.array_equal(a.split, b.split)
        assert np.array_equal(split_masks(g, ratios=(1, 0, 0), seed=0).split, np.ones(10))


class TestKHopSets:
    def test_path(self):
        g = path_graph(3)
        assert list(k_hop_sets(g, 0, 1)) == [1]
        assert list(k_hop_sets(g, 0, 2)) == [2]

    def test_triangle_has_no_second_ring(self):
        g = Graph.from_edges(
            np.zeros((3, 1)), np.zeros(3, dtype=int), [(0, 1), (1, 2), (0, 2)]
        )
        for v in range(3):
            assert len(k_hop_sets(g, v, 2)) == 0

    def test_matches_bfs_oracle(self):
        g = generate_sbm(50, 2, 0.08, 0.03, 2, 1.0, seed=6)

        def bfs_ring(v, k):
            dist = {v: 0}
            frontier = [v]
            for level in range(1, k + 1):
                nxt = []
                for node in frontier:
                    for u in neighbors(g, node):
                        if int(u) not in dist:
                            dist[int(u)] = level
                            nxt.append(int(u))
                frontier = nxt
            return sorted(u for u, d in dist.items() if d == k)

        for v in range(50):
            assert list(k_hop_sets(g, v, 1)) == bfs_ring(v, 1)
            assert list(k_hop_sets(g, v, 2)) == bfs_ring(v, 2)

    def test_rings_disjoint(self):
        g = generate_sbm(40, 2, 0.1, 0.05, 2, 1.0, seed=8)
        for v in range(40):
            one = set(k_hop_sets(g, v, 1).tolist())
            two = set(k_hop_sets(g, v, 2).tolist())
            assert not (two & one)
            assert v not in two


def ring_cases(seed):
    """A sparse SBM plus a lone pair, a triangle and an isolated node."""
    sbm = generate_sbm(60, 3, 0.04, 0.01, 2, 1.0, seed=seed)
    edges = [(v, int(u)) for v in range(60) for u in neighbors(sbm, v) if v < u]
    edges += [(60, 61), (62, 63), (63, 64), (62, 64)]
    return Graph.from_edges(np.zeros((66, 1)), np.zeros(66, dtype=int), edges)


def hub_graph(n, seed=0):
    """Random edges of average degree 4 plus node 0 joined to every other node:
    the hub has no exact 2-hop ring, and every other node's holds nearly
    every node."""
    rng = np.random.default_rng(seed)
    edges = np.vstack([rng.integers(0, n, size=(2 * n, 2)),
                       np.column_stack([np.zeros(n - 1, dtype=int), np.arange(1, n)])])
    return Graph.from_edges(np.zeros((n, 1)), np.zeros(n, dtype=int), edges)


def reference_operators(g):
    """Dense (m1, m2) built node by node from k_hop_sets."""
    n = g.num_nodes
    m1 = np.zeros((n, n))
    a2 = np.zeros((n, n))
    for v in range(n):
        one = k_hop_sets(g, v, 1)
        if len(one):
            m1[v, one] = 1.0 / len(one)
        else:
            m1[v, v] = 1.0
        two = k_hop_sets(g, v, 2)
        if len(two):
            a2[v, two] = 1.0 / len(two)
        else:
            a2[v] = m1[v]
    return m1, 0.5 * (m1 + a2)


class TestHopAggregator:
    @staticmethod
    def check_operators(g):
        """m1 and m2 hold the CSR arrays of the dense reference: index order
        sets the bits of every ring product, so values alone do not do. The
        graph's adjacency keeps its bytes, though _row_means rewrites its
        pattern."""
        names = ("data", "indices", "indptr")
        before = [getattr(g.adjacency, name).tobytes() for name in names]
        agg = HopAggregator(g)
        assert [getattr(g.adjacency, name).tobytes() for name in names] == before
        for got, dense in zip((agg.m1, agg.m2), reference_operators(g)):
            assert np.array_equal(got.toarray(), dense)
            want = sp.csr_matrix(dense)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_operators_equal_k_hop_reference(self, seed):
        g = ring_cases(seed)
        degree = np.array([len(neighbors(g, v)) for v in range(g.num_nodes)])
        no_ring2 = np.array([len(k_hop_sets(g, v, 2)) == 0 for v in range(g.num_nodes)])
        assert (degree == 0).any() and (degree == 1).any()
        assert (no_ring2 & (degree > 0)).any()
        self.check_operators(g)

    def test_benchmark_clients_equal_k_hop_reference(self):
        # client 1 has an isolated node and client 0 none, so both branches
        # of the fallback (built, or skipped) run
        cfg = parse_config_file(os.path.join(REPO, "configs", "benchmark.cfg"))
        clients, _, _, _ = fedsim.setup_federation(build_run_config(cfg).federation_config(seed=1))
        graphs = [c.graph for c in clients]
        isolated = [bool((np.diff(g.adjacency.indptr) == 0).any()) for g in graphs]
        assert isolated[1] and not isolated[0]
        for g in graphs:
            self.check_operators(g)

    def test_hub_graph_equals_k_hop_reference(self):
        # the hub's 2-hop ring is empty, so its m2 row falls back to a dense m1 row
        g = hub_graph(1000)
        assert len(k_hop_sets(g, 0, 2)) == 0
        assert len(neighbors(g, 0)) == g.num_nodes - 1
        self.check_operators(g)

    @pytest.mark.parametrize("seed, dense", [(0, False), (1, False), (2, False),
                                             (3, False), (4, True)])
    def test_backward_equals_sorted_csr_transpose_bits(self, seed, dense):
        # the CSC product of m.T sums each output row in increasing column
        # order, as a sorted CSR copy of the transpose does
        g = generate_sbm(400, 2, 0.06, 0.03, 2, 1.0, seed=seed) if dense else ring_cases(seed)
        agg = HopAggregator(g)
        rng = np.random.default_rng(seed)
        blocks = rng.standard_normal((g.num_nodes, 12))
        # the (n, 2, 4) ring view of one array, as total_loss passes it
        g_hop1, g_hop2 = blocks[:, 4:8], blocks[:, 8:]
        expected = agg.m1.T.tocsr() @ g_hop1 + agg.m2.T.tocsr() @ g_hop2
        assert np.array_equal(agg.backward(blocks.reshape(-1, 3, 4)[:, 1:]), expected)
        g_hop = rng.standard_normal((2, g.num_nodes, 3))
        expected = agg.m1.T.tocsr() @ g_hop[0] + agg.m2.T.tocsr() @ g_hop[1]
        assert np.array_equal(agg.backward(g_hop.transpose(1, 0, 2)), expected)


def same_bits(a, b):
    """Equal shape, dtype and bytes: signed zeros differ, unlike np.array_equal."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def restriction_cases():
    """(graph, seed, row-set kind): the ring cases and a denser SBM graph."""
    graphs = [("ring_cases", seed) for seed in range(4)] + [("sbm", 4)]
    return [(graph, seed, kind) for graph, seed in graphs
            for kind in ("empty", "one", "random", "all")]


def restriction_instance(graph, seed, kind):
    g = ring_cases(seed) if graph == "ring_cases" else generate_sbm(400, 2, 0.06, 0.03,
                                                                    2, 1.0, seed=seed)
    n = g.num_nodes
    rng = np.random.default_rng(seed)
    rows = {"empty": np.array([], dtype=np.int64),
            "one": np.array([rng.integers(n)]),
            "random": np.sort(rng.choice(n, size=n // 3, replace=False)),
            "all": np.arange(n)}[kind]
    return g, HopAggregator(g), rows, rng


class TestHopAggregatorRestrict:
    """A restricted aggregator gives the full one's bits on its rows: each CSR
    row sums on its own, and the pullback only skips zero gradient rows."""

    @pytest.mark.parametrize("graph, seed, kind", restriction_cases())
    def test_rings_equal_full_on_rows_and_zero_elsewhere(self, graph, seed, kind):
        g, agg, rows, rng = restriction_instance(graph, seed, kind)
        local = agg.restrict(rows)
        assert np.array_equal(local.rows, rows)
        assert local.m1.shape == local.m2.shape == (len(rows), g.num_nodes)
        values = rng.standard_normal((g.num_nodes, 5))
        full, part = agg.rings(values), local.rings(values)
        assert part.shape == (len(rows), 2, 5)           # one pair per entry of rows
        assert same_bits(part, full[rows])

    @pytest.mark.parametrize("graph, seed, kind", restriction_cases())
    def test_backward_of_gradients_zero_off_rows_equals_full(self, graph, seed, kind):
        g, agg, rows, rng = restriction_instance(graph, seed, kind)
        off = np.setdiff1d(np.arange(g.num_nodes), rows)
        # the ring view of one array, as total_loss passes it; the zero
        # rows carry both signs, as a product with a zero gradient row does
        blocks = rng.standard_normal((g.num_nodes, 12))
        blocks[off] = np.copysign(0.0, rng.standard_normal((len(off), 12)))
        local = blocks[rows]
        assert same_bits(agg.restrict(rows).backward(local.reshape(-1, 3, 4)[:, 1:]),
                         agg.backward(blocks.reshape(-1, 3, 4)[:, 1:]))

    @pytest.mark.parametrize("graph, seed", [("ring_cases", 0), ("ring_cases", 1),
                                             ("sbm", 4)])
    def test_restrict_to_every_node_equals_full(self, graph, seed):
        g, agg, rows, rng = restriction_instance(graph, seed, "all")
        local = agg.restrict(rows)
        for a, b in ((local.m1, agg.m1), (local.m2, agg.m2)):
            assert a.shape == b.shape
            for name in ("indptr", "indices", "data"):
                assert same_bits(getattr(a, name), getattr(b, name))
        values = rng.standard_normal((g.num_nodes, 3))
        g_hop = rng.standard_normal((2, g.num_nodes, 3)).transpose(1, 0, 2)
        assert same_bits(local.rings(values), agg.rings(values))
        assert same_bits(local.backward(g_hop), agg.backward(g_hop))

    @pytest.mark.parametrize("graph, seed, kind", restriction_cases())
    def test_rings_is_one_c_ordered_pair_array(self, graph, seed, kind):
        g, agg, rows, rng = restriction_instance(graph, seed, kind)
        values = rng.standard_normal((g.num_nodes, 5))
        for op in (agg, agg.restrict(rows)):
            pairs = op.rings(values)
            assert pairs.shape == (len(op.rows), 2, 5) and pairs.dtype == np.float64
            assert pairs.flags.c_contiguous
            assert same_bits(pairs, np.stack([op.m1 @ values, op.m2 @ values], axis=1))

    @pytest.mark.parametrize("graph, seed, kind", restriction_cases())
    def test_backward_of_strided_view_equals_contiguous_copy(self, graph, seed, kind):
        g, agg, rows, rng = restriction_instance(graph, seed, kind)
        local = agg.restrict(rows)
        # the (len(rows), 2, d) ring view of the (len(rows), 3d) head gradient
        view = rng.standard_normal((len(rows), 12)).reshape(-1, 3, 4)[:, 1:]
        assert same_bits(local.backward(view), local.backward(np.ascontiguousarray(view)))

    def test_only_the_aggregator_of_every_node_restricts(self):
        # a restriction of a restriction would read positions as node ids
        local = HopAggregator(generate_sbm(40, 2, 0.2, 0.05, 3, 1.0, seed=1)).restrict(
            np.arange(10))
        for rows in (np.arange(10, 20), np.array([1, 2, 3])):    # equal and other length
            with pytest.raises(ValueError, match="^restrict needs the aggregator of every node$"):
                local.restrict(rows)

    @pytest.mark.parametrize("rows", [np.repeat(np.arange(20), 2), [3, 1], [2, 2], [-1, 3],
                                      [3, 40], [[1, 2]], [1.0, 2.0], [True, False]],
                             ids=["duplicates-of-length-n", "decreasing", "repeated",
                                  "negative", "past-the-end", "2-d", "float", "bool"])
    def test_rows_must_be_strictly_increasing_node_ids(self, rows):
        agg = HopAggregator(generate_sbm(40, 2, 0.2, 0.05, 3, 1.0, seed=1))
        with pytest.raises(ValueError,
                           match=r"^rows must be strictly increasing node ids in \[0, 40\)$"):
            agg.restrict(rows)
