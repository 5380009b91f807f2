import dataclasses
import os

import numpy as np
import pytest

from fedcal.cli import build_run_config, parse_config_file
from fedcal.fedsim import sample_structural_batch, setup_federation
from fedcal.graph import Graph, HopAggregator, generate_sbm, split_masks
from fedcal.model import (
    ModelParams,
    cross_entropy,
    forward,
    init_params,
    lr_schedule,
    sgd_step,
    total_loss,
)
from fedcal.refine import construct_etf, init_templates
from fedcal.semantic import class_means, procrustes
from fedcal.structural import radial_sequences_from_rings, sinkhorn_match


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_instance(seed, n=12, d0=5, d=4, c=3, train_ratio=0.6):
    g = generate_sbm(n, c, 0.3, 0.1, d0, 1.0, seed=seed)
    g = split_masks(g, (train_ratio, 0.2, 0.2), seed=seed)
    params = init_params(d0, d, c, seed=seed)
    agg = HopAggregator(g)
    return g, params, agg


def calibration_inputs(g, params, agg, seed, d, c, q=3, b=6):
    """total_loss's (semantic, structural) terms for g at params."""
    anchors = construct_etf(c, d, seed=seed)
    cache = forward(params, g, agg)
    train = np.flatnonzero(g.train_mask)
    rot = procrustes(*class_means(cache.ego[train], g.labels[train], c), anchors)
    templates = init_templates(q, d, seed=seed + 1)
    batch = sample_structural_batch(g, b, seed=seed + 2)
    radials = radial_sequences_from_rings(cache.rings[batch])
    matching = sinkhorn_match(radials, templates)
    return (rot, anchors), (matching.f, batch, templates)


def check_gradients(params, g, agg, train, semantic, structural):
    """total_loss's gradient of every parameter against central differences."""
    def loss_at():
        return total_loss(params, g, agg, forward(params, g, agg), train,
                          semantic, structural)[0]

    _, _, grads = total_loss(params, g, agg, forward(params, g, agg), train,
                             semantic, structural)
    eps = 1e-5
    for name in ("w_ego", "w_cls", "b_cls"):
        arr = getattr(params, name)
        ana = np.atleast_1d(getattr(grads, name))
        flat = arr.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up = loss_at()
            flat[k] = orig - eps
            down = loss_at()
            flat[k] = orig
            num = (up - down) / (2 * eps)
            a = ana.reshape(-1)[k]
            assert abs(num - a) / max(abs(num), abs(a), 1e-8) <= 1e-4


def assert_same_bits(got, want):
    assert repr(got[:2]) == repr(want[:2])
    for name in ("w_ego", "w_cls", "b_cls"):
        assert getattr(got[2], name).tobytes() == getattr(want[2], name).tobytes()


class TestForward:
    @pytest.mark.parametrize("w_cls, b_cls, message", [
        (np.zeros((11, 2)), np.zeros(2), "w_cls rows must equal 3 * embed dim"),
        (np.zeros((12, 2)), np.zeros(3), "b_cls length must equal w_cls columns"),
    ], ids=["w_cls_height", "b_cls_length"])
    def test_rejects_misshapen_head(self, w_cls, b_cls, message):
        g = generate_sbm(8, 2, 0.3, 0.1, 3, 1.0, seed=1)
        params = ModelParams(w_ego=np.zeros((3, 4)), w_cls=w_cls, b_cls=b_cls)
        with pytest.raises(ValueError) as raised:
            forward(params, g, HopAggregator(g))
        assert str(raised.value) == message

    def test_isolated_node_is_finite_with_ego_fallback(self):
        g = Graph.from_edges(np.array([[0.5, -0.2]]), [0], [])
        params = init_params(2, 3, 2, seed=0)
        cache = forward(params, g, HopAggregator(g))
        assert np.allclose(cache.rings[0, 0], cache.ego[0])
        assert np.allclose(cache.rings[0, 1], cache.ego[0])
        assert np.all(np.isfinite(cache.logits))

    def test_zero_weights_broadcast_bias(self):
        g = generate_sbm(8, 2, 0.3, 0.1, 3, 1.0, seed=1)
        params = ModelParams(
            w_ego=np.zeros((3, 4)),
            w_cls=np.zeros((12, 2)),
            b_cls=np.array([0.3, -0.7]),
        )
        cache = forward(params, g, HopAggregator(g))
        assert np.allclose(cache.logits, np.tile([0.3, -0.7], (8, 1)))

    def test_three_node_path_hand_computation(self):
        g = Graph.from_edges(
            np.array([[1.0], [2.0], [3.0]]), [0, 0, 0], [(0, 1), (1, 2)]
        )
        w = 0.5
        params = ModelParams(
            w_ego=np.array([[w]]), w_cls=np.zeros((3, 2)), b_cls=np.zeros(2)
        )
        cache = forward(params, g, HopAggregator(g))
        e = np.tanh(np.array([1.0, 2.0, 3.0]) * w)
        # ring means: node 0 sees {1} then {2}; node 1 sees {0,2}, no 2-ring
        hop1 = np.array([e[1], (e[0] + e[2]) / 2, e[1]])
        agg2 = np.array([e[2], (e[0] + e[2]) / 2, e[0]])
        hop2 = 0.5 * (hop1 + agg2)
        assert np.allclose(cache.rings[:, 0, 0], hop1, atol=1e-12)
        assert np.allclose(cache.rings[:, 1, 0], hop2, atol=1e-12)

    def test_leaf_node_second_ring_fallback(self):
        # triangle: no node has an exact-2-hop ring
        g = Graph.from_edges(
            np.ones((3, 2)), [0, 0, 0], [(0, 1), (1, 2), (0, 2)]
        )
        params = init_params(2, 3, 2, seed=2)
        cache = forward(params, g, HopAggregator(g))
        assert np.allclose(cache.rings[:, 1], cache.rings[:, 0], atol=1e-12)

    def test_restricted_forward_fills_rings_and_logits_on_rows_only(self):
        g, params, agg = small_instance(5, n=30)
        rows = np.sort(np.random.default_rng(5).choice(30, 11, replace=False))
        full, part = forward(params, g, agg), forward(params, g, agg.restrict(rows))
        n, d = part.ego.shape
        off = np.setdiff1d(np.arange(n), rows)
        assert part.rings.shape == (n, 2, d) and np.shares_memory(part.rings, part.blocks)
        assert part.rings[rows].tobytes() == full.rings[rows].tobytes()
        assert part.rings[off].tobytes() == np.zeros((len(off), 2, d)).tobytes()
        assert part.blocks.flags.c_contiguous
        stacked = np.hstack([part.ego, part.rings.reshape(n, -1)])
        assert part.blocks.tobytes() == stacked.tobytes()
        assert part.logits[rows].tobytes() == full.logits[rows].tobytes()

    def test_deterministic(self):
        g, params, agg = small_instance(3)
        a = forward(params, g, agg)
        b = forward(params, g, agg)
        assert np.array_equal(a.logits, b.logits)

    def test_shape_mismatch_raises(self):
        g, params, agg = small_instance(4)
        bad = ModelParams(
            w_ego=np.zeros((7, 4)), w_cls=params.w_cls, b_cls=params.b_cls
        )
        with pytest.raises(ValueError):
            forward(bad, g, agg)


class TestCrossEntropy:
    def test_uniform_logits_binary(self):
        logits = np.zeros((4, 2))
        labels = np.array([0, 1, 0, 1])
        loss, _ = cross_entropy(logits, labels)
        assert abs(loss - np.log(2.0)) <= 1e-12

    def test_large_margin_drives_loss_to_zero(self):
        logits = np.array([[30.0, 0.0], [0.0, 30.0]])
        labels = np.array([0, 1])
        loss, _ = cross_entropy(logits, labels)
        assert loss <= 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, size=6)
        loss, grad = cross_entropy(logits, labels)
        assert grad.shape == logits.shape
        eps = 1e-5
        for idx in [(0, 0), (1, 2), (3, 1), (5, 0)]:
            bumped = logits.copy()
            bumped[idx] += eps
            up, _ = cross_entropy(bumped, labels)
            bumped[idx] -= 2 * eps
            down, _ = cross_entropy(bumped, labels)
            num = (up - down) / (2 * eps)
            assert abs(num - grad[idx]) / max(abs(num), 1e-8) <= 1e-5

    def test_no_train_row_raises(self):
        with pytest.raises(RuntimeError,
                           match="^cross_entropy needs at least one train node$"):
            cross_entropy(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestTotalLoss:
    def test_reduces_to_ce_at_zero_residuals(self):
        # identical features per class make every ego sit at its class
        # mean; anchors placed at the calibrated means and templates at
        # the exact radials zero both calibration terms
        feats = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4)
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)] + [
            (i, j) for i in range(4, 8) for j in range(i + 1, 8)
        ]
        g = dataclasses.replace(Graph.from_edges(feats, [0] * 4 + [1] * 4, edges),
                                split=np.ones(8, dtype=int))
        params = init_params(2, 2, 2, seed=6)
        agg = HopAggregator(g)
        cache = forward(params, g, agg)
        p, present = class_means(cache.ego, g.labels, 2)     # every node trains
        rot = procrustes(p, present, construct_etf(2, 2, seed=6))

        anchors = rot @ p
        batch = np.arange(8)
        radials = radial_sequences_from_rings(cache.rings[batch])
        templates = radials.copy()
        total, (ce, sem, stru), _ = total_loss(
            params, g, agg, cache, np.flatnonzero(g.train_mask), (rot, anchors),
            (np.eye(8), batch, templates)
        )
        assert sem <= 1e-16 and stru <= 1e-16
        assert abs(total - ce) <= 1e-12

    def test_additivity_of_terms(self):
        g, params, agg = small_instance(7)
        semantic, structural = calibration_inputs(g, params, agg, 7, 4, 3)
        cache = forward(params, g, agg)
        train = np.flatnonzero(g.train_mask)
        total, (ce, sem, stru), _ = total_loss(params, g, agg, cache, train, semantic, structural)
        ce_only, (ce2, _, _), _ = total_loss(params, g, agg, cache, train)
        sem_only, (_, sem2, _), _ = total_loss(params, g, agg, cache, train, semantic)
        str_only, (_, _, stru2), _ = total_loss(params, g, agg, cache, train, None, structural)
        assert abs(ce - ce2) <= 1e-12
        assert abs(sem - sem2) <= 1e-12
        assert abs(stru - stru2) <= 1e-12
        assert abs(total - (ce + sem + stru)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_check_every_parameter(self, seed):
        g, params, agg = small_instance(seed)
        semantic, structural = calibration_inputs(g, params, agg, seed, 4, 3)
        check_gradients(params, g, agg, np.flatnonzero(g.train_mask), semantic, structural)

    def test_runs_no_forward_and_writes_nothing_into_the_cache(self, monkeypatch):
        g, params, agg = small_instance(3, n=40, train_ratio=0.3)
        semantic, structural = calibration_inputs(g, params, agg, 3, 4, 3)
        cache = forward(params, g, agg)
        arrays = (cache.ego, cache.rings, cache.blocks, cache.logits)
        before = [a.tobytes() for a in arrays]
        term_sets = [(None, None), (semantic, None), (None, structural),
                     (semantic, structural)]
        train = np.flatnonzero(g.train_mask)
        expected = [total_loss(params, g, agg, cache, train, *terms) for terms in term_sets]

        def no_forward(*args, **kwargs):
            raise AssertionError("total_loss ran a forward of its own")

        monkeypatch.setattr("fedcal.model.forward", no_forward)
        for terms, want in zip(term_sets, expected):
            assert_same_bits(total_loss(params, g, agg, cache, train, *terms), want)
        assert [a.tobytes() for a in arrays] == before

    @pytest.mark.parametrize("field", ["logits", "ego"])
    def test_only_train_rows_reach_ce_and_semantic(self, field):
        # a non-train row of the cache is never handed to a term's rows
        g, params, agg = small_instance(4, n=30, train_ratio=0.3)
        semantic, _ = calibration_inputs(g, params, agg, 4, 4, 3)
        cache = forward(params, g, agg)
        train = np.flatnonzero(g.train_mask)
        _, (ce, sem, _), _ = total_loss(params, g, agg, cache, train, semantic)
        off = np.flatnonzero(~g.train_mask)[0]
        getattr(cache, field)[off] = 1e3
        _, (ce_off, sem_off, _), _ = total_loss(params, g, agg, cache, train, semantic)
        assert repr((ce_off, sem_off)) == repr((ce, sem))

    def test_only_batch_rows_reach_structural(self):
        # total_loss hands the structural term the batch's ring pairs alone
        g, params, agg = small_instance(4, n=30, train_ratio=0.3)
        _, structural = calibration_inputs(g, params, agg, 4, 4, 3)
        cache = forward(params, g, agg)
        train = np.flatnonzero(g.train_mask)
        _, (_, _, stru), _ = total_loss(params, g, agg, cache, train, None, structural)
        off = np.setdiff1d(np.arange(g.num_nodes), structural[1])[0]
        cache.rings[off] = 1e3
        _, (_, _, stru_off), _ = total_loss(params, g, agg, cache, train, None, structural)
        assert repr(stru_off) == repr(stru)

    def test_classifier_untouched_by_calibration_terms(self):
        g, params, agg = small_instance(8)
        semantic, structural = calibration_inputs(g, params, agg, 8, 4, 3)
        cache = forward(params, g, agg)
        train = np.flatnonzero(g.train_mask)
        _, _, g_all = total_loss(params, g, agg, cache, train, semantic, structural)
        _, _, g_ce = total_loss(params, g, agg, cache, train)
        assert np.abs(g_all.w_cls - g_ce.w_cls).max() <= 1e-12
        assert np.abs(g_all.b_cls - g_ce.b_cls).max() <= 1e-12
        assert np.abs(g_all.w_ego - g_ce.w_ego).max() > 1e-8

    @pytest.mark.parametrize("seed, structural", [(0, True), (1, True), (2, False)])
    def test_restricted_aggregator_gives_full_loss_and_grads(self, seed, structural):
        # ring means on the train nodes and the batch are all the loss reads
        g, params, agg = small_instance(seed, n=60, train_ratio=0.2)
        semantic, terms = calibration_inputs(g, params, agg, seed, 4, 3)
        rows = np.flatnonzero(g.train_mask)
        if structural:
            rows = np.union1d(rows, terms[1])
        self.check_restricted(g, params, agg, semantic, terms if structural else None, rows)

    def test_rejects_aggregator_missing_a_train_or_batch_node(self):
        # off its rows a restricted aggregator's ring means are zeros, so a
        # loss read there would be silently wrong
        g, params, agg = small_instance(0, n=40, train_ratio=0.2)
        semantic, (_, _, templates) = calibration_inputs(g, params, agg, 0, 4, 3)
        train = np.flatnonzero(g.train_mask)
        batch = np.array([7, 21, 33, 7])
        assert not g.train_mask[batch].any()
        cache = forward(params, g, agg)
        f = sinkhorn_match(radial_sequences_from_rings(cache.rings[batch]), templates).f
        structural = (f, batch, templates)
        rows = np.union1d(train, batch)
        local = agg.restrict(rows)
        total_loss(params, g, local, forward(params, g, local), train, semantic, structural)

        no_train = agg.restrict(np.setdiff1d(rows, train[1]))
        with pytest.raises(ValueError,
                           match=f"^train node {train[1]} is not in the aggregator's rows$"):
            total_loss(params, g, no_train, forward(params, g, no_train), train)
        no_batch = agg.restrict(np.setdiff1d(rows, 7))
        with pytest.raises(ValueError, match="^batch node 7 is not in the aggregator's rows$"):
            total_loss(params, g, no_batch, forward(params, g, no_batch), train,
                       semantic, structural)

    @staticmethod
    def check_restricted(g, params, agg, semantic, structural, rows):
        # the restricted loss reads the same bits from the restricted
        # operator's forward as from the full one's
        assert 0 < len(rows) < g.num_nodes
        full_cache = forward(params, g, agg)
        train = np.flatnonzero(g.train_mask)
        full = total_loss(params, g, agg, full_cache, train, semantic, structural)
        restricted = agg.restrict(rows)
        for cache in (forward(params, g, restricted), full_cache):
            local = total_loss(params, g, restricted, cache, train, semantic, structural)
            assert repr(local[:2]) == repr(full[:2])
            for name in ("w_ego", "w_cls", "b_cls"):
                a, b = getattr(local[2], name), getattr(full[2], name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.fixture(scope="class")
    def large_client(self):
        """The largest client of the large-graph benchmark workload, 1 440 nodes."""
        cfg = parse_config_file(os.path.join(REPO, "perfbench", "workloads", "large-graph.cfg"))
        fed = build_run_config(cfg).federation_config(seed=1)
        clients, _, _, _ = setup_federation(fed)
        state = max(clients, key=lambda c: c.graph.num_nodes)
        assert state.graph.num_nodes >= 1400
        return fed, state.graph, state.params

    @pytest.mark.parametrize("rows_kind", ["train", "train-and-batch", "all-but-three"])
    def test_restricted_aggregator_gives_full_loss_and_grads_at_large_graph_size(
            self, large_client, rows_kind):
        # the head's products sum over r rows instead of n: their bits hold
        # only if the BLAS reductions drop the zero gradient rows exactly
        fed, g, params = large_client
        agg = HopAggregator(g)
        semantic, structural = calibration_inputs(
            g, params, agg, 1, fed.embed_dim, fed.num_classes, b=fed.batch_nodes
        )
        rows = np.flatnonzero(g.train_mask)
        if rows_kind == "train":
            structural = None
        else:
            rows = np.union1d(rows, structural[1])
        if rows_kind == "all-but-three":
            rows = np.delete(np.arange(g.num_nodes),
                             np.setdiff1d(np.arange(g.num_nodes), rows)[:3])
        self.check_restricted(g, params, agg, semantic, structural, rows)


class TestTrainIds:
    """total_loss scores the train ids it is handed and reads no split."""

    def test_unsplit_graph_gives_the_split_graphs_bits(self):
        g, params, agg = small_instance(5, n=30, train_ratio=0.4)
        semantic, structural = calibration_inputs(g, params, agg, 5, 4, 3)
        train = np.flatnonzero(g.train_mask)
        unsplit = dataclasses.replace(g, split=np.zeros(g.num_nodes, dtype=np.int8))
        assert_same_bits(
            total_loss(params, unsplit, agg, forward(params, unsplit, agg), train,
                       semantic, structural),
            total_loss(params, g, agg, forward(params, g, agg), train, semantic, structural))

    def test_subset_of_train_ids_equals_a_split_of_that_subset(self):
        g, params, agg = small_instance(6, n=30, train_ratio=0.5)
        semantic, structural = calibration_inputs(g, params, agg, 6, 4, 3)
        train = np.flatnonzero(g.train_mask)
        subset = train[::2]
        split = g.split.copy()
        split[train[1::2]] = 0
        narrow = dataclasses.replace(g, split=split)
        cache = forward(params, g, agg)
        got = total_loss(params, g, agg, cache, subset, semantic, structural)
        assert_same_bits(got, total_loss(params, narrow, agg, forward(params, narrow, agg),
                                         np.flatnonzero(narrow.train_mask), semantic, structural))
        full = total_loss(params, g, agg, cache, train, semantic, structural)
        assert got[1][0] != full[1][0] and got[1][1] != full[1][1]

    def test_rejects_an_unlabeled_train_id(self):
        # label -1 would index the last class's logit and anchor
        g, params, agg = small_instance(3, n=20)
        labels, split = g.labels.copy(), g.split.copy()
        off = np.flatnonzero(~g.train_mask)[:2]
        labels[off], split[off] = -1, 0
        g = dataclasses.replace(g, labels=labels, split=split)
        train = np.append(np.flatnonzero(g.train_mask), off)
        with pytest.raises(ValueError, match=f"^train node {off[0]} carries no label$"):
            total_loss(params, g, agg, forward(params, g, agg), train)

    def test_train_id_listed_twice_gets_the_gradient_of_its_loss(self):
        g, params, agg = small_instance(2)
        semantic, structural = calibration_inputs(g, params, agg, 2, 4, 3)
        train = np.flatnonzero(g.train_mask)
        check_gradients(params, g, agg, np.append(train, train[1]), semantic, structural)


class TestSgdAndSchedule:
    def test_zero_gradient_keeps_params(self):
        params = init_params(3, 2, 2, seed=9)
        zero = ModelParams(
            w_ego=np.zeros_like(params.w_ego),
            w_cls=np.zeros_like(params.w_cls),
            b_cls=np.zeros_like(params.b_cls),
        )
        after = sgd_step(params, zero, 0.1)
        assert np.array_equal(after.w_ego, params.w_ego)
        assert np.array_equal(after.w_cls, params.w_cls)

    def test_nonfinite_gradient_aborts(self):
        params = init_params(3, 2, 2, seed=10)
        bad = ModelParams(
            w_ego=np.full_like(params.w_ego, np.nan),
            w_cls=np.zeros_like(params.w_cls),
            b_cls=np.zeros_like(params.b_cls),
        )
        with pytest.raises(RuntimeError, match="w_ego"):
            sgd_step(params, bad, 0.1)

    def test_quadratic_descent_matches_closed_form(self):
        # f(x) = k/2 (x - 3)^2 under the default schedule
        k, x_star = 0.8, 3.0
        x = -2.0
        err = x - x_star
        for t in range(10000):
            lr = lr_schedule(t, 0.1, 50.0)
            x = x - lr * k * (x - x_star)
            err = err * (1.0 - lr * k)
        assert abs((x - x_star) - err) <= 1e-12
        assert abs(x - x_star) <= 1e-2 * 5.0

    def test_schedule_sums(self):
        t = np.arange(1_000_000, dtype=np.float64)
        lr = 0.1 / (1.0 + t / 50.0)
        partial_small = lr[:100_000].sum()
        partial_big = lr.sum()
        # harmonic-type growth: the sum keeps increasing without bound
        assert partial_big > partial_small + 0.1 * 50.0 * np.log(10) * 0.9
        # squared sum converges: the tail is tiny
        assert (lr[100_000:] ** 2).sum() <= 1e-3

    def test_monotone_descent_on_frozen_targets(self):
        # seeded 20-node instances: loss non-increasing after 5 warmup
        # steps once the schedule sits inside the descent regime
        for seed in range(3):
            g, params, agg = small_instance(seed + 20, n=20, d0=6, d=4, c=2)
            semantic, structural = calibration_inputs(g, params, agg, seed + 20, 4, 2)
            train = np.flatnonzero(g.train_mask)
            losses = []
            for t in range(40):
                total, _, grads = total_loss(params, g, agg, forward(params, g, agg), train,
                                             semantic, structural)
                losses.append(total)
                params = sgd_step(params, grads, lr_schedule(t, 0.02, 100.0))
            for i in range(5, len(losses) - 1):
                assert losses[i + 1] <= losses[i] + 1e-6

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            lr_schedule(0, 0.0, 10.0)
        for lr0, decay_steps in ((np.nan, 10.0), (0.1, np.nan)):
            with pytest.raises(ValueError, match="^lr0 and decay_steps must be positive$"):
                lr_schedule(3, lr0, decay_steps)
        assert lr_schedule(3, 0.1, np.inf) == 0.1
        with pytest.raises(ValueError, match="^lr0 must be finite, got inf$"):
            lr_schedule(3, np.inf, 10.0)
        with pytest.raises(ValueError):
            sgd_step(init_params(2, 2, 2, 0),
                     ModelParams(np.zeros((2, 2)), np.zeros((6, 2)), np.zeros(2)),
                     0.0)

    @pytest.mark.parametrize("lr", [np.inf, np.nan, -0.1])
    def test_step_rejects_lr_not_finite_and_positive(self, lr):
        # an infinite lr turned every parameter into NaN or +-inf
        params = init_params(2, 2, 2, 0)
        grads = ModelParams(np.ones((2, 2)), np.zeros((6, 2)), np.zeros(2))
        with pytest.raises(ValueError) as raised:
            sgd_step(params, grads, lr)
        assert str(raised.value) == f"learning rate must be finite and > 0, got {lr}"
