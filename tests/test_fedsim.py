import dataclasses
import gc
import inspect
import os
import re
import weakref

import numpy as np
import pytest

from fedcal import fedsim
from fedcal.fedsim import (
    ClientState,
    FederationConfig,
    FederationError,
    HistoryRow,
    build_dataset,
    evaluate,
    export_embeddings,
    export_history,
    import_history,
    run_client_round,
    run_federation,
    sample_structural_batch,
    semantic_pool,
    server_step,
    setup_federation,
    structural_pool,
)
from fedcal.graph import Graph, HopAggregator, generate_sbm
from fedcal.model import ModelParams, forward, init_params, total_loss
from fedcal.refine import template_objective
from oracles import star_graph


def tiny_config(**kw):
    base = dict(
        num_clients=3,
        rounds=2,
        local_epochs=2,
        embed_dim=4,
        num_classes=2,
        batch_nodes=16,
        num_templates=2,
        lr0=0.05,
        lr_decay_steps=100.0,
        seed=7,
        dataset_kind="synthetic", nodes=90, p_in=0.1, p_out=0.03, feat_dim=5, feat_sep=1.2,
    )
    base.update(kw)
    return FederationConfig(**base)


class TestConfigValidation:
    def test_embed_dim_must_cover_classes(self):
        with pytest.raises(ValueError):
            tiny_config(embed_dim=2, num_classes=3)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            tiny_config(task_metric="f1")

    def test_unknown_partition_mode(self):
        with pytest.raises(ValueError, match="partition.mode"):
            tiny_config(partition_mode="bogus")

    def test_overlapping_needs_five_clients_or_a_multiple(self):
        # one overlapping client would be the whole graph, the run that one
        # non-overlapping client already is
        for clients in (1, 7):
            with pytest.raises(ValueError) as raised:
                tiny_config(partition_mode="overlapping", num_clients=clients)
            assert str(raised.value) == ("partition.mode = overlapping needs federation."
                                         f"clients to be a multiple of 5, got {clients}")

    @pytest.mark.parametrize("batch_nodes", [2**63, 10**23, 10**400])
    def test_batch_nodes_beyond_an_array_dimension_is_rejected(self, batch_nodes):
        # B * Q / epsilon then stays below (2**63)**2 / 0.05, far from the
        # largest float, so no epsilon rule is needed
        with pytest.raises(ValueError) as raised:
            tiny_config(batch_nodes=batch_nodes)
        assert str(raised.value) == (f"federation.batch_nodes must be in "
                                     f"[1, {np.iinfo(np.intp).max}], got {batch_nodes}")

    def test_largest_batch_nodes_runs(self):
        # a client samples all its nodes when it has fewer than batch_nodes
        result = run_federation(tiny_config(batch_nodes=2**63 - 1, rounds=1))
        assert result.sinkhorn_calls == 3

    def test_infinite_decay_steps_is_a_constant_rate(self):
        assert tiny_config(lr_decay_steps=np.inf).lr_decay_steps == np.inf

    def test_learning_rate_check_reads_the_last_step(self):
        # no step, or one at t = 0 where the rate is lr0, passes; so does a
        # count beyond float range, checked at the largest array index
        tiny_config(rounds=0, lr_decay_steps=1e-320)
        tiny_config(rounds=1, local_epochs=1, lr_decay_steps=1e-320)
        tiny_config(rounds=10**400)
        # a numpy float overflows the division as a float does, without a warning
        with pytest.raises(ValueError, match="give a learning rate of 0 by step 3$"):
            tiny_config(lr_decay_steps=np.float64(1e-320))

    def test_files_dataset_needs_paths(self):
        with pytest.raises(ValueError, match="dataset.edges, dataset.features, dataset.labels"):
            tiny_config(dataset_kind="files")

    def test_every_keyed_field_declares_its_rule_and_kind(self):
        # no key goes unchecked: each declares a rule but the dataset paths,
        # checked as a group
        keyed = [f for f in dataclasses.fields(FederationConfig) if "key" in f.metadata]
        assert {f.metadata["key"] for f in keyed if f.metadata["rule"] is None} == {
            "dataset.edges", "dataset.features", "dataset.labels"}
        assert {f.metadata["key"]: f.metadata["only"] for f in keyed if f.metadata["only"]} == {
            **dict.fromkeys(["dataset.nodes", "dataset.p_in", "dataset.p_out",
                             "dataset.feat_dim", "dataset.feat_sep"], "synthetic"),
            **dict.fromkeys(["dataset.edges", "dataset.features", "dataset.labels"], "files")}
        assert [f.name for f in fedsim.kind_fields("files")] == [
            "edges_path", "features_path", "labels_path"]

    @pytest.mark.parametrize("kw, message", [
        (dict(num_clients=0), "federation.clients must be >= 1, got 0"),
        (dict(seed=-1), "federation.seed must be >= 0, got -1"),
        (dict(num_templates=10**23),
         f"federation.templates must be in [1, {np.iinfo(np.intp).max}], got {10**23}"),
        (dict(num_classes=1), "federation.classes must be >= 2, got 1"),
        (dict(lr_decay_steps=0.0), "train.lr_decay_steps must be > 0, got 0.0"),
        (dict(p_in=1.5), "dataset.p_in must be in [0, 1], got 1.5"),
        (dict(feat_sep=-1.0), "dataset.feat_sep must be finite and >= 0, got -1.0"),
        (dict(nodes=0), f"dataset.nodes must be in [1, {np.iinfo(np.intp).max}], got 0"),
        (dict(dataset_kind="bogus"), "dataset.kind must be synthetic or files, got 'bogus'"),
        (dict(task_metric="f1"), "federation.metric must be accuracy or auc, got 'f1'"),
        (dict(partition_mode="bogus"),
         "partition.mode must be non-overlapping or overlapping, got 'bogus'"),
        (dict(edges_path="e"), "dataset.edges is read only under dataset.kind = files, "
                               "not synthetic"),
        (dict(dataset_kind="files", edges_path="e", features_path="x"),
         "dataset.kind = files needs dataset.labels"),
        (dict(dataset_kind="files", edges_path="e", features_path="x", labels_path="y",
              lr0=-1.0), "train.lr0 must be finite and > 0, got -1.0"),
        # 1 / 1e-320 is inf, and 5e-324 / 2 underflows: both rates reach 0 at step 1
        (dict(lr_decay_steps=1e-320), "train.lr0 = 0.05 and train.lr_decay_steps = 1e-320 "
                                      "give a learning rate of 0 by step 3"),
        (dict(lr0=5e-324, lr_decay_steps=1.0), "train.lr0 = 5e-324 and train.lr_decay_steps "
                                               "= 1.0 give a learning rate of 0 by step 3"),
    ])
    def test_single_fault_message(self, kw, message):
        with pytest.raises(ValueError) as raised:
            tiny_config(**kw)
        assert str(raised.value) == message

    INT_KEYS = {"num_clients": "federation.clients", "rounds": "federation.rounds",
                "local_epochs": "federation.local_epochs", "seed": "federation.seed",
                "embed_dim": "federation.embed_dim", "num_classes": "federation.classes",
                "batch_nodes": "federation.batch_nodes", "num_templates": "federation.templates",
                "nodes": "dataset.nodes", "feat_dim": "dataset.feat_dim"}

    def test_int_keys_are_the_int_fields(self):
        assert {f.name for f in dataclasses.fields(FederationConfig)
                if f.type == "int"} == set(self.INT_KEYS)

    @pytest.mark.parametrize("name", sorted(INT_KEYS))
    @pytest.mark.parametrize("value", [1.5, 2.0, True, np.float64(3.0)])
    def test_int_key_rejects_a_non_integer(self, name, value):
        # a float or bool used to pass and fail late, or run with a float count
        with pytest.raises(ValueError) as raised:
            tiny_config(**{name: value})
        assert str(raised.value) == f"{self.INT_KEYS[name]} must be an integer, got {value!r}"

    def test_int_keys_accept_numpy_integers(self):
        cfg = tiny_config(rounds=np.int64(2), seed=np.int32(7), nodes=np.uint16(90))
        assert (cfg.rounds, cfg.seed, cfg.nodes) == (2, 7, 90)

    FLOAT_KEYS = {"lr0": "train.lr0", "lr_decay_steps": "train.lr_decay_steps",
                  "p_in": "dataset.p_in", "p_out": "dataset.p_out",
                  "feat_sep": "dataset.feat_sep"}

    def test_float_keys_are_the_float_fields(self):
        assert {f.name for f in dataclasses.fields(FederationConfig)
                if f.type == "float"} == set(self.FLOAT_KEYS)

    @pytest.mark.parametrize("name", sorted(FLOAT_KEYS))
    @pytest.mark.parametrize("value", [True, False, np.True_, "0.1", None])
    def test_float_key_rejects_a_non_number(self, name, value):
        # a bool used to run as 1.0 or 0.0, and a string to raise a bare TypeError
        with pytest.raises(ValueError) as raised:
            tiny_config(**{name: value})
        assert str(raised.value) == f"{self.FLOAT_KEYS[name]} must be a number, got {value!r}"

    def test_float_keys_accept_ints_and_numpy_floats(self):
        cfg = tiny_config(lr0=1, p_in=np.float32(0.25), feat_sep=np.int64(2),
                          p_out=np.float64(0.02), lr_decay_steps=np.inf)
        assert (cfg.lr0, cfg.p_in, cfg.feat_sep, cfg.p_out) == (1, 0.25, 2, 0.02)

    def test_generator_rules_hold_under_synthetic_only(self):
        files = dict(dataset_kind="files", edges_path="e", features_path="x", labels_path="y")
        tiny_config(**files, nodes=None, p_in=None, p_out=None, feat_dim=None, feat_sep=None)
        tiny_config(**files, nodes=0, p_in=1.5, feat_sep=-1.0)


class TestRunFederation:
    def test_server_floating_point_fault_fails_its_round(self, monkeypatch):
        def overflowing(anchors, *args):
            return anchors * 1e300 * 1e300

        monkeypatch.setattr(fedsim, "refine_all_anchors", overflowing)
        with pytest.raises(FederationError,
                           match="^server failed at round 0: overflow encountered in multiply$"):
            run_federation(tiny_config(rounds=1))

    def test_zero_rounds_returns_initial_models(self):
        cfg = tiny_config(rounds=0)
        result = run_federation(cfg)
        assert result.records == []
        fresh, _, _, _ = setup_federation(cfg)
        for a, b in zip(result.clients, fresh):
            assert np.array_equal(a.params.w_ego, b.params.w_ego)

    def test_deterministic_across_runs(self):
        cfg = tiny_config()
        rows_a = run_federation(cfg).records
        rows_b = run_federation(cfg).records
        assert rows_a == rows_b

    def test_takes_only_the_config(self):
        assert list(inspect.signature(run_federation).parameters) == ["cfg"]

    def test_clients_run_in_id_order(self, monkeypatch):
        calls = []
        client_round = fedsim.run_client_round

        def recorded(state, anchors, templates, cfg_, round_idx):
            calls.append((round_idx, state.client_id))
            return client_round(state, anchors, templates, cfg_, round_idx)

        monkeypatch.setattr(fedsim, "run_client_round", recorded)
        cfg = tiny_config(rounds=3)
        run_federation(cfg)
        assert calls == [(r, c) for r in range(cfg.rounds) for c in range(cfg.num_clients)]

    @pytest.mark.parametrize("name", ["run_client_round", "server_step"])
    def test_rounds_run_with_strict_floating_point(self, monkeypatch, name):
        seen = []
        step = getattr(fedsim, name)

        def recorded(*args):
            seen.append(np.geterr())
            return step(*args)

        monkeypatch.setattr(fedsim, name, recorded)
        run_federation(tiny_config(rounds=2))
        assert seen
        for err in seen:
            assert (err["over"], err["invalid"], err["divide"]) == ("raise",) * 3

    def test_setup_and_caller_keep_their_error_state(self, monkeypatch):
        # the strict state covers the rounds only: set-up runs under the
        # caller's state, which the run restores, also when a round fails
        seen = []
        setup = fedsim.setup_federation

        def recorded(cfg_):
            seen.append(np.geterr())
            return setup(cfg_)

        def failing(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(fedsim, "setup_federation", recorded)
        with np.errstate(all="ignore"):
            caller = np.geterr()
            run_federation(tiny_config(rounds=1))
            assert np.geterr() == caller
            monkeypatch.setattr(fedsim, "server_step", failing)
            with pytest.raises(FederationError, match="^server failed at round 0: boom$"):
                run_federation(tiny_config(rounds=1))
            assert np.geterr() == caller
        assert seen == [caller, caller]

    def test_single_client_anchors_follow_deviation(self):
        from fedcal.refine import construct_etf, deviation_vectors

        cfg = tiny_config(num_clients=1, rounds=1, batch_nodes=64)
        clients, anchors, templates, _ = setup_federation(cfg)
        res = run_client_round(clients[0], anchors, templates, cfg, 0)
        vs = deviation_vectors(semantic_pool([res.upload[0]]), anchors)
        result = run_federation(cfg)
        moved = result.anchors - anchors
        for i in range(cfg.num_classes):
            if np.linalg.norm(vs[:, i]) > 1e-3:
                assert moved[:, i] @ vs[:, i] > 0.0

    def test_history_row_fields(self, monkeypatch):
        import fedcal.fedsim as fedsim_mod

        objectives = []

        def recorded(structural, q, template):
            objectives.append(template_objective(structural, q, template))
            return objectives[-1]

        monkeypatch.setattr(fedsim_mod, "template_objective", recorded)
        cfg = tiny_config()
        rows = run_federation(cfg).records
        assert [(row.round, row.client_id) for row in rows] == [
            (r, c) for r in range(cfg.rounds) for c in range(cfg.num_clients)]
        for row in rows:
            assert row.ce_loss >= 0 and row.sem_loss >= 0 and row.str_loss >= 0
            assert row.anchor_gram_drift >= 0
            assert all(type(v) is float for v in dataclasses.astuple(row)[2:])
        # each round's rows carry the mean of its templates' GW objectives
        assert len(objectives) == cfg.rounds * cfg.num_templates
        for r in range(cfg.rounds):
            mean = float(np.mean(objectives[r * cfg.num_templates:
                                            (r + 1) * cfg.num_templates]))
            assert {row.gw_objective_mean for row in rows if row.round == r} == {mean}

    def test_within_round_loss_monotone(self, monkeypatch):
        import fedcal.fedsim as fedsim_mod

        losses = []

        def recorded(*args, **kwargs):
            out = total_loss(*args, **kwargs)
            losses.append(out[0])
            return out

        monkeypatch.setattr(fedsim_mod, "total_loss", recorded)
        cfg = tiny_config(rounds=4, local_epochs=3, lr0=0.02)
        clients, anchors, templates, _ = setup_federation(cfg)
        for r in range(cfg.rounds):
            for state in clients:
                losses.clear()
                res = run_client_round(state, anchors, templates, cfg, r)
                assert len(losses) == cfg.local_epochs + 1
                for i in range(len(losses) - 1):
                    assert losses[i + 1] <= losses[i] + 1e-6
                state.params = res.local[0]

    @pytest.mark.parametrize("kw", [{}, dict(structural_enabled=False),
                                    dict(semantic_enabled=False)],
                             ids=["full", "ablate-structural", "ablate-semantic"])
    def test_every_loss_reads_a_fresh_forward(self, monkeypatch, kw):
        # the round hands total_loss a forward of the current params: none
        # left stale by an sgd_step
        calls = []

        def checked(params, g, agg, cache, *terms):
            fresh = forward(params, g, agg)
            for name in ("blocks", "logits"):
                assert (getattr(cache, name)[agg.rows].tobytes()
                        == getattr(fresh, name)[agg.rows].tobytes())
            calls.append(agg)
            return total_loss(params, g, agg, cache, *terms)

        monkeypatch.setattr(fedsim, "total_loss", checked)
        cfg = tiny_config(rounds=3, **kw)
        run_federation(cfg)
        assert len(calls) == cfg.rounds * cfg.num_clients * (cfg.local_epochs + 1)

    def test_failed_client_names_round(self):
        cfg = tiny_config()
        clients, anchors, templates, _ = setup_federation(cfg)
        bad = ModelParams(
            w_ego=np.zeros((99, 4)), w_cls=np.zeros((12, 2)), b_cls=np.zeros(2)
        )
        clients[1].params = bad

        # run manually to hit the failure path deterministically
        cfg_bad = tiny_config()
        result_cfg_clients, a, t, _ = setup_federation(cfg_bad)
        result_cfg_clients[1].params = bad
        with pytest.raises(Exception):
            run_client_round(result_cfg_clients[1], a, t, cfg_bad, 0)

    def test_federation_error_wraps_client_failure(self, monkeypatch):
        cfg = tiny_config(rounds=1)

        import fedcal.fedsim as fedsim_mod

        original = fedsim_mod.run_client_round

        def sabotage(state, anchors, templates, cfg_, round_idx):
            if state.client_id == 2:
                raise RuntimeError("boom")
            return original(state, anchors, templates, cfg_, round_idx)

        monkeypatch.setattr(fedsim_mod, "run_client_round", sabotage)
        with pytest.raises(FederationError, match="client 2 failed at round 0"):
            fedsim_mod.run_federation(cfg)

    def test_ablations_zero_their_terms(self):
        rows_no_sem = run_federation(tiny_config(semantic_enabled=False)).records
        assert all(row.sem_loss == 0.0 for row in rows_no_sem)
        rows_no_str = run_federation(tiny_config(structural_enabled=False)).records
        assert all(row.str_loss == 0.0 for row in rows_no_str)
        assert all(row.gw_objective_mean == 0.0 for row in rows_no_str)

    def test_frozen_refinement_keeps_anchors(self):
        cfg = tiny_config(refine_enabled=False)
        _, anchors0, templates0, _ = setup_federation(cfg)
        result = run_federation(cfg)
        assert np.array_equal(result.anchors, anchors0)
        assert np.array_equal(result.templates, templates0)

    def test_rounds_hold_no_root_graph(self, monkeypatch):
        # the clients own induced subgraphs; once they are built no round
        # reads the root graph, so the run must not keep it alive
        roots, alive = [], []
        build, client_round = fedsim.build_dataset, fedsim.run_client_round

        def built(cfg):
            g = build(cfg)
            roots.append(weakref.ref(g))
            return g

        def first_round(*args):
            gc.collect()
            alive.append(roots[0]() is not None)
            return client_round(*args)

        monkeypatch.setattr(fedsim, "build_dataset", built)
        monkeypatch.setattr(fedsim, "run_client_round", first_round)
        run_federation(tiny_config(rounds=1))
        assert len(roots) == 1 and alive[0] is False

    def test_round_leaves_shared_arrays_unwritten(self):
        # every client reads the same anchors and templates: a round
        # on read-only arrays must run and give what it gives on copies
        cfg = tiny_config(rounds=1)
        clients, anchors, templates, _ = setup_federation(cfg)

        def one_round(anchors, templates):
            results = [run_client_round(c, anchors, templates, cfg, 0) for c in clients]
            refined, new_templates, drift, gw_mean = server_step(
                anchors, templates, [r.upload for r in results], cfg.refine_enabled)
            arrays = [refined, new_templates, np.array([drift, gw_mean])]
            for r in results:
                (params, rotation), ((k, present, losses), (radials, f)) = r.local, r.upload
                arrays += [params.w_ego, params.w_cls, params.b_cls, rotation,
                           k, present, losses, radials, f, np.array(r.metrics)]
            return arrays

        frozen_anchors, frozen_templates = anchors.copy(), templates.copy()
        frozen_anchors.flags.writeable = False
        frozen_templates.flags.writeable = False
        frozen = one_round(frozen_anchors, frozen_templates)
        writable = one_round(anchors.copy(), templates.copy())
        assert len(frozen) == len(writable)
        for x, y in zip(frozen, writable):
            assert np.array_equal(x, y)
        assert np.array_equal(frozen_anchors, anchors)
        assert np.array_equal(frozen_templates, templates)


class TestRingRowRestriction:
    """Each client-round computes ring means only on its train nodes and
    batch; an oracle run on the full operators must give the same bits."""

    @staticmethod
    def run_bits(cfg):
        result = run_federation(cfg)
        params = [p.tobytes() for c in result.clients
                  for p in (c.params.w_ego, c.params.w_cls, c.params.b_cls, c.rotation)]
        return (repr(result.records), params, result.anchors.tobytes(),
                result.templates.tobytes())

    @pytest.mark.parametrize("kw", [
        dict(rounds=3),                                  # 30-node clients, batch 16
        dict(rounds=3, structural_enabled=False),        # rows = the train nodes
        dict(rounds=2, num_clients=5, partition_mode="overlapping", batch_nodes=8),
    ], ids=["structural", "ablate-structural", "overlapping"])
    def test_equals_full_operator_oracle(self, monkeypatch, kw):
        cfg = tiny_config(**kw)
        restrict = HopAggregator.restrict
        sizes = []

        def counted(agg, rows):
            sizes.append((len(rows), agg.m1.shape[0]))
            return restrict(agg, rows)

        monkeypatch.setattr(HopAggregator, "restrict", counted)
        restricted = self.run_bits(cfg)
        assert len(sizes) == cfg.rounds * cfg.num_clients
        assert all(0 < r < n for r, n in sizes)
        monkeypatch.setattr(HopAggregator, "restrict", lambda agg, rows: agg)
        assert self.run_bits(cfg) == restricted

    def test_unchanged_rows_reuse_one_restriction(self, monkeypatch):
        # with the structural term off a client's rows are its train nodes
        # in every round, so round 2 gets round 1's restriction back
        cfg = tiny_config(rounds=2, structural_enabled=False)
        restrict = HopAggregator.restrict
        calls = []

        def recorded(agg, rows):
            calls.append((agg, rows.copy(), restrict(agg, rows)))
            return calls[-1][2]

        monkeypatch.setattr(HopAggregator, "restrict", recorded)
        run_federation(cfg)
        monkeypatch.undo()
        assert len(calls) == cfg.rounds * cfg.num_clients
        for (agg, rows, first), (agg2, rows2, second) in zip(
                calls[:cfg.num_clients], calls[cfg.num_clients:]):
            assert agg2 is agg and np.array_equal(rows2, rows) and second is first

        # other rows of the same count give a fresh restriction, which is
        # then kept; the memo holds its own copy of the row ids
        agg, rows, first = calls[-1]
        swapped = np.sort(np.append(rows[1:], np.setdiff1d(np.arange(agg.m1.shape[0]),
                                                           rows)[0]))
        fresh = agg.restrict(swapped)
        assert fresh is not first and np.array_equal(fresh.rows, swapped)
        values = np.random.default_rng(0).standard_normal((agg.m1.shape[0], 3))
        assert np.array_equal(fresh.rings(values), agg.rings(values)[swapped])
        assert agg.restrict(swapped.copy()) is fresh
        swapped[:] = rows                                # the caller reuses its array
        assert not np.array_equal(fresh.rows, swapped)
        assert agg.restrict(swapped) is not fresh


class TestPrivacyStructure:
    @pytest.mark.parametrize("ablate", [[], ["structural"]], ids=["full", "ablate-structural"])
    def test_every_upload_is_the_declared_arrays(self, monkeypatch, tmp_path, ablate):
        # ClientRoundResult declares the upload: ((k, present, per_class_loss),
        # (radials, f)), the second None without the structural term
        from fedcal import cli

        seen = []
        client_round = fedsim.run_client_round

        def recorded(state, anchors, templates, cfg, round_idx):
            res = client_round(state, anchors, templates, cfg, round_idx)
            seen.append((state.graph.num_nodes, cfg, res.upload))
            return res

        monkeypatch.setattr(fedsim, "run_client_round", recorded)
        smoke = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs", "smoke.cfg")
        argv = ["run", "--config", smoke, "--out", str(tmp_path / "run")]
        assert cli.main(argv + [arg for name in ablate for arg in ("--ablate", name)]) == 0
        cfg = seen[0][1]
        assert len(seen) == cfg.rounds * cfg.num_clients
        d, c, q = cfg.embed_dim, cfg.num_classes, cfg.num_templates
        for nodes, _, upload in seen:
            b = min(cfg.batch_nodes, nodes)
            assert type(upload) is tuple and len(upload) == 2
            semantic, structural = upload
            declared = [(semantic, [((d, c), np.float64), ((c,), np.bool_), ((c,), np.float64)])]
            if ablate:
                assert structural is None
            else:
                declared.append((structural, [((b, 2, d), np.float64), ((b, q), np.float64)]))
            for arrays, shapes in declared:
                assert type(arrays) is tuple
                assert [(a.shape, a.dtype) for a in arrays] == shapes
                assert all(type(a) is np.ndarray for a in arrays)

    def test_client_round_has_four_parts(self):
        from fedcal.fedsim import ClientRoundResult

        parts = [f.name for f in dataclasses.fields(ClientRoundResult)]
        assert parts == ["local", "upload", "metrics", "converged"]

    def test_reports_reference_no_graph_or_params(self):
        cfg = tiny_config(rounds=1)
        clients, anchors, templates, _ = setup_federation(cfg)
        res = run_client_round(clients[0], anchors, templates, cfg, 0)
        assert len(res.upload) == 2
        for part in res.upload:
            for value in part:
                assert not isinstance(value, (Graph, ModelParams, ClientState))
                # every uploaded field is a bare array, none a solver's result object
                assert type(value) is np.ndarray
        assert isinstance(res.converged, bool)

    def test_semantic_summaries_read_the_train_rows(self, monkeypatch):
        # the round selects the train nodes' rows; no other node's ego counts
        cfg = tiny_config(rounds=1)
        clients, anchors, templates, _ = setup_federation(cfg)
        state = clients[0]
        train = np.flatnonzero(state.graph.train_mask)
        assert 0 < len(train) < state.graph.num_nodes
        first_ego = forward(state.params, state.graph, state.agg).ego[train]
        seen = []

        def recorded(fn):
            def call(ego, labels, *rest):
                seen.append((fn.__name__, ego.copy(), labels.copy()))
                return fn(ego, labels, *rest)
            return call

        for name in ("class_means", "semantic_per_class_loss"):
            monkeypatch.setattr(fedsim, name, recorded(getattr(fedsim, name)))
        run_client_round(state, anchors, templates, cfg, 0)
        assert [name for name, _, _ in seen] == ["class_means", "class_means",
                                                  "semantic_per_class_loss"]
        assert seen[0][1].tobytes() == first_ego.tobytes()
        for _, ego, labels in seen:
            assert ego.shape == (len(train), cfg.embed_dim)
            assert np.array_equal(labels, state.graph.labels[train])

    @pytest.mark.parametrize("kw", [{}, dict(structural_enabled=False),
                                    dict(refine_enabled=False)],
                             ids=["full", "ablate-structural", "ablate-refinement"])
    def test_server_step_reads_only_the_uploads(self, kw):
        cfg = tiny_config(rounds=1, **kw)
        clients, anchors, templates, _ = setup_federation(cfg)
        uploads = [run_client_round(c, anchors, templates, cfg, 0).upload for c in clients]
        del clients
        new_anchors, new_templates, drift, gw_mean = server_step(anchors, templates,
                                                                 uploads, cfg.refine_enabled)
        result = run_federation(cfg)
        assert new_anchors.tobytes() == result.anchors.tobytes()
        assert new_templates.tobytes() == result.templates.tobytes()
        assert {(row.anchor_gram_drift, row.gw_objective_mean)
                for row in result.records} == {(drift, gw_mean)}

    @pytest.mark.parametrize("kw", [{}, dict(num_clients=1), dict(embed_dim=6),
                                    dict(num_clients=5, partition_mode="overlapping")])
    def test_every_client_starts_with_the_identity_rotation(self, kw):
        cfg = tiny_config(**kw)
        clients = setup_federation(cfg)[0]
        assert len(clients) == cfg.num_clients
        for state in clients:
            assert state.rotation.tobytes() == np.eye(cfg.embed_dim).tobytes()

    def test_client_state_needs_a_rotation(self):
        g = Graph.from_edges(np.zeros((2, 1)), [0, 1], [])
        with pytest.raises(TypeError, match="rotation"):
            ClientState(0, g, HopAggregator(g), init_params(1, 2, 2, 0))

    def test_client_state_has_no_peer_accessor(self):
        fields = {f.name for f in dataclasses.fields(ClientState)}
        assert fields == {"client_id", "graph", "agg", "params", "rotation"}


class TestPools:
    def test_smoke_run_builds_each_pool_once_per_round(self, monkeypatch, tmp_path):
        import fedcal.fedsim as fedsim_mod
        from fedcal import cli

        calls = []
        for name in ("semantic_pool", "structural_pool"):
            def counted(uploads, name=name, pool=getattr(fedsim_mod, name)):
                calls.append(name)
                return pool(uploads)

            monkeypatch.setattr(fedsim_mod, name, counted)
        smoke = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs", "smoke.cfg")
        assert cli.main(["run", "--config", smoke, "--out", str(tmp_path / "run")]) == 0
        rounds = cli.build_run_config(cli.parse_config_file(smoke))["federation.rounds"]
        assert calls == ["semantic_pool", "structural_pool"] * rounds

    def test_pools_stack_the_uploads_in_client_order(self):
        cfg = tiny_config(rounds=1)
        clients, anchors, templates, _ = setup_federation(cfg)
        uploads = [run_client_round(c, anchors, templates, cfg, 0).upload for c in clients]
        sems = [sem for sem, _ in uploads]
        k, present, losses = semantic_pool(sems)
        r, (d, c) = len(clients), anchors.shape
        assert (k.shape, present.shape, losses.shape) == ((r, d, c), (r, c), (r, c))
        for i, (k_i, present_i, losses_i) in enumerate(sems):
            assert k[i].tobytes() == k_i.tobytes()
            assert np.array_equal(present[i], present_i)
            assert losses[i].tobytes() == losses_i.tobytes()

        strs = [stru for _, stru in uploads]
        f, alphas, rows = structural_pool(strs)
        n = sum(len(radials) for radials, _ in strs)
        assert (f.shape, alphas.shape, rows.shape) == ((n, cfg.num_templates), (n,),
                                                       (n, 2, cfg.embed_dim))
        assert f.tobytes() == np.concatenate([f_i for _, f_i in strs]).tobytes()
        assert rows.tobytes() == np.concatenate([radials for radials, _ in strs]).tobytes()
        assert alphas.tolist() == [float(np.linalg.norm(p[0] - p[1])) for p in rows]

    def test_empty_semantic_pool_rejected(self):
        with pytest.raises(ValueError, match="need at least one semantic upload"):
            semantic_pool([])


class TestEvaluate:
    def _client_with_logit_control(self, labels, mask_name="val"):
        n = len(labels)
        g = Graph.from_edges(np.eye(n, 3), labels, [])
        code = 2 if mask_name == "val" else 3
        g = dataclasses.replace(g, split=np.full(n, code))
        params = init_params(3, 2, 2, seed=0)
        return ClientState(0, g, HopAggregator(g), params, np.eye(2))

    def test_perfect_classifier(self):
        labels = np.array([0, 1, 0, 1])
        state = self._client_with_logit_control(labels)
        # weights that route feature 0 -> logits via identity blocks
        d = 2
        w_cls = np.zeros((3 * d, 2))
        state.params = ModelParams(
            w_ego=np.array([[10.0, -10.0], [-10.0, 10.0], [0.0, 0.0]]),
            w_cls=w_cls, b_cls=np.zeros(2),
        )
        state.params.w_cls[0, 0] = 1.0
        state.params.w_cls[1, 1] = 1.0
        g = state.graph
        feats = np.zeros((4, 3))
        for i, y in enumerate(labels):
            feats[i, y] = 1.0
        state.graph = dataclasses.replace(g, features=feats)
        assert evaluate(state, "val", "accuracy") == 1.0
        assert evaluate(state, "val", "auc") == 1.0

    def test_constant_logits_auc_half(self):
        labels = np.array([0, 1, 0, 1, 1])
        state = self._client_with_logit_control(labels)
        state.params = ModelParams(
            w_ego=np.zeros((3, 2)), w_cls=np.zeros((6, 2)), b_cls=np.zeros(2)
        )
        assert evaluate(state, "val", "auc") == 0.5

    def test_auc_matches_hand_mann_whitney(self):
        # scores 0.1, 0.6 for negatives; 0.5, 0.9 for positives -> 3/4 pairs won
        from fedcal.fedsim import _metric_from_logits

        labels = np.array([0, 0, 1, 1])
        p1 = np.array([0.1, 0.6, 0.5, 0.9])
        logits = np.stack([np.log(1 - p1), np.log(p1)], axis=1)
        g = Graph.from_edges(np.zeros((4, 1)), labels, [])
        g = dataclasses.replace(g, split=np.full(4, 2))
        assert abs(_metric_from_logits(logits, g, "val", "auc") - 0.75) <= 1e-12

    def test_empty_split_raises(self):
        labels = np.array([0, 1])
        g = Graph.from_edges(np.zeros((2, 1)), labels, [])
        state = ClientState(0, g, HopAggregator(g), init_params(1, 2, 2, 0), np.eye(2))
        with pytest.raises(RuntimeError, match="empty"):
            evaluate(state, "test", "accuracy")

    def test_single_class_auc_raises(self):
        labels = np.array([1, 1, 1])
        g = Graph.from_edges(np.zeros((3, 1)), labels, [])
        g = dataclasses.replace(g, split=np.full(3, 2))
        state = ClientState(0, g, HopAggregator(g), init_params(1, 2, 2, 0), np.eye(2))
        with pytest.raises(RuntimeError, match="single class"):
            evaluate(state, "val", "auc")

    def test_bad_split_name(self):
        labels = np.array([0, 1])
        g = Graph.from_edges(np.zeros((2, 1)), labels, [])
        state = ClientState(0, g, HopAggregator(g), init_params(1, 2, 2, 0), np.eye(2))
        with pytest.raises(ValueError):
            evaluate(state, "train", "accuracy")

    def test_unknown_metric_name(self):
        labels = np.array([0, 1])
        g = Graph.from_edges(np.zeros((2, 1)), labels, [])
        g = dataclasses.replace(g, split=np.full(2, 3))
        state = ClientState(0, g, HopAggregator(g), init_params(1, 2, 2, 0), np.eye(2))
        with pytest.raises(ValueError, match="^unknown metric 'bogus'$"):
            evaluate(state, "test", metric="bogus")

    def test_unknown_metric_name_fails_before_any_forward(self, monkeypatch):
        # the test split is empty, so a forward would end in another error
        labels = np.array([0, 1])
        g = Graph.from_edges(np.zeros((2, 1)), labels, [])
        state = ClientState(0, g, HopAggregator(g), init_params(1, 2, 2, 0), np.eye(2))
        calls = []

        def counted(*args):
            calls.append(args)
            return forward(*args)

        monkeypatch.setattr(fedsim, "forward", counted)
        with pytest.raises(ValueError, match="^unknown metric 'bogus'$"):
            evaluate(state, "test", metric="bogus")
        assert calls == []

    def test_auc_on_three_classes_raises(self):
        labels = np.array([0, 1, 2])
        g = Graph.from_edges(np.zeros((3, 1)), labels, [])
        g = dataclasses.replace(g, split=np.full(3, 2))
        state = ClientState(0, g, HopAggregator(g), init_params(1, 3, 3, 0), np.eye(3))
        with pytest.raises(RuntimeError, match="^auc needs a binary task$"):
            evaluate(state, "val", "auc")


class TestAucPairCounts:
    """AUC against a brute-force loop over every (positive, negative) pair."""

    @staticmethod
    def pair_loop_auc(p1, labels):
        pos, neg = p1[labels == 1], p1[labels == 0]
        won = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
        return won / (len(pos) * len(neg))

    @staticmethod
    def auc(p1, labels):
        from fedcal.fedsim import _metric_from_logits

        with np.errstate(divide="ignore"):
            logits = np.stack([np.log1p(-p1), np.log(p1)], axis=1)
        g = Graph.from_edges(np.zeros((len(p1), 1)), labels, [])
        g = dataclasses.replace(g, split=np.full(len(p1), 2))
        return _metric_from_logits(logits, g, "val", "auc")

    def test_tied_probabilities_equal_the_pair_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            labels = rng.permutation(np.r_[0, 1, rng.integers(0, 2, size=n - 2)])
            # a few distinct levels, so most pairs tie; 1.0 is a saturated p1
            p1 = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            assert self.auc(p1, labels) == self.pair_loop_auc(p1, labels)

    def test_nan_probability_gives_nan(self):
        labels = np.array([0, 1, 0, 1])
        with np.errstate(invalid="ignore"):
            assert np.isnan(self.auc(np.array([0.2, np.nan, 0.1, 0.7]), labels))


class TestExports:
    def test_empty_history_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        export_history([], path)
        text = path.read_text()
        assert text.count("\n") == 1
        assert text.startswith("round,client_id,ce_loss")
        assert import_history(path) == []

    @pytest.mark.parametrize("kw", [{}, dict(structural_enabled=False)],
                             ids=["threads-1", "ablate-structural"])
    def test_row_count_and_round_trip(self, tmp_path, kw):
        cfg = tiny_config(rounds=3, **kw)
        records = run_federation(cfg).records
        path = tmp_path / "h.csv"
        export_history(records, path)
        rows = import_history(path)
        assert len(rows) == 3 * cfg.num_clients
        assert rows == records
        if not cfg.structural_enabled:
            assert all(row.gw_objective_mean == 0.0 for row in rows)
        # exporting the re-import compares byte-identical
        path2 = tmp_path / "h2.csv"
        export_history(rows, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_import_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError):
            import_history(path)

    def test_import_names_path_and_line_of_a_bad_field(self, tmp_path):
        path = tmp_path / "h.csv"
        export_history(run_federation(tiny_config(rounds=1)).records, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(",", ",x", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: ")):
            import_history(path)

    def test_export_embeddings_schema(self, tmp_path):
        cfg = tiny_config(rounds=1)
        result = run_federation(cfg)
        path = tmp_path / "emb.csv"
        export_embeddings(result.clients[0], path)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["node_id", "label"]
        assert len(header) == 2 + cfg.embed_dim
        assert len(lines) == 1 + result.clients[0].graph.num_nodes

    def test_history_row_is_flat(self):
        row = HistoryRow(0, 1, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
        assert dataclasses.astuple(row) == (0, 1, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


class TestDataset:
    def test_build_synthetic_has_masks(self):
        g = build_dataset(tiny_config())
        assert g.train_mask.sum() > 0
        assert g.val_mask.sum() > 0

    def test_partition_modes(self):
        cfg = tiny_config(num_clients=5, partition_mode="overlapping")
        clients, _, _, root = setup_federation(cfg)
        assert len(clients) == 5
        for c in clients:
            assert c.graph.num_nodes == -(-root.num_nodes // 2)

    def test_file_dataset_round_trip(self, tmp_path):
        from fedcal.graph import save_graph_files

        g = build_dataset(tiny_config())
        paths = [str(tmp_path / p) for p in ("e.txt", "x.txt", "y.txt")]
        save_graph_files(g, *paths)
        cfg = tiny_config(
            dataset_kind="files", edges_path=paths[0], features_path=paths[1],
            labels_path=paths[2],
        )
        g2 = build_dataset(cfg)
        assert g2.num_nodes == g.num_nodes
        assert np.array_equal(g2.labels, g.labels)


class TestSampling:
    def test_full_batch_covers_all_nodes(self):
        g = star_graph(9)
        batch = sample_structural_batch(g, 10, seed=0)
        assert sorted(batch.tolist()) == list(range(10))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="^batch_size must be >= 1$"):
            sample_structural_batch(star_graph(4), 0, seed=0)

    def test_oversized_batch_clamped(self):
        g = star_graph(4)
        batch = sample_structural_batch(g, 100, seed=0)
        assert sorted(batch.tolist()) == list(range(5))

    def test_deterministic(self):
        g = star_graph(20)
        assert np.array_equal(
            sample_structural_batch(g, 7, seed=5),
            sample_structural_batch(g, 7, seed=5),
        )

    def test_inclusion_frequency(self):
        g = generate_sbm(600, 2, 0.01, 0.01, 2, 1.0, seed=0)
        hits = np.zeros(600)
        for seed in range(50):
            hits[sample_structural_batch(g, 100, seed=seed)] += 1
        freq = hits / 50
        assert abs(freq.mean() - 1 / 6) <= 1e-9
        assert np.abs(freq - 1 / 6).max() <= 0.05 + 1 / 6
