import json
import operator
import os
import subprocess
import sys

import numpy as np
import pytest

from fedcal.cli import (
    _CONFIG_SCHEMA,
    build_run_config,
    load_params,
    main,
    parse_config_file,
    save_params,
    write_resolved_config,
)
from fedcal import cli, fedsim
from fedcal.model import init_params
from fedcal.structural import sinkhorn_match

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE = """
# smoke-test configuration
federation.clients = 3
federation.rounds = 2
federation.local_epochs = 2
federation.embed_dim = 4
federation.classes = 2
federation.batch_nodes = 16
federation.templates = 2
federation.seed = 11
dataset.kind = synthetic
dataset.nodes = 90
dataset.p_in = 0.1
dataset.p_out = 0.03
dataset.feat_dim = 5
dataset.feat_sep = 1.2
"""


@pytest.fixture
def smoke_cfg(tmp_path):
    path = tmp_path / "smoke.cfg"
    path.write_text(SMOKE)
    return str(path)


class TestConfigParsing:
    def test_defaults_filled(self, smoke_cfg):
        cfg = build_run_config(parse_config_file(smoke_cfg))
        assert cfg["federation.clients"] == 3
        assert cfg["train.lr0"] == 0.05
        assert cfg["output.dir"] == "out"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("federation.clientz = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("federation.seed = 1\nfederation.seed = 2\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("federation.clients = three\n")
        with pytest.raises(ValueError, match="federation.clients"):
            build_run_config(parse_config_file(path))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            parse_config_file("/nonexistent/c.cfg")

    def test_readme_table_lists_exactly_the_schema_keys(self):
        text = open(os.path.join(REPO, "README.md"), encoding="utf-8").read()
        table = text.split("| key | default | meaning |\n|---|---|---|\n")[1].split("\n\n")[0]
        keys, defaults = [], []
        for row in table.splitlines():
            # "`a.b` / `.c`" is shorthand for the keys a.b and a.c
            cells = row.split("|")
            names = cells[1].strip().split(" / ")
            section = names[0].strip("`").split(".")[0]
            keys += [section + name.strip("`") if name.startswith("`.") else name.strip("`")
                     for name in names]
            # their defaults read "x/y" in the same order, or one entry for all of them
            texts = cells[2].strip().split("/")
            defaults += texts if len(texts) == len(names) else texts * len(names)
        assert len(keys) == len(set(keys))
        assert sorted(keys) == sorted(_CONFIG_SCHEMA)
        for key, text in zip(keys, defaults, strict=True):
            parser, default = _CONFIG_SCHEMA[key]
            assert (None if text == "-" else parser(text)) == default, key

    def test_schema_defaults_are_the_library_defaults(self):
        # dataclass equality compares every field, the nested configs too
        assert build_run_config({}).federation_config() == fedsim.FederationConfig()

    @pytest.mark.parametrize("metric, classes", [("auc", "2"), ("accuracy", "3")])
    def test_each_key_sets_its_own_field(self, tmp_path, metric, classes):
        # every key but output.*, a value distinct from its default and from the
        # other keys' values, and the field path it must land on; auc needs two
        # classes, so each of those two keys is off its default in one case
        rows = [
            ("federation.clients", "10", "num_clients"),
            ("federation.rounds", "7", "rounds"),
            ("federation.local_epochs", "4", "local_epochs"),
            ("federation.embed_dim", "9", "embed_dim"),
            ("federation.classes", classes, "num_classes"),
            ("federation.batch_nodes", "33", "batch_nodes"),
            ("federation.templates", "5", "num_templates"),
            ("federation.seed", "12", "seed"),
            ("federation.metric", metric, "task_metric"),
            ("partition.mode", "overlapping", "partition_mode"),
            ("train.lr0", "0.07", "lr0"),
            ("train.lr_decay_steps", "150", "lr_decay_steps"),
            ("sinkhorn.epsilon", "0.03", "sinkhorn_epsilon"),
            ("sinkhorn.max_iters", "450", "sinkhorn_iters"),
            ("sinkhorn.tol", "1e-07", "sinkhorn_tol"),
            ("refine.tau", "0.8", "refine.tau"),
            ("refine.eta", "0.15", "refine.eta"),
            ("dataset.kind", "files", "dataset.kind"),
            ("dataset.nodes", "700", "dataset.nodes"),
            ("dataset.p_in", "0.12", "dataset.p_in"),
            ("dataset.p_out", "0.02", "dataset.p_out"),
            ("dataset.feat_dim", "11", "dataset.feat_dim"),
            ("dataset.feat_sep", "1.5", "dataset.feat_sep"),
            ("dataset.edges", "e.txt", "dataset.edges_path"),
            ("dataset.features", "x.txt", "dataset.features_path"),
            ("dataset.labels", "y.txt", "dataset.labels_path"),
            ("split.train", "0.3", "dataset.train_ratio"),
            ("split.val", "0.35", "dataset.val_ratio"),
            ("split.test", "0.25", "dataset.test_ratio"),
        ]
        assert sorted(key for key, _, _ in rows) == sorted(
            key for key in _CONFIG_SCHEMA if not key.startswith("output."))
        values = [_CONFIG_SCHEMA[key][0](text) for key, text, _ in rows]
        assert len(set(values)) == len(values)
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{key} = {text}\n" for key, text, _ in rows))
        cfg = build_run_config(parse_config_file(path))
        fed = cfg.federation_config()
        for (key, _, field), value in zip(rows, values):
            assert operator.attrgetter(field)(fed) == value, key
            if key not in ("federation.metric", "federation.classes"):
                assert value != _CONFIG_SCHEMA[key][1], key
        resolved = tmp_path / "config.resolved"
        write_resolved_config(cfg, resolved)
        assert build_run_config(parse_config_file(resolved)).federation_config() == fed


class TestParamsDump:
    def test_round_trip(self, tmp_path):
        params = init_params(5, 3, 2, seed=4)
        path = tmp_path / "p.txt"
        save_params(params, path)
        loaded = load_params(path, params)
        assert np.array_equal(loaded.w_ego, params.w_ego)
        assert np.array_equal(loaded.w_cls, params.w_cls)
        assert np.array_equal(loaded.b_cls, params.b_cls)

    def test_corrupted_dump_rejected(self, tmp_path):
        params = init_params(5, 3, 2, seed=4)
        path = tmp_path / "p.txt"
        save_params(params, path)
        lines = path.read_text().split("\n")
        del lines[3]
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError):
            load_params(path, params)

    @pytest.mark.parametrize("header", ["shape w_ego 5 x", "shape w_ego 0 3",
                                        "shape w_ego -1 3", "shape w_ego 5"])
    def test_malformed_shape_header_names_line(self, tmp_path, header):
        path = tmp_path / "p.txt"
        save_params(init_params(5, 3, 2, seed=4), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "shape w_ego 5 3"
        lines[1] = header
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="p.txt:2: malformed shape header"):
            load_params(path, init_params(5, 3, 2, seed=4))

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError, match="parameter dump"):
            load_params(path, init_params(5, 3, 2, seed=4))


class TestGenData:
    def test_writes_files_and_prints_summary(self, smoke_cfg, tmp_path, capsys):
        out = str(tmp_path / "data")
        assert main(["gen-data", "--config", smoke_cfg, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "nodes=90" in printed and "homophily=" in printed
        for name in ("edges.txt", "features.txt", "labels.txt"):
            assert os.path.exists(os.path.join(out, name))

    def test_homophilic_preset_direction(self, tmp_path, capsys):
        cfg = tmp_path / "h.cfg"
        cfg.write_text(
            "dataset.kind = synthetic\ndataset.nodes = 300\n"
            "dataset.p_in = 0.1\ndataset.p_out = 0.01\n"
            "dataset.feat_dim = 4\nfederation.classes = 2\n"
        )
        main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
        ratio = float(capsys.readouterr().out.split("homophily=")[1])
        assert ratio > 0.5

    def test_heterophilic_preset_direction(self, tmp_path, capsys):
        cfg = tmp_path / "h.cfg"
        cfg.write_text(
            "dataset.kind = synthetic\ndataset.nodes = 300\n"
            "dataset.p_in = 0.01\ndataset.p_out = 0.1\n"
            "dataset.feat_dim = 4\nfederation.classes = 2\n"
        )
        main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
        ratio = float(capsys.readouterr().out.split("homophily=")[1])
        assert ratio < 0.5

    def test_byte_identical_reruns(self, smoke_cfg, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["gen-data", "--config", smoke_cfg, "--out", out1])
        main(["gen-data", "--config", smoke_cfg, "--out", out2])
        for name in ("edges.txt", "features.txt", "labels.txt"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b

    def test_benchmark_config_reproduces_committed_data(self, tmp_path):
        out = str(tmp_path / "d")
        config = os.path.join(REPO, "configs", "benchmark.cfg")
        assert main(["gen-data", "--config", config, "--out", out]) == 0
        for name in ("edges.txt", "features.txt", "labels.txt"):
            a = open(os.path.join(out, name), "rb").read()
            b = open(os.path.join(REPO, "data", "bench-demo", name), "rb").read()
            assert a == b, name


class TestRunCommand:
    def test_smoke_run_artifacts(self, smoke_cfg, tmp_path):
        out = str(tmp_path / "run")
        assert main(["run", "--config", smoke_cfg, "--out", out]) == 0
        history = open(os.path.join(out, "history.csv")).read().strip().split("\n")
        assert len(history) == 1 + 2 * 3  # header + rounds*clients
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["clients"] == 3 and summary["rounds"] == 2
        for c in range(3):
            assert os.path.exists(os.path.join(out, "models", f"client_{c}.txt"))

    def test_missing_dataset_file_is_config_error(self, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text(
            "dataset.kind = files\ndataset.edges = /nope/e.txt\n"
            "dataset.features = /nope/x.txt\ndataset.labels = /nope/y.txt\n"
            "federation.rounds = 1\n"
        )
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("line, setting", [
        ("sinkhorn.max_iters = 0", "sinkhorn.max_iters"),
        ("sinkhorn.tol = -1", "sinkhorn.tol"),
        ("sinkhorn.epsilon = 0", "sinkhorn.epsilon"),
        ("train.lr0 = -1", "lr0"),
        ("train.lr0 = inf", "lr0"),
        ("train.lr_decay_steps = 0", "lr_decay_steps"),
        ("split.train = -0.1", "split"),
        ("split.val = 0.9", "split"),
        ("dataset.nodes = 0", "dataset.nodes"),
        ("dataset.feat_dim = 0", "dataset.feat_dim"),
        ("dataset.p_in = 1.5", "dataset.p_in"),
        ("dataset.p_out = -0.01", "dataset.p_out"),
        ("dataset.p_in = nan", "dataset.p_in"),
        ("dataset.p_out = nan", "dataset.p_out"),
        ("dataset.feat_sep = -1", "dataset.feat_sep"),
        ("dataset.feat_sep = nan", "dataset.feat_sep"),
        ("dataset.feat_sep = inf", "dataset.feat_sep"),
        ("split.val = 0", "split"),
        ("split.val = nan", "split"),
        ("refine.tau = nan", "refine.tau"),
        ("refine.eta = nan", "refine.eta"),
        ("refine.eps = nan", "refine.eps"),
        ("refine.gw_iters = 50", "refine.gw_iters"),
        ("refine.gw_lr = 2", "refine.gw_lr"),
        ("federation.metric = auc\nfederation.classes = 3", "federation.metric"),
        ("federation.classes = 1", "federation.classes"),
        ("partition.mode = overlapping\nfederation.clients = 7", "federation.clients"),
        ("dataset.nodes = 2", "dataset.nodes"),
        ("sinkhorn.epsilon = 1e-320", "sinkhorn.epsilon"),
        ("federation.rounds = -1", "federation.rounds"),
        ("federation.local_epochs = 0", "federation.local_epochs"),
        ("federation.embed_dim = 1", "federation.embed_dim"),
        ("federation.clients = 0", "federation.clients"),
        ("federation.batch_nodes = 0", "federation.batch_nodes"),
        ("federation.templates = 0", "federation.templates"),
        ("federation.metric = f1", "federation.metric"),
        ("partition.mode = bogus", "partition.mode"),
        ("dataset.kind = bogus", "dataset.kind"),
        ("federation.seed = -1", "federation.seed"),
        ("--seed -1", "federation.seed"),
    ])
    def test_out_of_range_setting_fails_before_work(self, tmp_path, capsys, monkeypatch,
                                                    line, setting):
        def no_work(cfg):
            raise AssertionError("the dataset was built before the config was rejected")

        monkeypatch.setattr(fedsim, "build_dataset", no_work)
        cfg = tmp_path / "bad.cfg"
        # a row starting "--" is command-line flags, any other is config lines
        flags = line.split() if line.startswith("--") else []
        entries = [] if flags else line.splitlines()
        # a row's keys replace SMOKE's own, so a row may also change a key SMOKE sets
        keys = {entry.split("=")[0].strip() for entry in entries}
        base = [entry for entry in SMOKE.splitlines() if entry.split("=")[0].strip() not in keys]
        cfg.write_text("\n".join(base + entries) + "\n")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)] + flags) == 2
        # the error names the full key the row sets (train.lr0, split.val), not a field
        key = next((k for k in keys if setting in k), setting)
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, split", [
        ("dataset.nodes = 6", "test"),
        ("dataset.nodes = 9", "train"),
        ("dataset.nodes = 12", "train"),
        ("federation.metric = auc\ndataset.nodes = 15", "val"),
        ("federation.metric = auc\ndataset.nodes = 30", "val"),
    ])
    def test_unusable_client_split_fails_at_setup(self, tmp_path, capsys, line, split):
        keys = {entry.split("=")[0].strip() for entry in line.splitlines()}
        base = [entry for entry in open(os.path.join(REPO, "configs", "smoke.cfg"))
                .read().splitlines() if entry.split("=")[0].strip() not in keys]
        cfg = tmp_path / "small.cfg"
        cfg.write_text("\n".join(base) + "\n" + line + "\n")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"'s {split} split holds" in err and "client " in err
        assert "dataset.nodes" in err
        assert not out.exists()

    def test_dataset_setting_fails_gen_data_before_work(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE + "dataset.p_out = 2\n")
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert "dataset.p_out" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    @pytest.mark.parametrize("via, below", [
        ("--out", "out"),
        ("--out", ""),
        ("output.dir", "deeper/out"),
    ])
    def test_unusable_output_dir_fails_before_work(self, smoke_cfg, tmp_path, capsys,
                                                   monkeypatch, command, via, below):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output directory was rejected")

        monkeypatch.setattr(cli, "run_federation", no_work)
        monkeypatch.setattr(cli, "build_dataset", no_work)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        out = os.path.join(blocker, below) if below else str(blocker)
        cfg = smoke_cfg
        flags = ["--out", out]
        if via == "output.dir":
            cfg = tmp_path / "out.cfg"
            cfg.write_text(SMOKE + f"output.dir = {out}\n")
            flags = []
        assert main([command, "--config", str(cfg)] + flags) == 2
        err = capsys.readouterr().err
        assert f"{via} = {out}" in err and "not a writable directory" in err
        assert blocker.read_text() == "a regular file\n"

    @pytest.mark.parametrize("extra, ablate, count", [
        ("", [], "0/6"),
        ("sinkhorn.max_iters = 30\n", [], "3/6"),
        ("sinkhorn.max_iters = 1\nsinkhorn.tol = 1e-14\n", [], "6/6"),
        ("sinkhorn.max_iters = 30\n", ["--ablate", "structural"], "0/0"),
    ])
    def test_final_line_counts_unconverged_sinkhorn(self, tmp_path, capsys, monkeypatch,
                                                   extra, ablate, count):
        flags = []

        def tallied(*args, **kwargs):
            match = sinkhorn_match(*args, **kwargs)
            flags.append(match.converged)
            return match

        monkeypatch.setattr(fedsim, "sinkhorn_match", tallied)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMOKE + extra)
        out = str(tmp_path / "run")
        assert main(["run", "--config", str(cfg), "--out", out] + ablate) == 0
        last = capsys.readouterr().out.strip().split("\n")[-1]
        assert count == f"{flags.count(False)}/{len(flags)}"
        assert f"sinkhorn unconverged {count} -> " in last
        for name in ("history.csv", "summary.json"):
            assert "unconverged" not in open(os.path.join(out, name)).read()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_fails_before_work(self, smoke_cfg, tmp_path, capsys,
                                                  threads):
        out = tmp_path / "run"
        code = main(["run", "--config", smoke_cfg, "--threads", threads, "--out", str(out)])
        assert code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_recorded(self, smoke_cfg, tmp_path):
        out = str(tmp_path / "run")
        main(["run", "--config", smoke_cfg, "--seed", "123", "--out", out])
        resolved = open(os.path.join(out, "config.resolved")).read()
        assert "federation.seed = 123" in resolved

    def test_ablate_flag(self, smoke_cfg, tmp_path):
        out = str(tmp_path / "run")
        assert main([
            "run", "--config", smoke_cfg, "--out", out,
            "--ablate", "semantic", "--ablate", "structural",
        ]) == 0
        rows = open(os.path.join(out, "history.csv")).read().strip().split("\n")[1:]
        for row in rows:
            parts = row.split(",")
            assert float(parts[3]) == 0.0  # sem_loss
            assert float(parts[4]) == 0.0  # str_loss

    def test_embeddings_export(self, tmp_path):
        cfg = tmp_path / "emb.cfg"
        cfg.write_text(open(os.path.join(REPO, "configs", "smoke.cfg")).read()
                       + "output.embeddings = true\n")
        outs = [tmp_path / f"t{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), outs):
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--threads", str(threads)]) == 0
        for c, nodes in enumerate((32, 34, 24)):
            name = f"embeddings_{c}.csv"
            lines = (outs[0] / name).read_text().splitlines()
            assert lines[0] == "node_id,label,e_0,e_1,e_2,e_3"
            assert len(lines) == 1 + nodes
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert sorted(p.name for p in outs[0].glob("embeddings_*")) == [
            f"embeddings_{c}.csv" for c in range(3)]

    def test_threads_do_not_change_bytes(self, smoke_cfg, tmp_path):
        out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t4")
        main(["run", "--config", smoke_cfg, "--out", out1, "--threads", "1"])
        main(["run", "--config", smoke_cfg, "--out", out2, "--threads", "4"])
        a = open(os.path.join(out1, "history.csv"), "rb").read()
        b = open(os.path.join(out2, "history.csv"), "rb").read()
        assert a == b


class TestEvalCommand:
    def test_eval_matches_run_metrics(self, smoke_cfg, tmp_path, capsys):
        out = str(tmp_path / "run")
        main(["run", "--config", smoke_cfg, "--out", out])
        run_summary = json.load(open(os.path.join(out, "summary.json")))
        capsys.readouterr()
        assert main(["eval", "--model-dir", out, "--split", "test"]) == 0
        printed = capsys.readouterr().out
        mean_line = [ln for ln in printed.splitlines() if ln.startswith("mean")][0]
        assert abs(float(mean_line.split(":")[1]) - run_summary["mean_test"]) <= 1e-6

    def test_eval_other_split(self, smoke_cfg, tmp_path, capsys):
        out = str(tmp_path / "run")
        main(["run", "--config", smoke_cfg, "--out", out])
        run_summary = json.load(open(os.path.join(out, "summary.json")))
        capsys.readouterr()
        assert main(["eval", "--model-dir", out, "--split", "val"]) == 0
        printed = capsys.readouterr().out
        mean_line = [ln for ln in printed.splitlines() if ln.startswith("mean")][0]
        assert abs(float(mean_line.split(":")[1]) - run_summary["mean_val"]) <= 1e-6

    def test_config_with_retired_keys_at_defaults_loads(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--config", smoke_cfg, "--out", str(out)]) == 0
        run_summary = json.load(open(out / "summary.json"))
        # the config.resolved format written while these keys were live
        resolved = out / "config.resolved"
        lines = resolved.read_text().splitlines()
        lines += ["refine.eps = 1e-08", "refine.gw_iters = 200", "refine.gw_lr = 1.0"]
        resolved.write_text("\n".join(sorted(lines)) + "\n")
        capsys.readouterr()
        assert main(["eval", "--model-dir", str(out)]) == 0
        expected = [f"client {c} test accuracy: {value:.6f}"
                    for c, value in enumerate(run_summary["per_client_test"])]
        expected.append(f"mean test accuracy: {run_summary['mean_test']:.6f}")
        assert capsys.readouterr().out.splitlines() == expected

    def test_corrupted_dump_fails_cleanly(self, smoke_cfg, tmp_path):
        out = str(tmp_path / "run")
        main(["run", "--config", smoke_cfg, "--out", out])
        dump = os.path.join(out, "models", "client_1.txt")
        lines = open(dump).read().split("\n")
        open(dump, "w").write("\n".join(lines[:3]))
        assert main(["eval", "--model-dir", out]) == 2

    def test_missing_model_dir(self, smoke_cfg, tmp_path):
        out = str(tmp_path / "run")
        main(["run", "--config", smoke_cfg, "--out", out])
        os.remove(os.path.join(out, "models", "client_0.txt"))
        assert main(["eval", "--model-dir", out]) == 2


class TestReportCommand:
    def test_aggregates_final_round(self, smoke_cfg, tmp_path, capsys):
        outs = []
        for seed in ("1", "2"):
            out = str(tmp_path / f"r{seed}")
            main(["run", "--config", smoke_cfg, "--seed", seed, "--out", out])
            outs.append(os.path.join(out, "history.csv"))
        capsys.readouterr()
        assert main(["report", *outs]) == 0
        printed = capsys.readouterr().out
        assert "aggregate" in printed
        assert printed.count("\n") == 4  # header + 2 rows + aggregate

    def test_report_to_file(self, smoke_cfg, tmp_path):
        out = str(tmp_path / "run")
        main(["run", "--config", smoke_cfg, "--out", out])
        table = str(tmp_path / "table.txt")
        main(["report", os.path.join(out, "history.csv"), "--out", table])
        assert "final_test_mean" in open(table).read()

    @pytest.mark.parametrize("parent", ["regular file", "missing directory"])
    def test_unusable_out_parent_fails_before_reading(self, tmp_path, capsys, monkeypatch,
                                                      parent):
        def no_read(path):
            raise AssertionError("a history was read before --out was rejected")

        monkeypatch.setattr(cli, "import_history", no_read)
        blocker = tmp_path / "blocker"
        if parent == "regular file":
            blocker.write_text("a regular file\n")
        out = str(blocker / "table.txt")
        assert main(["report", str(tmp_path / "history.csv"), "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"--out = {out}: {blocker} is not a writable directory" in err
        assert sorted(os.listdir(tmp_path)) == (["blocker"] if parent == "regular file"
                                                else [])

    def test_out_directory_fails_before_reading(self, tmp_path, capsys, monkeypatch):
        def no_read(path):
            raise AssertionError("a history was read before --out was rejected")

        monkeypatch.setattr(cli, "import_history", no_read)
        out = str(tmp_path)
        assert main(["report", str(tmp_path / "history.csv"), "--out", out]) == 2
        assert f"--out = {out}: is a directory, not a file" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestMalformedInputs:
    """A damaged history or model dump exits 2 naming path:line; a header-only
    history is still valid."""

    def test_empty_history(self, tmp_path, capsys):
        path = tmp_path / "history.csv"
        path.write_text("")
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: " in err and "Traceback" not in err

    def test_history_row_cut_after_four_fields(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--config", smoke_cfg, "--out", str(out)])
        path = out / "history.csv"
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:4])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:3: " in err and "Traceback" not in err

    def test_model_dump_with_bad_float(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--config", smoke_cfg, "--out", str(out)])
        dump = out / "models" / "client_1.txt"
        lines = dump.read_text().splitlines()
        assert lines[1].startswith("shape w_ego")
        lines[2] = lines[2].replace(" ", "x ", 1)
        dump.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--model-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{dump}:3: " in err and "Traceback" not in err

    def test_model_dump_with_wide_bias(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--config", smoke_cfg, "--out", str(out)])
        dump = out / "models" / "client_0.txt"
        text = dump.read_text()
        head, bias = text.rstrip("\n").rsplit("\n", 1)
        assert head.endswith("shape b_cls 1 2")
        dump.write_text(head[:-1] + "3\n" + bias + " 0.5\n")
        capsys.readouterr()
        assert main(["eval", "--model-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{dump}:21: " in err and "Traceback" not in err

    # each layout save_params never writes, with the line that must be named;
    # the smoke dump is the magic line, w_ego on lines 2-7, w_cls on 8-20
    # and b_cls on 21-22
    @pytest.mark.parametrize("misload", ["second w_ego after b_cls", "extra bogus block",
                                         "two-row b_cls", "reversed blocks"])
    def test_model_dump_in_another_layout(self, smoke_cfg, tmp_path, capsys, misload):
        out = tmp_path / "run"
        main(["run", "--config", smoke_cfg, "--out", str(out)])
        dump = out / "models" / "client_0.txt"
        lines = dump.read_text().splitlines()
        assert (lines[1], lines[7], lines[20], len(lines)) == (
            "shape w_ego 5 4", "shape w_cls 12 2", "shape b_cls 1 2", 22)
        w_ego, w_cls, b_cls = lines[1:7], lines[7:20], lines[20:]
        if misload == "second w_ego after b_cls":
            lines, line = lines + w_ego, 23
        elif misload == "extra bogus block":
            lines, line = lines + ["shape bogus 1 1", "0.0"], 23
        elif misload == "two-row b_cls":
            lines, line = lines[:20] + ["shape b_cls 2 2", lines[21], "9.0 9.0"], 21
        else:
            lines, line = lines[:1] + b_cls + w_cls + w_ego, 2
        dump.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--model-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{dump}:{line}: " in err and "Traceback" not in err

    def test_header_only_history_reports_na(self, tmp_path, capsys):
        path = tmp_path / "history.csv"
        fedsim.export_history([], path)
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[1:] == ["n/a", "n/a"]


class TestImportFootprint:
    # each of these costs megabytes and tenths of a second per process
    HEAVY = ("scipy.stats", "scipy.special", "scipy.linalg", "scipy.optimize",
             "scipy.sparse.csgraph", "scipy.sparse.linalg")

    def test_imports_only_numpy_and_scipy_sparse(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        code = "import sys, fedcal, fedcal.cli; print(*sorted(sys.modules))"
        loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout.split()
        assert "fedcal.cli" in loaded and "scipy.sparse" in loaded
        heavy = [m for m in loaded if any(m == h or m.startswith(h + ".")
                                          for h in self.HEAVY)]
        assert heavy == []


class TestIdempotence:
    def test_smoke_config_reproduces_committed_run(self, tmp_path):
        out = str(tmp_path / "run")
        config = os.path.join(REPO, "configs", "smoke.cfg")
        assert main(["run", "--config", config, "--out", out]) == 0
        names = ["history.csv", "summary.json", "config.resolved"]
        names += [os.path.join("models", f"client_{c}.txt") for c in range(3)]
        for name in names:
            a = open(os.path.join(out, name), "rb").read()
            b = open(os.path.join(REPO, "runs", "smoke-demo", name), "rb").read()
            assert a == b, name

    def test_run_byte_identical_given_seed(self, smoke_cfg, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["run", "--config", smoke_cfg, "--out", out1])
        main(["run", "--config", smoke_cfg, "--out", out2])
        for name in ("history.csv", "summary.json", "config.resolved"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b
        for c in range(3):
            a = open(os.path.join(out1, "models", f"client_{c}.txt"), "rb").read()
            b = open(os.path.join(out2, "models", f"client_{c}.txt"), "rb").read()
            assert a == b
