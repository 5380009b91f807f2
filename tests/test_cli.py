import codecs
import dataclasses
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

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
from fedcal.graph import load_graph
from fedcal.model import init_params
from fedcal.refine import refine_all_anchors
from fedcal.structural import sinkhorn_match

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# configs/smoke.cfg without its output.dir line, so a test gives its own
SMOKE = "".join(line for line in Path(REPO, "configs", "smoke.cfg")
                .read_text(encoding="utf-8").splitlines(keepends=True)
                if not line.startswith("output.dir"))

# the generator's keys, which dataset.kind = files rejects
GENERATOR_KEYS = [f.metadata["key"] for f in fedsim.kind_fields("synthetic")]
# SMOKE under dataset.kind = files, its generator lines dropped
SMOKE_FILES = "".join(
    line + "\n" for line in SMOKE.replace("dataset.kind = synthetic", "dataset.kind = files")
    .splitlines() if line.split("=")[0].strip() not in GENERATOR_KEYS)


@pytest.fixture
def smoke_cfg(tmp_path):
    path = tmp_path / "smoke.cfg"
    path.write_text(SMOKE)
    return str(path)


# every config committed with the project, relative to its root
COMMITTED_CONFIGS = sorted(
    os.path.relpath(str(path), REPO)
    for folder in ("configs", os.path.join("perfbench", "workloads"))
    for path in Path(REPO, folder).glob("*.cfg"))


class TestConfigParsing:
    def test_committed_configs_found(self):
        assert "configs/heterophilic.cfg" in COMMITTED_CONFIGS
        assert "perfbench/workloads/large-graph.cfg" in COMMITTED_CONFIGS

    @pytest.mark.parametrize("path", COMMITTED_CONFIGS)
    def test_committed_config_builds_a_federation_config(self, path):
        # a renamed or retired key would otherwise surface only when the config runs
        cfg = build_run_config(parse_config_file(os.path.join(REPO, path)))
        assert isinstance(cfg.federation_config(), fedsim.FederationConfig)

    def test_perfbench_homophilic_workload_is_the_benchmark_config(self):
        # perfbench pins the counts of the run the acceptance suite checks
        workload, bench = (build_run_config(parse_config_file(os.path.join(REPO, path)))
                           for path in ("perfbench/workloads/homophilic.cfg",
                                        "configs/benchmark.cfg"))
        assert workload.values == bench.values

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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # the mark sits right before the first key
        text = SMOKE.split("\n", 1)[1].encode()
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        assert parse_config_file(marked) == parse_config_file(plain)
        assert "federation.clients" in parse_config_file(marked)

    def test_byte_order_mark_keeps_bad_byte_position(self, tmp_path):
        path = tmp_path / "marked.cfg"
        path.write_bytes(codecs.BOM_UTF8 + b"federation.seed = 1\n\xfffederation.clients = 3\n")
        # the bad byte opens line 2, 3 + 20 bytes into the file
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: not UTF-8 text (")
                           + r".* at byte 23\)$"):
            parse_config_file(path)

    # the keys no committed config sets, each kept for a reason of its own
    UNSET_KEYS = {
        "partition.mode": "the paper's overlapping setting",
        "federation.metric": "the paper's AUC setting",
        "dataset.edges": "the files dataset kind",
        "dataset.features": "the files dataset kind",
        "dataset.labels": "the files dataset kind",
        "output.embeddings": "the embedding export",
    }

    def test_every_key_is_set_by_a_committed_config_or_kept_for_a_reason(self):
        # a key that nothing sets is an option with one value in use
        set_keys = {key for path in COMMITTED_CONFIGS
                    for key in parse_config_file(os.path.join(REPO, path))}
        assert set(_CONFIG_SCHEMA) - set_keys == set(self.UNSET_KEYS)

    def test_readme_table_lists_exactly_the_schema_keys(self):
        text = Path(os.path.join(REPO, "README.md")).read_text(encoding="utf-8")
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

    def test_readme_names_the_fixed_solver_settings(self):
        # the sentence gives each numeric default of the two functions a run
        # calls without settings, each after the function's name
        text = " ".join(Path(os.path.join(REPO, "README.md")).read_text(
            encoding="utf-8").split())
        sentence = text.split("The matching and the anchor refinement run at fixed "
                              "settings: ")[1].split(". ")[0]
        parts = sentence.split("`refine.refine_all_anchors`")
        assert parts[0].startswith("`structural.sinkhorn_match`") and len(parts) == 2
        for function, part in zip((sinkhorn_match, refine_all_anchors), parts):
            named = {name: float(value)
                     for name, value in re.findall(r"`(\w+) = ([^`]+)`", part)}
            assert named == {name: p.default
                             for name, p in inspect.signature(function).parameters.items()
                             if type(p.default) in (int, float)}

    def test_readme_library_example_runs(self, capsys):
        text = Path(os.path.join(REPO, "README.md")).read_text(encoding="utf-8")
        code = text.split("## Library entry points\n\n```python\n")[1].split("```")[0]
        exec(compile(code, "README.md", "exec"), {})
        assert 0.0 <= float(capsys.readouterr().out) <= 1.0

    def test_schema_defaults_are_the_library_defaults(self):
        # dataclass equality compares every field
        assert build_run_config({}).federation_config() == fedsim.FederationConfig()

    @pytest.mark.parametrize("metric, classes, kind", [("auc", "2", "synthetic"),
                                                       ("accuracy", "3", "files")],
                             ids=["auc-2", "accuracy-3"])
    def test_each_key_sets_its_own_field(self, tmp_path, metric, classes, kind):
        # every key but output.*, a value distinct from its default and from the
        # other keys' values, and the field it must land on; auc needs two
        # classes, so each of those two keys is off its default in one case,
        # and dataset.kind in the other. A key that only the other dataset
        # kind reads is left out of the file, and its field is None.
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
            ("dataset.kind", kind, "dataset_kind"),
            ("dataset.nodes", "700", "nodes"),
            ("dataset.p_in", "0.12", "p_in"),
            ("dataset.p_out", "0.02", "p_out"),
            ("dataset.feat_dim", "11", "feat_dim"),
            ("dataset.feat_sep", "1.5", "feat_sep"),
            ("dataset.edges", "e.txt", "edges_path"),
            ("dataset.features", "x.txt", "features_path"),
            ("dataset.labels", "y.txt", "labels_path"),
        ]
        assert sorted(key for key, _, _ in rows) == sorted(
            key for key in _CONFIG_SCHEMA if not key.startswith("output."))
        values = [_CONFIG_SCHEMA[key][0](text) for key, text, _ in rows]
        assert len(set(values)) == len(values)
        other = {f.metadata["key"] for f in fedsim.kind_fields(
            "files" if kind == "synthetic" else "synthetic")}
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{key} = {text}\n" for key, text, _ in rows
                                if key not in other))
        cfg = build_run_config(parse_config_file(path))
        fed = cfg.federation_config()
        for (key, _, field), value in zip(rows, values):
            if key in other:
                assert getattr(fed, field) is None, key
                continue
            assert getattr(fed, field) == value, key
            if key not in ("federation.metric", "federation.classes", "dataset.kind"):
                assert value != _CONFIG_SCHEMA[key][1], key
        resolved = tmp_path / "config.resolved"
        write_resolved_config(cfg, resolved)
        assert build_run_config(parse_config_file(resolved)).federation_config() == fed

    def test_config_is_one_flat_class(self):
        # each field but the ablation flags is set by one key, as in the file
        config_fields = dataclasses.fields(fedsim.FederationConfig)
        assert {f.name for f in config_fields if "key" not in f.metadata} == {
            "semantic_enabled", "structural_enabled", "refine_enabled"}
        assert sorted(f.metadata["key"] for f in config_fields if "key" in f.metadata) == (
            sorted(key for key in _CONFIG_SCHEMA if not key.startswith("output.")))


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
            a = Path(os.path.join(out1, name)).read_bytes()
            b = Path(os.path.join(out2, name)).read_bytes()
            assert a == b

    def test_benchmark_config_reproduces_committed_data(self, tmp_path):
        out = str(tmp_path / "d")
        config = os.path.join(REPO, "configs", "benchmark.cfg")
        assert main(["gen-data", "--config", config, "--out", out]) == 0
        for name in ("edges.txt", "features.txt", "labels.txt"):
            a = Path(os.path.join(out, name)).read_bytes()
            b = Path(os.path.join(REPO, "data", "bench-demo", name)).read_bytes()
            assert a == b, name

    def test_failed_rewrite_leaves_the_first_dataset_whole(self, smoke_cfg, tmp_path,
                                                           capsys, monkeypatch):
        # a full disk on the last file must not leave the first two rewritten
        names = ("edges.txt", "features.txt", "labels.txt")
        out = tmp_path / "data"
        assert main(["gen-data", "--config", smoke_cfg, "--out", str(out)]) == 0
        first = {name: (out / name).read_bytes() for name in names}
        savetxt = np.savetxt

        def disk_full_on_labels(fname, *args, **kwargs):
            if "labels" in os.path.basename(fname):
                raise OSError(28, "No space left on device")
            return savetxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "savetxt", disk_full_on_labels)
        capsys.readouterr()
        code = main(["gen-data", "--config", smoke_cfg, "--seed", "5", "--out", str(out)])
        assert code == 1
        assert "No space left on device" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in names} == first
        assert sorted(os.listdir(out)) == sorted(names)

    @pytest.mark.parametrize("name", ["edges.txt", "features.txt", "labels.txt"])
    def test_directory_at_a_data_file_fails_before_work(self, smoke_cfg, tmp_path,
                                                        capsys, monkeypatch, name):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the data path was rejected")

        monkeypatch.setattr(cli, "build_dataset", no_work)
        out = tmp_path / "data"
        (out / name).mkdir(parents=True)
        assert main(["gen-data", "--config", smoke_cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {out / name}: exists and is not "
                                           f"a regular file\n")
        assert os.listdir(out) == [name]


class TestRunCommand:
    def test_smoke_run_artifacts(self, smoke_cfg, tmp_path):
        out = str(tmp_path / "run")
        assert main(["run", "--config", smoke_cfg, "--out", out]) == 0
        history = Path(os.path.join(out, "history.csv")).read_text().strip().split("\n")
        assert len(history) == 1 + 2 * 3  # header + rounds*clients
        summary = json.loads(Path(os.path.join(out, "summary.json")).read_text())
        assert summary["clients"] == 3 and summary["rounds"] == 2
        for c in range(3):
            assert os.path.exists(os.path.join(out, "models", f"client_{c}.txt"))

    @pytest.mark.parametrize("extra, argv", [("", []), ("", ["--ablate", "structural"]),
                                             ("federation.metric = auc\n", [])],
                             ids=["smoke", "ablate-structural", "auc"])
    def test_summary_metrics_equal_the_last_history_round(self, tmp_path, extra, argv):
        # summary.json's per-client metrics are the last round's history
        # columns, bit for bit: both score the final params on every node
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE + extra)
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)] + argv) == 0
        summary = json.loads((out / "summary.json").read_text())
        rows = fedsim.import_history(str(out / "history.csv"))
        last = [row for row in rows if row.round == summary["rounds"] - 1]
        assert [row.client_id for row in last] == list(range(summary["clients"]))
        for split in ("val", "test"):
            recorded = np.array(summary[f"per_client_{split}"])
            history = np.array([getattr(row, f"{split}_metric") for row in last])
            assert recorded.tobytes() == history.tobytes()
        assert summary["metric"] == ("auc" if extra else "accuracy")

    def test_missing_dataset_file_is_config_error(self, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text(
            "dataset.kind = files\ndataset.edges = /nope/e.txt\n"
            "dataset.features = /nope/x.txt\ndataset.labels = /nope/y.txt\n"
            "federation.rounds = 1\n"
        )
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("key", ["dataset.edges", "dataset.features", "dataset.labels"])
    @pytest.mark.parametrize("fault", ["missing", "directory"])
    def test_unusable_dataset_file_names_its_key(self, tmp_path, capsys, monkeypatch,
                                                 key, fault):
        def no_read(*args, **kwargs):
            raise AssertionError("a dataset file was read before its path was rejected")

        monkeypatch.setattr(fedsim, "load_graph", no_read)
        paths = {}
        for name in ("dataset.edges", "dataset.features", "dataset.labels"):
            paths[name] = tmp_path / name
            paths[name].write_text("")
        bad = tmp_path / "bad"
        if fault == "directory":
            bad.mkdir()
        paths[key] = bad
        cfg = tmp_path / "f.cfg"
        cfg.write_text(SMOKE_FILES
                       + "".join(f"{name} = {path}\n" for name, path in paths.items()))
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{key} = {bad}: no such regular file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, setting", [
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
        ("refine.eps = nan", "refine.eps"),
        ("refine.gw_iters = 50", "refine.gw_iters"),
        ("refine.gw_lr = 2", "refine.gw_lr"),
        ("federation.metric = auc\nfederation.classes = 3", "federation.metric"),
        ("federation.classes = 1", "federation.classes"),
        ("partition.mode = overlapping\nfederation.clients = 7", "federation.clients"),
        ("partition.mode = overlapping\nfederation.clients = 1", "partition.mode"),
        ("dataset.nodes = 2", "dataset.nodes"),
        ("federation.batch_nodes = 1" + "0" * 400, "federation.batch_nodes"),
        ("federation.batch_nodes = 9223372036854775808", "federation.batch_nodes"),
        ("federation.batch_nodes = 100000000000000000000000", "federation.batch_nodes"),
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
        ("dataset.nodes = 100000000000000000000000", "dataset.nodes"),
        ("dataset.feat_dim = 100000000000000000000000", "dataset.feat_dim"),
        ("federation.embed_dim = 100000000000000000000000", "federation.embed_dim"),
        ("federation.templates = 100000000000000000000000", "federation.templates"),
        ("dataset.edges = /nonexistent/edges.txt", "dataset.edges"),
        ("dataset.features = /nonexistent/features.txt", "dataset.features"),
        ("dataset.labels = /nonexistent/labels.txt", "dataset.labels"),
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

    @pytest.mark.parametrize("lines, value", [
        ("train.lr_decay_steps = 1e-320", "train.lr0 = 0.05 and train.lr_decay_steps = 1e-320"),
        ("train.lr0 = 5e-324\ntrain.lr_decay_steps = 1",
         "train.lr0 = 5e-324 and train.lr_decay_steps = 1.0"),
    ], ids=["decay-steps-1e-320", "lr0-5e-324"])
    def test_learning_rate_that_reaches_zero_fails_before_work(self, tmp_path, capsys,
                                                               lines, value):
        # both pass their own rules, but the rate is 0.0 from step 1 on
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE + lines + "\n")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{value} give a learning rate of 0 by step 3" in capsys.readouterr().err
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
        base = [entry for entry in SMOKE.splitlines() if entry.split("=")[0].strip() not in keys]
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

    def test_bad_boolean_fails_before_work(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE + "output.embeddings = maybe\n")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: bad value for output.embeddings: "
                                           "expected a boolean, got 'maybe'\n")
        assert not out.exists()

    def test_gen_data_refuses_a_files_config(self, tmp_path, capsys):
        cfg = tmp_path / "files.cfg"
        cfg.write_text(SMOKE_FILES)
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: gen-data needs dataset.kind = synthetic\n"
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

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    @pytest.mark.parametrize("via", ["--out", "output.dir"])
    def test_empty_output_path_fails_before_work(self, tmp_path, capsys, monkeypatch,
                                                 command, via):
        # an empty path must neither fall back to output.dir nor mean the
        # working directory
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMOKE + ("output.dir =\n" if via == "output.dir" else ""))
        flags = ["--out", ""] if via == "--out" else []
        assert main([command, "--config", str(cfg)] + flags) == 2
        assert capsys.readouterr().err == f"error: {via} is empty, expected a path\n"
        assert os.listdir(tmp_path) == ["c.cfg"]

    @pytest.mark.parametrize("error", [ValueError("anchor norm 1.5 is not 1 within 1e-6"),
                                       RuntimeError("anchors 0 and 1 coincide")],
                             ids=["ValueError", "RuntimeError"])
    def test_server_fault_exits_1_naming_its_round(self, smoke_cfg, tmp_path, capsys,
                                                   monkeypatch, error):
        calls = []

        def failing_second(anchors, *args):
            calls.append(1)
            if len(calls) == 2:
                raise error
            return anchors

        monkeypatch.setattr(fedsim, "refine_all_anchors", failing_second)
        out = tmp_path / "run"
        assert main(["run", "--config", smoke_cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: server failed at round 1: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("settings, ablate, count", [
        ({}, [], "0/6"),
        ({"max_iters": 30}, [], "3/6"),
        ({"max_iters": 1, "tol": 1e-14}, [], "6/6"),
        ({"max_iters": 30}, ["--ablate", "structural"], "0/0"),
    ])
    def test_final_line_counts_unconverged_sinkhorn(self, smoke_cfg, tmp_path, capsys,
                                                   monkeypatch, settings, ablate, count):
        flags, parts = [], []

        def tallied(*args, **kwargs):
            # the round passes none of the solver's settings, so these win
            match = sinkhorn_match(*args, **kwargs, **settings)
            flags.append(match.converged)
            return match

        def recorded(*args, run=fedsim.run_client_round):
            res = run(*args)
            parts.append(res.converged)
            return res

        monkeypatch.setattr(fedsim, "sinkhorn_match", tallied)
        monkeypatch.setattr(fedsim, "run_client_round", recorded)
        out = str(tmp_path / "run")
        assert main(["run", "--config", smoke_cfg, "--out", out] + ablate) == 0
        last = capsys.readouterr().out.strip().split("\n")[-1]
        assert count == f"{flags.count(False)}/{len(flags)}"
        # the tally reads each round result's converged part, None without a
        # matching: SMOKE runs 2 rounds of 3 clients
        assert parts == ([None] * 6 if ablate else flags)
        assert f"sinkhorn unconverged {count} -> " in last
        for name in ("history.csv", "summary.json"):
            assert "unconverged" not in Path(os.path.join(out, name)).read_text()

    def test_matching_rows_off_one_fail_the_run(self, smoke_cfg, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(fedsim, "sinkhorn_match", partial(sinkhorn_match, epsilon=1e-18))
        assert main(["run", "--config", smoke_cfg, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "client 0 failed at round 0" in err and "epsilon" in err

    def test_allocation_failure_exits_1(self, tmp_path, capsys):
        # 5 x 10**15 float64 weights are petabytes, past any user address
        # space, so the allocation fails whatever the overcommit setting
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(SMOKE.replace("federation.embed_dim = 4",
                                     "federation.embed_dim = 1000000000000000"))
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert not out.exists()

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
        resolved = Path(os.path.join(out, "config.resolved")).read_text()
        assert "federation.seed = 123" in resolved

    def test_ablate_flag(self, smoke_cfg, tmp_path):
        out = str(tmp_path / "run")
        assert main([
            "run", "--config", smoke_cfg, "--out", out,
            "--ablate", "semantic", "--ablate", "structural",
        ]) == 0
        rows = Path(os.path.join(out, "history.csv")).read_text().strip().split("\n")[1:]
        for row in rows:
            parts = row.split(",")
            assert float(parts[3]) == 0.0  # sem_loss
            assert float(parts[4]) == 0.0  # str_loss

    def test_ablate_recorded_once_in_flag_order(self, smoke_cfg, tmp_path):
        summaries = []
        for names in (["structural", "semantic"], ["semantic", "structural"],
                      ["semantic", "semantic"]):
            out = tmp_path / "-".join(names)
            flags = [arg for name in names for arg in ("--ablate", name)]
            assert main(["run", "--config", smoke_cfg, "--out", str(out)] + flags) == 0
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        assert json.loads(summaries[0])["ablate"] == ["semantic", "structural"]
        assert json.loads(summaries[2])["ablate"] == ["semantic"]

    def test_embeddings_export(self, tmp_path):
        cfg = tmp_path / "emb.cfg"
        cfg.write_text(Path(os.path.join(REPO, "configs", "smoke.cfg")).read_text()
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
        a = Path(os.path.join(out1, "history.csv")).read_bytes()
        b = Path(os.path.join(out2, "history.csv")).read_bytes()
        assert a == b

    def test_threads_start_no_thread(self, smoke_cfg, tmp_path, monkeypatch):
        seen = []
        client_round = fedsim.run_client_round

        def recorded(*args):
            seen.append(threading.current_thread())
            return client_round(*args)

        monkeypatch.setattr(fedsim, "run_client_round", recorded)
        assert main(["run", "--config", smoke_cfg, "--threads", "4",
                     "--out", str(tmp_path / "t4")]) == 0
        assert seen and all(t is threading.main_thread() for t in seen)


class TestStrictFloatingPoint:
    # the mark keeps a warning from failing the parent's round first, so the
    # test tells a round-0 failure from the warnings a later one followed
    @pytest.mark.filterwarnings("default::RuntimeWarning")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflow_fails_the_round_it_happens_in(self, tmp_path, capsys, threads):
        cfg = tmp_path / "lr.cfg"
        cfg.write_text(SMOKE + "train.lr0 = 1e308\n")
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: client 0 failed at round 0: overflow encountered in ")
        assert "Warning" not in err
        assert not out.exists()


class TestGeneratorKeysUnderFiles:
    """dataset.kind = files reads no generator key: one given is an error, and
    config.resolved records none, so eval replays the run from it."""

    @pytest.mark.parametrize("key", GENERATOR_KEYS)
    def test_given_generator_key_is_rejected(self, finished, tmp_path, capsys, key):
        line = next(ln for ln in SMOKE.splitlines() if ln.startswith(f"{key} ="))
        cfg = tmp_path / "f.cfg"
        cfg.write_text(SMOKE_FILES + line + "\n" + "".join(
            f"dataset.{p.stem} = {p}\n" for p in sorted((finished / "data").iterdir())))
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {key} is read only under dataset.kind = synthetic, not files\n")
        assert not out.exists()

    def test_files_run_records_no_generator_key_and_eval_replays_it(self, finished,
                                                                     tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text(SMOKE_FILES + "".join(
            f"dataset.{p.stem} = {p}\n" for p in sorted((finished / "data").iterdir())))
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        resolved = (out / "config.resolved").read_text().splitlines()
        assert "dataset.kind = files" in resolved
        assert not [ln for ln in resolved if ln.split(" =")[0] in GENERATOR_KEYS]
        summary = json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        assert main(["eval", "--model-dir", str(out)]) == 0
        mean_line = capsys.readouterr().out.splitlines()[-1]
        assert mean_line == f"mean test accuracy: {summary['mean_test']:.6f}"

        # a config.resolved written while files runs recorded the generator keys
        (out / "config.resolved").write_text(
            "\n".join(sorted(resolved + ["dataset.nodes = 600"])) + "\n")
        assert main(["eval", "--model-dir", str(out)]) == 2
        assert "dataset.nodes is read only under dataset.kind = synthetic" in (
            capsys.readouterr().err)

    def test_files_run_evals_from_another_directory(self, finished, tmp_path, capsys,
                                                   monkeypatch):
        # relative dataset paths are recorded absolute, so they outlive the cwd
        start, other = tmp_path / "start", tmp_path / "other"
        other.mkdir()
        shutil.copytree(finished / "data", start / "data1")
        monkeypatch.chdir(start)
        (start / "f.cfg").write_text(SMOKE_FILES + "".join(
            f"dataset.{name} = data1/{name}.txt\n" for name in ("edges", "features", "labels")))
        assert main(["run", "--config", "f.cfg", "--out", "runf"]) == 0
        resolved = (start / "runf" / "config.resolved").read_text().splitlines()
        assert f"dataset.edges = {start / 'data1' / 'edges.txt'}" in resolved
        summary = json.loads((start / "runf" / "summary.json").read_text())
        monkeypatch.chdir(other)
        capsys.readouterr()
        assert main(["eval", "--model-dir", str(start / "runf")]) == 0
        mean_line = capsys.readouterr().out.splitlines()[-1]
        assert mean_line == f"mean test accuracy: {summary['mean_test']:.6f}"


class TestOutputDirectory:
    """An output directory holds one finished run: per-client files of an
    earlier run are removed, summary.json is written last, and an unusable
    artifact path exits 2 before any work."""

    def test_rerun_removes_stale_per_client_files(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMOKE.replace("federation.clients = 3", "federation.clients = 5")
                       + "output.embeddings = true\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(list(out.glob("embeddings_*.csv"))) == 5
        (out / "notes.txt").write_text("not a run's file\n")
        cfg.write_text(SMOKE)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == [
            "config.resolved", "history.csv", "models", "notes.txt", "summary.json"]
        assert sorted(os.listdir(out / "models")) == [f"client_{c}.txt" for c in range(3)]
        assert (out / "notes.txt").read_text() == "not a run's file\n"
        # the rerun's files are a fresh run's, byte for byte
        fresh = tmp_path / "fresh"
        assert main(["run", "--config", str(cfg), "--out", str(fresh)]) == 0
        for name in ("config.resolved", "history.csv", "summary.json",
                     *(f"models/client_{c}.txt" for c in range(3))):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_rerun_keeps_names_a_run_never_writes(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMOKE.replace("federation.clients = 3", "federation.clients = 8"))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        # a leading zero or a non-ASCII digit: no run numbers a client so
        kept = ["client_007.txt", "client_\u0663.txt", "client_01.txt"]
        for name in kept:
            (out / "models" / name).write_text("not a run's file\n")
        (out / "embeddings_\u0663.csv").write_text("not a run's file\n")
        cfg.write_text(SMOKE)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(os.listdir(out / "models")) == sorted(
            [f"client_{c}.txt" for c in range(3)] + kept)     # client_3..7 removed
        assert (out / "embeddings_\u0663.csv").read_text() == "not a run's file\n"

    # each path a run writes, and a stale per-client one it would remove
    @pytest.mark.parametrize("name", ["models", "history.csv", "summary.json",
                                      "config.resolved", "models/client_1.txt",
                                      "embeddings_2.csv", "models/client_7.txt"])
    def test_unusable_artifact_path_fails_before_work(self, tmp_path, capsys, monkeypatch,
                                                      name):
        def no_work(*args, **kwargs):
            raise AssertionError("the federation ran before an artifact path was rejected")

        monkeypatch.setattr(cli, "run_federation", no_work)
        out = tmp_path / "run"
        out.mkdir()
        bad = out / name
        if name == "models":
            bad.write_text("a regular file\n")
            expected = f"{bad}: exists and is not a directory"
        else:
            bad.mkdir(parents=True)
            expected = f"{bad}: exists and is not a regular file"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMOKE + "output.embeddings = true\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert expected in capsys.readouterr().err

    def test_failed_rerun_leaves_no_summary_and_no_temporary_file(
            self, smoke_cfg, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert main(["run", "--config", smoke_cfg, "--out", str(out)]) == 0
        before = (out / "models" / "client_1.txt").read_bytes()
        saving = cli.save_params
        calls = []

        def fails_on_second_client(params, path):
            calls.append(path)
            if len(calls) == 2:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("half a dump")
                raise OSError("no space left on device")
            saving(params, path)

        monkeypatch.setattr(cli, "save_params", fails_on_second_client)
        capsys.readouterr()
        assert main(["run", "--config", smoke_cfg, "--out", str(out)]) == 1
        assert "no space left on device" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["config.resolved", "history.csv", "models"]
        assert sorted(os.listdir(out / "models")) == [f"client_{c}.txt" for c in range(3)]
        assert (out / "models" / "client_1.txt").read_bytes() == before


class TestEvalCommand:
    def test_eval_matches_run_metrics(self, smoke_cfg, tmp_path, capsys):
        out = str(tmp_path / "run")
        main(["run", "--config", smoke_cfg, "--out", out])
        run_summary = json.loads(Path(os.path.join(out, "summary.json")).read_text())
        capsys.readouterr()
        assert main(["eval", "--model-dir", out, "--split", "test"]) == 0
        printed = capsys.readouterr().out
        mean_line = [ln for ln in printed.splitlines() if ln.startswith("mean")][0]
        assert abs(float(mean_line.split(":")[1]) - run_summary["mean_test"]) <= 1e-6

    def test_eval_other_split(self, smoke_cfg, tmp_path, capsys):
        out = str(tmp_path / "run")
        main(["run", "--config", smoke_cfg, "--out", out])
        run_summary = json.loads(Path(os.path.join(out, "summary.json")).read_text())
        capsys.readouterr()
        assert main(["eval", "--model-dir", out, "--split", "val"]) == 0
        printed = capsys.readouterr().out
        mean_line = [ln for ln in printed.splitlines() if ln.startswith("mean")][0]
        assert abs(float(mean_line.split(":")[1]) - run_summary["mean_val"]) <= 1e-6

    @pytest.mark.parametrize("split", ["test", "val"])
    def test_edited_dump_fails_naming_its_client(self, smoke_cfg, tmp_path, capsys, split):
        out = tmp_path / "run"
        assert main(["run", "--config", smoke_cfg, "--out", str(out)]) == 0
        recorded = json.loads((out / "summary.json").read_text())[f"per_client_{split}"]
        dump = out / "models" / "client_1.txt"
        lines = dump.read_text().splitlines()
        bias = lines[-1].split()                 # b_cls: every node now votes class 1
        lines[-1] = " ".join(["-1000000.0"] + bias[1:])
        dump.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--model-dir", str(out), "--split", split]) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith(f"error: client 1 {split} accuracy is ")
        assert printed.err.endswith(
            f" from the saved models, but {out / 'summary.json'} records {recorded[1]}\n")
        # another config's metrics are not the run's, so they are not checked
        assert main(["eval", "--model-dir", str(out), "--config", smoke_cfg,
                     "--split", split]) == 0

    def test_edited_summary_fails_naming_its_client(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--config", smoke_cfg, "--out", str(out)]) == 0
        path = out / "summary.json"
        summary = json.loads(path.read_text())
        summary["per_client_test"][2] += 2.0 ** -52
        path.write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["eval", "--model-dir", str(out)]) == 1
        assert (f"error: client 2 test accuracy is {summary['per_client_test'][2] - 2.0 ** -52}"
                in capsys.readouterr().err)
        del summary["per_client_test"][2]        # a client the record lacks
        path.write_text(json.dumps(summary))
        assert main(["eval", "--model-dir", str(out)]) == 1
        assert f"but {path} records None\n" in capsys.readouterr().err
        path.write_text("{")
        assert main(["eval", "--model-dir", str(out)]) == 2
        assert f"error: {path}: not JSON (" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["test", "val"])
    def test_committed_demo_run_matches_its_record(self, capsys, split):
        demo = os.path.join(REPO, "runs", "smoke-demo")
        summary = json.loads(Path(demo, "summary.json").read_text())
        capsys.readouterr()
        assert main(["eval", "--model-dir", demo, "--split", split]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"mean {split} accuracy: {summary[f'mean_{split}']:.6f}")

    # each line a config.resolved held while its key was read
    RETIRED = ["refine.eps = 1e-08", "refine.gw_iters = 200", "refine.gw_lr = 1.0",
               "refine.eta = 0.1", "refine.tau = 1.0", "sinkhorn.epsilon = 0.05",
               "sinkhorn.max_iters = 500", "sinkhorn.tol = 1e-06",
               "split.test = 0.4", "split.train = 0.2", "split.val = 0.4"]

    def test_config_with_retired_keys_is_rejected(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--config", smoke_cfg, "--out", str(out)]) == 0
        resolved = out / "config.resolved"
        current = resolved.read_text().splitlines()
        for retired in self.RETIRED:
            key = retired.split(" = ")[0]
            lines = sorted(current + [retired])
            resolved.write_text("\n".join(lines) + "\n")
            capsys.readouterr()
            assert main(["eval", "--model-dir", str(out)]) == 2, key
            lineno = lines.index(retired) + 1
            assert (f"{resolved}:{lineno}: unknown config key {key!r}"
                    in capsys.readouterr().err)
            # a run config holding the key fails before its output exists
            cfg = tmp_path / "old.cfg"
            cfg.write_text(SMOKE + retired + "\n")
            rerun = tmp_path / "rerun"
            assert main(["run", "--config", str(cfg), "--out", str(rerun)]) == 2, key
            assert f"unknown config key {key!r}" in capsys.readouterr().err
            assert not rerun.exists()

    def test_corrupted_dump_fails_cleanly(self, smoke_cfg, tmp_path):
        out = str(tmp_path / "run")
        main(["run", "--config", smoke_cfg, "--out", out])
        dump = os.path.join(out, "models", "client_1.txt")
        lines = Path(dump).read_text().split("\n")
        Path(dump).write_text("\n".join(lines[:3]))
        assert main(["eval", "--model-dir", out]) == 2

    def test_unfinished_run_is_refused(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--config", smoke_cfg, "--out", str(out)]) == 0
        (out / "summary.json").unlink()
        capsys.readouterr()
        assert main(["eval", "--model-dir", str(out)]) == 2
        assert (f"error: {out}: no summary.json, its run did not finish"
                in capsys.readouterr().err)

    def test_missing_model_dir(self, smoke_cfg, tmp_path):
        out = str(tmp_path / "run")
        main(["run", "--config", smoke_cfg, "--out", out])
        os.remove(os.path.join(out, "models", "client_0.txt"))
        assert main(["eval", "--model-dir", out]) == 2


def _spoil(path, fault) -> str:
    """Make the file at path a directory or give it a byte 0xff opening its
    first or third line; returns what the error must say."""
    if fault == "directory":
        os.remove(path)
        os.mkdir(path)
        return f"{path}: is a directory, not a file"
    lineno = 1 if fault == "byte 0xff on line 1" else 3
    lines = Path(path).read_bytes().split(b"\n")
    lines[lineno - 1] = b"\xff" + lines[lineno - 1]
    Path(path).write_bytes(b"\n".join(lines))
    return f"{path}:{lineno}: not UTF-8 text"


FAULTS = ["directory", "byte 0xff on line 1", "byte 0xff on line 3"]


class TestUnreadableTextInputs:
    """A directory or a non-UTF-8 file where a text input belongs exits 2, naming it."""

    @pytest.mark.parametrize("fault", FAULTS)
    def test_run_config(self, smoke_cfg, tmp_path, capsys, fault):
        expected = _spoil(smoke_cfg, fault)
        out = tmp_path / "run"
        assert main(["run", "--config", smoke_cfg, "--out", str(out)]) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("name", ["config.resolved", "models/client_1.txt"])
    def test_eval_input(self, smoke_cfg, tmp_path, capsys, name, fault):
        out = tmp_path / "run"
        assert main(["run", "--config", smoke_cfg, "--out", str(out)]) == 0
        expected = _spoil(str(out / name), fault)
        capsys.readouterr()
        assert main(["eval", "--model-dir", str(out)]) == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("fault", FAULTS)
    def test_report_history(self, smoke_cfg, tmp_path, capsys, fault):
        out = tmp_path / "run"
        assert main(["run", "--config", smoke_cfg, "--out", str(out)]) == 0
        history = str(out / "history.csv")
        expected = _spoil(history, fault)
        capsys.readouterr()
        assert main(["report", history]) == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("fault", FAULTS[1:])
    @pytest.mark.parametrize("name", ["edges.txt", "features.txt", "labels.txt"])
    def test_dataset_file(self, smoke_cfg, tmp_path, capsys, name, fault):
        data = tmp_path / "data"
        assert main(["gen-data", "--config", smoke_cfg, "--out", str(data)]) == 0
        expected = _spoil(str(data / name), fault)
        cfg = tmp_path / "f.cfg"
        cfg.write_text(SMOKE_FILES
                       + f"dataset.edges = {data / 'edges.txt'}\n"
                       + f"dataset.features = {data / 'features.txt'}\n"
                       + f"dataset.labels = {data / 'labels.txt'}\n")
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()


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
        assert "final_test_mean" in Path(table).read_text()

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

    def test_empty_out_fails_before_reading(self, tmp_path, capsys, monkeypatch):
        def no_read(path):
            raise AssertionError("a history was read before --out was rejected")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "import_history", no_read)
        assert main(["report", "history.csv", "--out", ""]) == 2
        assert capsys.readouterr() == ("", "error: --out is empty, expected a path\n")
        assert os.listdir(tmp_path) == []

    def test_out_directory_fails_before_reading(self, tmp_path, capsys, monkeypatch):
        def no_read(path):
            raise AssertionError("a history was read before --out was rejected")

        monkeypatch.setattr(cli, "import_history", no_read)
        out = str(tmp_path)
        assert main(["report", str(tmp_path / "history.csv"), "--out", out]) == 2
        assert f"--out = {out}: is a directory, not a file" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A smoke run's directory and the smoke graph written as data files."""
    root = tmp_path_factory.mktemp("finished")
    cfg = root / "smoke.cfg"
    cfg.write_text(SMOKE)
    assert main(["run", "--config", str(cfg), "--out", str(root / "run")]) == 0
    assert main(["gen-data", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return root


# (file, its line to replace, the replacement, what the error says after path:line)
ROW_FAULTS = [
    ("data/features.txt", 2, "0.5 0.5 x 0.5 0.5",
     "features: could not convert string to float: 'x'"),
    ("data/features.txt", 2, "0.5 0.5", "features row has 2 values, expected 5"),
    ("data/features.txt", 2, "0.5 0.5 nan 0.5 0.5", "features holds a non-finite value"),
    ("data/features.txt", 2, "-inf 0.5 0.5 0.5 0.5", "features holds a non-finite value"),
    ("data/labels.txt", 2, "1.0", "label: invalid literal for int() with base 10: '1.0'"),
    ("data/labels.txt", 2, "0 1", "label row has 2 values, expected 1"),
    ("data/edges.txt", 1, "0 x", "edge: invalid literal for int() with base 10: 'x'"),
    ("data/edges.txt", 1, "0 1 2", "edge row has 3 values, expected 2"),
    ("run/models/client_0.txt", 3, "0.5 0.5 x 0.5",
     "array w_ego: could not convert string to float: 'x'"),
    ("run/models/client_0.txt", 3, "0.5 0.5 0.5", "array w_ego row has 3 values, expected 4"),
    ("run/models/client_0.txt", 3, "0.5 nan 0.5 0.5", "array w_ego holds a non-finite value"),
    ("run/models/client_0.txt", 3, "0.5 0.5 0.5 inf", "array w_ego holds a non-finite value"),
]


class TestRowParser:
    """Every numeric row of a graph file or model dump is read by
    graph.parse_row: an unparsable value, a wrong count and a non-finite
    value each raise ValueError opening with path:line, and exit 2."""

    @pytest.mark.parametrize("name, lineno, text, message", ROW_FAULTS)
    def test_bad_row_names_path_and_line(self, finished, tmp_path, capsys,
                                         name, lineno, text, message):
        shutil.copytree(finished, tmp_path, dirs_exist_ok=True)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n")
        expected = f"{path}:{lineno}: {message}"
        data = [tmp_path / "data" / f for f in ("edges.txt", "features.txt", "labels.txt")]
        with pytest.raises(ValueError) as raised:
            if name.startswith("run/"):
                load_params(path, init_params(5, 4, 2, seed=0))
            else:
                load_graph(*data, num_classes=2)
        assert str(raised.value) == expected
        if name.startswith("run/"):
            argv = ["eval", "--model-dir", str(tmp_path / "run")]
        else:
            cfg = tmp_path / "files.cfg"
            cfg.write_text(SMOKE_FILES
                           + "".join(f"dataset.{p.stem} = {p}\n" for p in data))
            argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == 2
        assert f"error: {expected}\n" == capsys.readouterr().err


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

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_model_dump_with_non_finite_value(self, smoke_cfg, tmp_path, capsys, value):
        out = tmp_path / "run"
        main(["run", "--config", smoke_cfg, "--out", str(out)])
        dump = out / "models" / "client_0.txt"
        lines = dump.read_text().splitlines()
        assert lines[1].startswith("shape w_ego")
        lines[2] = " ".join([value] + lines[2].split()[1:])
        dump.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--model-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{dump}:3: array w_ego holds a non-finite value" in err
        assert "Traceback" not in err

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

    @staticmethod
    def python(code):
        """The stdout of `code` run in a fresh interpreter that imports fedcal from src/."""
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout

    def test_imports_only_numpy_and_scipy_sparse(self):
        loaded = self.python("import sys, fedcal, fedcal.cli; print(*sorted(sys.modules))").split()
        assert "fedcal.cli" in loaded and "scipy.sparse" in loaded
        heavy = [m for m in loaded if any(m == h or m.startswith(h + ".")
                                          for h in self.HEAVY)]
        assert heavy == []

    def test_every_command_loads_no_scipy_module_past_scipy_sparse(self, tmp_path):
        # peak_rss_mb counts every module a run loads: scipy.sparse.csgraph alone
        # would add about 11 MB to a process of about 50
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        code = """if True:
            import sys
            import scipy.sparse
            def scipy_modules():
                return {m for m in sys.modules if m.split(".")[0] == "scipy"}
            before = scipy_modules()
            from fedcal.cli import main
            cfg, root = sys.argv[1:]
            run = root + "/run"
            for argv in (["run", "--config", cfg, "--out", run], ["eval", "--model-dir", run],
                         ["gen-data", "--config", cfg, "--out", root + "/data"],
                         ["report", run + "/history.csv"]):
                assert main(argv) == 0, argv
            print("new:", *sorted(scipy_modules() - before))
        """
        smoke = os.path.join(REPO, "configs", "smoke.cfg")
        out = subprocess.run([sys.executable, "-c", code, smoke, str(tmp_path)], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "new:"

    def test_numpy_f2py_and_testing_stay_unloaded(self):
        # scipy.sparse's array-API layer reads every numpy attribute; loaded, these two
        # bring unittest, email and charset_normalizer, about 9 MB of a run's peak RSS
        loaded = self.python("import sys, fedcal.cli; print(*sorted(sys.modules))").split()
        assert "scipy.sparse" in loaded
        assert "numpy.f2py.crackfortran" not in loaded
        assert "numpy.testing._private.utils" not in loaded

    def test_deferred_numpy_submodules_load_on_first_use(self):
        out = self.python("""if True:
            import sys, types
            import fedcal.cli
            import numpy.f2py, numpy.testing
            numpy.testing.assert_array_equal([1], [1])
            assert callable(numpy.f2py.run_main)
            assert type(sys.modules["numpy.testing"]) is types.ModuleType
            assert type(sys.modules["numpy.f2py"]) is types.ModuleType
            print("ok")
        """)
        assert out.split() == ["ok"]

    def test_numpy_testing_imported_before_fedcal_is_kept(self):
        out = self.python("""if True:
            import sys
            import numpy.testing as t
            import fedcal.cli
            print(sys.modules["numpy.testing"] is t, sys.modules["numpy"].testing is t)
        """)
        assert out.split() == ["True", "True"]


class TestIdempotence:
    def test_smoke_config_reproduces_committed_run(self, tmp_path):
        out = str(tmp_path / "run")
        config = os.path.join(REPO, "configs", "smoke.cfg")
        assert main(["run", "--config", config, "--out", out]) == 0
        names = ["history.csv", "summary.json", "config.resolved"]
        names += [os.path.join("models", f"client_{c}.txt") for c in range(3)]
        for name in names:
            a = Path(os.path.join(out, name)).read_bytes()
            b = Path(os.path.join(REPO, "runs", "smoke-demo", name)).read_bytes()
            assert a == b, name

    def test_run_byte_identical_given_seed(self, smoke_cfg, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["run", "--config", smoke_cfg, "--out", out1])
        main(["run", "--config", smoke_cfg, "--out", out2])
        for name in ("history.csv", "summary.json", "config.resolved"):
            a = Path(os.path.join(out1, name)).read_bytes()
            b = Path(os.path.join(out2, name)).read_bytes()
            assert a == b
        for c in range(3):
            a = Path(os.path.join(out1, "models", f"client_{c}.txt")).read_bytes()
            b = Path(os.path.join(out2, "models", f"client_{c}.txt")).read_bytes()
            assert a == b
