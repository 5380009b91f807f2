"""Fast checks of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402

SMOKE = """\
federation.clients = 3
federation.rounds = 3
federation.local_epochs = 2
federation.embed_dim = 4
federation.classes = 2
federation.batch_nodes = 16
federation.templates = 2
dataset.nodes = 90
dataset.p_in = 0.1
dataset.p_out = 0.03
dataset.feat_dim = 5
"""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, row[0], row[1]) for name, row in tracer.PER_LAYER.items()
    ]
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in bench["end_to_end"])


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, -1, 1, None, 0.0],
             ["b", 1.0, 4.0, 0, 1, None, 0.0],
             ["c", 2.0, 3.0, 1, 1, None, 0.0]]
    assert tracer.self_times(spans) == [7.0, 2.0, 1.0]


def test_spans_nest_per_thread():
    t = tracer.Tracer()
    inner = t.span("inner", lambda: time.sleep(0.001))

    def outer_fn():
        inner()

    outer = t.span("outer", outer_fn)
    workers = [threading.Thread(target=outer) for _ in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    assert len(t.spans) == 8
    for s in t.spans:
        if s[0] == "inner":
            parent = t.spans[s[3]]
            assert parent[0] == "outer" and parent[4] == s[4]
        else:
            assert s[3] == -1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracer.tail_percentile(list(range(300)))[1:] == (95.0, 300)
    assert tracer.tail_percentile(list(range(1000)))[1:] == (99.0, 1000)
    assert tracer.tail_percentile([1.0, 2.0, 3.0]) == (2.0, 50.0, 3)


def test_traced_and_untraced_runs_agree(tmp_path):
    config = tmp_path / "smoke.cfg"
    config.write_text(SMOKE)
    deadline = time.monotonic() + 120
    traced = run.run_child("traced", str(tmp_path), str(config), [3, 4], 1, [], True, 0,
                           deadline)
    plain = run.run_child("plain", str(tmp_path), str(config), [3], 2, [], False, 1, deadline)
    assert traced is not None and plain is not None
    for r in traced["runs"] + plain["runs"]:
        assert run.check_run(r) == ""
    assert run.artifact_digest(traced["runs"][0]["out"]) == \
        run.artifact_digest(plain["runs"][0]["out"])
    assert len(plain["extra_setup_s"]) == 1 and plain["runs"][0]["loop_s"] > 0

    stats = tracer.fedsim_timings(traced["spans"], 1)
    metrics, details = tracer.layer_metrics(traced["spans"], traced["counts"], [1.0], 0, stats)
    assert list(metrics) == list(tracer.PER_LAYER)
    assert metrics["structural.sinkhorn_calls"] == 2 * 3 * 3
    assert metrics["model.forwards_per_step"] == (2 * 3 * 3 * 5 + 2 * 6) / (2 * 3 * 3 * 2)
    assert details["fedsim.round_ms_tail"]["samples"] == 6
