"""Exact-repeat counts of the committed benchmark config, traced.

    python3 -m pytest perfbench -q

The homophilic workload's config file is ``configs/benchmark.cfg`` as
committed (60 rounds). Traced at seed 1 with one thread, its counts
repeat exactly on every machine; a change to the program that claims to
move one of them can cite these as the before value. The traced run's
artifacts must also equal an untraced run's, byte for byte.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402


def test_homophilic_seed1_counts(tmp_path):
    config = os.path.join(HERE, "workloads", "homophilic.cfg")
    deadline = time.monotonic() + 600
    traced = run.run_child("traced", str(tmp_path), config, [1], 1, [], True, 0, deadline)
    plain = run.run_child("plain", str(tmp_path), config, [1], 1, [], False, 0, deadline)
    assert traced is not None and plain is not None

    stats = tracer.fedsim_timings(traced["spans"], 1)
    metrics, details = tracer.layer_metrics(traced["spans"], traced["counts"], [], 0, stats)
    assert metrics["structural.sinkhorn_calls"] == 300
    assert details["sinkhorn_unconverged"] == 27
    assert metrics["structural.sinkhorn_converged_ratio"] == 273 / 300
    assert details["sinkhorn_iterations_total"] == 78073
    assert round(metrics["structural.sinkhorn_iters_mean"], 2) == 260.24
    assert metrics["model.total_loss_calls"] == 1200
    assert metrics["model.forward_calls"] == 1810
    assert details["gradient_steps"] == 900
    assert metrics["numerics.l2_normalize_calls"] == 216000

    (traced_run,), (plain_run,) = traced["runs"], plain["runs"]
    assert run.check_run(traced_run) == ""
    assert run.artifact_digest(traced_run["out"]) == run.artifact_digest(plain_run["out"])
