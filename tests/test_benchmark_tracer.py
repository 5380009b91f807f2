"""The benchmark's tracer (perfbench/tracer.py) rebinds fedcal names given as
strings, so renaming one of them breaks the benchmark without failing any
other test here. These tests install and uninstall it on the current code."""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from fedcal import model
from fedcal.fedsim import sample_structural_batch
from fedcal.graph import HopAggregator, generate_sbm, split_masks
from fedcal.refine import construct_etf, init_templates
from fedcal.structural import radial_sequences_from_rings, sinkhorn_match

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    path = os.path.join(REPO, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rebound_names(tracer):
    """(owner, attribute) for every name the tracer's install() rebinds."""
    names = []
    for module, attr, _, aliases in tracer._SPANS:
        names.append((importlib.import_module(module), attr))
        names += [(importlib.import_module(m), a) for m, a in aliases]
    for module, cls_name, attr, _ in tracer._METHOD_SPANS:
        names.append((getattr(importlib.import_module(module), cls_name), attr))
    names += [(importlib.import_module(m), a) for m, a, _ in tracer._COUNTS]
    return names


def test_install_wraps_and_uninstall_restores_every_name():
    tracer = load_tracer()
    names = rebound_names(tracer)
    before = [getattr(owner, attr) for owner, attr in names]
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = [getattr(owner, attr) for owner, attr in names]
    finally:
        t.uninstall()
    for (owner, attr), old, new in zip(names, before, wrapped):
        assert new is not old, f"{owner.__name__}.{attr} was not rebound"
        assert getattr(owner, attr) is old, f"{owner.__name__}.{attr} was not restored"


def test_one_svd_per_procrustes():
    from fedcal import fedsim

    tracer = load_tracer()
    anchors = construct_etf(3, 5, seed=1)
    p = np.random.default_rng(1).standard_normal((5, 3))
    t = tracer.Tracer()
    try:
        t.install()
        fedsim.procrustes(p, np.ones(3, dtype=bool), anchors)
    finally:
        t.uninstall()
    assert t.counts["numerics.svd_calls"] == 1
    assert [s[0] for s in t.spans] == ["semantic.procrustes"]


@pytest.mark.parametrize("structural, pullbacks", [(False, 1), (True, 2)])
def test_restricted_total_loss_pulls_back_through_traced_backward(structural, pullbacks):
    # the head's ring gradients and the structural term's each go through
    # HopAggregator.backward, the one pullback the tracer times
    g = split_masks(generate_sbm(80, 2, 0.1, 0.03, 4, 1.0, seed=3), (0.2, 0.2, 0.6), seed=3)
    params = model.init_params(4, 3, 2, seed=3)
    agg = HopAggregator(g)
    term = None
    rows = np.flatnonzero(g.train_mask)
    if structural:
        templates = init_templates(2, 3, seed=3)
        batch = sample_structural_batch(g, 8, seed=3)
        cache = model.forward(params, g, agg)
        matching = sinkhorn_match(
            radial_sequences_from_rings(cache.rings, batch), templates)
        term = (matching.f, batch, templates)
        rows = np.union1d(rows, batch)
    local = agg.restrict(rows)
    assert len(local.rows) < g.num_nodes

    tracer = load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        model.total_loss(params, g, local, None, term)
    finally:
        t.uninstall()
    assert [s[0] for s in t.spans].count("graph.backward") == pullbacks


def test_smoke_run_reaches_every_traced_name(tmp_path):
    # a refactor that stops calling a rebound name leaves its span empty
    from fedcal import cli

    tracer = load_tracer()
    t = tracer.Tracer()
    smoke = os.path.join(REPO, "configs", "smoke.cfg")
    try:
        t.install()
        code = cli.main(["run", "--config", smoke, "--out", str(tmp_path / "run")])
    finally:
        t.uninstall()
    assert code == 0
    expected = {name for _, _, name, _ in tracer._SPANS}
    expected |= {name for *_, name in tracer._METHOD_SPANS}
    assert expected - {s[0] for s in t.spans} == set()
    assert t.counts["numerics.l2_normalize_calls"] > 0
    assert t.counts["numerics.svd_calls"] > 0
    # each round's refine spans follow its client rounds, so the server time
    # reads 0 if server_step stops calling refine through fedsim's names
    timings = tracer.fedsim_timings(t.spans, 1)
    settings = cli.build_run_config(cli.parse_config_file(smoke))
    rounds, templates = settings["federation.rounds"], settings["federation.templates"]
    assert len(timings["round_ms"]) == rounds
    assert timings["server_s"] > 0
    # one anchor refinement per round, one update and objective per template
    names = [s[0] for s in t.spans]
    assert names.count("refine.anchors") == rounds
    assert names.count("refine.templates") == rounds * templates
    assert names.count("refine.objective") == rounds * templates
