"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 7-9 run the committed synthetic benchmark, configs/benchmark.cfg
(5 clients, 600-node two-block graph, 8-dim embeddings, 60 rounds of 3
local epochs), and its heterophilic twin configs/heterophilic.cfg, at
seeds 1-5; run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines.
"""

import dataclasses
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from fedcal.cli import build_run_config, main as cli_main, parse_config_file
from fedcal.fedsim import (
    FederationConfig,
    run_federation,
    semantic_pool,
    structural_pool,
)
from fedcal.model import forward, total_loss
from fedcal.refine import (
    _STEP_GUARD,
    construct_etf,
    gram_drift,
    init_templates,
    random_orthogonal,
    refine_all_anchors,
    refine_anchor,
    template_objective,
    update_template,
)
from fedcal.semantic import procrustes, svd
from fedcal.structural import sinkhorn_match
from oracles import gw_2point

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BENCH_SEEDS = (1, 2, 3, 4, 5)


def bench_config(seed, heterophilic=False, **kw):
    """The federation configs/benchmark.cfg, or its heterophilic twin, runs at
    seed, with the ``*_enabled`` ablation flags kw sets."""
    name = "heterophilic.cfg" if heterophilic else "benchmark.cfg"
    run = build_run_config(parse_config_file(CONFIGS / name))
    return dataclasses.replace(run.federation_config(seed=seed), **kw)


def per_round(rows, column):
    """Each round's values of one history column, in client-id order."""
    rounds = {}
    for row in rows:
        rounds.setdefault(row.round, []).append(getattr(row, column))
    return list(rounds.values())


def calibration_total(rows):
    return [sum(sem) + sum(stru) for sem, stru in zip(per_round(rows, "sem_loss"),
                                                      per_round(rows, "str_loss"))]


def final_test_mean(cfg):
    return float(np.mean(per_round(run_federation(cfg).records, "test_metric")[-1]))


def final_test_means(configs):
    """final_test_mean of each config, over two processes, in input order."""
    with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(final_test_mean, configs))


def report(name, detail):
    print(f"[PASS] {name}: {detail}")


class TestCriterion1EtfGeometry:
    def test_etf_geometry(self):
        start = time.time()
        worst_norm = worst_gram = 0.0
        for c in range(2, 11):
            for d in (c, 2 * c, 64):
                anchors = construct_etf(c, d, seed=1000 * c + d)
                norms = np.linalg.norm(anchors, axis=0)
                worst_norm = max(worst_norm, float(np.abs(norms - 1.0).max()))
                gram = anchors.T @ anchors
                off = gram[~np.eye(c, dtype=bool)]
                worst_gram = max(worst_gram, float(np.abs(off + 1 / (c - 1)).max()))
        elapsed = time.time() - start
        assert worst_norm <= 1e-9
        assert worst_gram <= 1e-9
        assert elapsed < 1.0
        report("criterion 1 (ETF geometry)",
               f"norm err {worst_norm:.1e}, gram err {worst_gram:.1e}, {elapsed:.2f}s")


class TestCriterion2Procrustes:
    def test_procrustes_properties(self):
        start = time.time()
        rng = np.random.default_rng(2024)
        candidate_pools = {}
        worst_identity = worst_opt = worst_iso = 0.0
        for _ in range(200):
            d = int(rng.integers(2, 33))
            c = int(rng.integers(2, min(10, d) + 1))
            anchors = construct_etf(c, d, seed=int(rng.integers(2 ** 31)))
            p = rng.standard_normal((d, c))
            rot = procrustes(p, np.ones(c, dtype=bool), anchors)

            err = np.linalg.norm(rot @ p - anchors) ** 2
            _, sigma, _ = svd(anchors @ p.T)
            identity = (np.linalg.norm(p) ** 2
                        + np.linalg.norm(anchors) ** 2 - 2 * sigma.sum())
            worst_identity = max(worst_identity, abs(err - identity))

            if d not in candidate_pools:
                candidate_pools[d] = np.stack(
                    [random_orthogonal(d, (d, k)) for k in range(1000)]
                )
            candidates = candidate_pools[d]
            best = np.sqrt(err)
            cand_errs = np.linalg.norm(
                candidates @ p - anchors[None], axis=(1, 2)
            )
            worst_opt = max(worst_opt, float((best - cand_errs).max()))

            before = np.linalg.norm(
                p[:, :, None] - p[:, None, :], axis=0
            )
            rp = rot @ p
            after = np.linalg.norm(rp[:, :, None] - rp[:, None, :], axis=0)
            worst_iso = max(worst_iso, float(np.abs(before - after).max()))
        elapsed = time.time() - start
        assert worst_identity <= 1e-8
        assert worst_opt <= 1e-9
        assert worst_iso <= 1e-10
        assert elapsed < 30.0
        report("criterion 2 (Procrustes)",
               f"identity {worst_identity:.1e}, optimality slack {worst_opt:.1e}, "
               f"isometry {worst_iso:.1e}, {elapsed:.1f}s")


class TestCriterion3GradientOracle:
    def test_gradients_match_finite_differences(self):
        from tests.test_model import calibration_inputs, small_instance

        start = time.time()
        worst = 0.0
        eps = 1e-5
        for seed in range(20):
            rng = np.random.default_rng(seed + 900)
            n = int(rng.integers(12, 31))
            d = int(rng.integers(3, 9))
            d0 = int(rng.integers(3, 7))
            c = int(rng.integers(2, min(4, d) + 1))
            g, params, agg = small_instance(seed, n=n, d0=d0, d=d, c=c)
            semantic, structural = calibration_inputs(g, params, agg, seed, d, c)
            train = np.flatnonzero(g.train_mask)
            term_sets = [
                (semantic, None),          # semantic only
                (None, structural),        # structural only
                (None, None),              # ce only
                (semantic, structural),
            ]
            for (sem, stru) in term_sets:
                _, _, grads = total_loss(params, g, agg, forward(params, g, agg), train,
                                         sem, stru)

                def value():
                    return total_loss(params, g, agg, forward(params, g, agg), train,
                                      sem, stru)[0]

                for name in ("w_ego", "w_cls", "b_cls"):
                    flat = getattr(params, name).reshape(-1)
                    ana = np.atleast_1d(getattr(grads, name)).reshape(-1)
                    for k in range(flat.size):
                        orig = flat[k]
                        flat[k] = orig + eps
                        up = value()
                        flat[k] = orig - eps
                        down = value()
                        flat[k] = orig
                        num = (up - down) / (2 * eps)
                        if abs(num) < 1e-10 and abs(ana[k]) < 1e-10:
                            continue
                        rel = abs(num - ana[k]) / max(abs(num), abs(ana[k]), 1e-8)
                        worst = max(worst, rel)
        elapsed = time.time() - start
        assert worst <= 1e-4
        assert elapsed < 60.0
        report("criterion 3 (gradient oracle)",
               f"worst rel err {worst:.2e} over 20 graphs x 4 objectives, {elapsed:.1f}s")


class TestCriterion4Sinkhorn:
    def test_sinkhorn_properties(self):
        start = time.time()
        rng = np.random.default_rng(44)
        worst_row = worst_col = 0.0
        for trial in range(10):
            nb, nq = int(rng.integers(3, 12)), int(rng.integers(2, 6))
            radials = []
            for i in range(nb):
                rows = rng.standard_normal((2, 6))
                rows /= np.linalg.norm(rows, axis=1, keepdims=True)
                radials.append(rows)
            templates = init_templates(nq, 6, seed=trial)
            match = sinkhorn_match(radials, templates, epsilon=0.2,
                                   max_iters=20000, debug=True)
            assert match.converged
            worst_row = max(worst_row, float(np.abs(match.f.sum(axis=1) - 1).max()))
            coupling = match.f / nb
            worst_col = max(
                worst_col, float(np.abs(coupling.sum(axis=0) - 1 / nq).sum())
            )
            assert np.all(np.diff(match.objective_trace) >= -1e-12)

        # near-hard-assignment limit at B = Q = 2
        rows_a = rng.standard_normal((2, 4))
        rows_b = rows_a + 10.0
        radials = [rows_a, rows_b]
        templates = np.stack([rows_a, rows_b])
        match = sinkhorn_match(radials, templates, epsilon=0.01)
        assert match.f[0, 0] >= 0.99 and match.f[1, 1] >= 0.99

        elapsed = time.time() - start
        assert worst_row <= 1e-6
        assert worst_col <= 1e-6
        assert elapsed < 5.0
        report("criterion 4 (Sinkhorn)",
               f"row err {worst_row:.1e}, col residual {worst_col:.1e}, "
               f"monotone dual, hard limit ok, {elapsed:.1f}s")


class TestCriterion5GromovWasserstein:
    def test_gw_properties(self):
        start = time.time()
        rng = np.random.default_rng(55)

        worst_iso = 0.0
        for _ in range(50):
            a = rng.standard_normal((2, 6))
            q = random_orthogonal(6, int(rng.integers(2 ** 31)))
            b = a @ q.T + rng.standard_normal(6)
            worst_iso = max(worst_iso, gw_2point(a, b))
        assert worst_iso <= 1e-8

        ts = np.linspace(0.0, 0.5, 10001)
        s = ts ** 2 + (0.5 - ts) ** 2
        worst_grid = 0.0
        for _ in range(50):
            a = rng.standard_normal((2, 3))
            b = rng.standard_normal((2, 3))
            alpha = np.linalg.norm(a[0] - a[1])
            beta = np.linalg.norm(b[0] - b[1])
            grid = float(((alpha ** 2 + beta ** 2) / 2
                          - 4 * alpha * beta * s).min())
            worst_grid = max(worst_grid, abs(gw_2point(a, b) - grid))
        assert worst_grid <= 1e-6

        from tests.test_refine import structural_upload

        worst_ascent = -np.inf
        for seed in range(20):
            rng2 = np.random.default_rng(seed)
            radial_rows = []
            for _ in range(10):
                rows = rng2.standard_normal((2, 5))
                rows /= np.linalg.norm(rows, axis=1, keepdims=True)
                radial_rows.append(rows)
            f = rng2.random((10, 3))
            f /= f.sum(axis=1, keepdims=True)
            up = structural_upload(radial_rows, f)
            templates = rng2.standard_normal((3, 2, 5))
            for q in range(3):
                before = template_objective(structural_pool([up]), q, templates[q])
                new = update_template(q, structural_pool([up]), templates)
                after = template_objective(structural_pool([up]), q, new)
                worst_ascent = max(worst_ascent, after - before)
        assert worst_ascent <= 1e-9

        elapsed = time.time() - start
        assert elapsed < 10.0
        report("criterion 5 (Gromov-Wasserstein)",
               f"isometry {worst_iso:.1e}, grid {worst_grid:.1e}, "
               f"descent slack {worst_ascent:.1e}, {elapsed:.1f}s")


class TestCriterion6AnchorRefinement:
    def test_refinement_geometry(self):
        rng = np.random.default_rng(66)
        tau, eta = 1.0, 0.1

        # unit norm and bounded pre-projection chord on random rounds
        worst_norm = 0.0
        worst_chord = -np.inf
        anchors = construct_etf(4, 8, seed=66)
        for _ in range(50):
            uploads = []
            for _ in range(3):
                k = anchors + rng.standard_normal(anchors.shape) * 0.3
                uploads.append((k, np.ones(4, dtype=bool), rng.random(4)))
            from fedcal.refine import constraint_vector, deviation_vectors, difficulty_weights

            vs = deviation_vectors(semantic_pool(uploads), anchors)
            gammas = difficulty_weights(semantic_pool(uploads), tau)
            for i in range(4):
                s = constraint_vector(anchors, i)
                delta = anchors[:, i]
                step = (delta + gammas[i] * vs[:, i] + s) - delta
                t = min(1.0, eta / (np.linalg.norm(step) + _STEP_GUARD))
                worst_chord = max(worst_chord, t * np.linalg.norm(step))
                out = refine_anchor(delta, vs[:, i], float(gammas[i]), s, eta)
                worst_norm = max(worst_norm, abs(np.linalg.norm(out) - 1.0))
            anchors = refine_all_anchors(anchors, semantic_pool(uploads), tau, eta)
        assert worst_norm <= 1e-12
        assert worst_chord <= eta + 1e-9

        # exact ETF + zero deviation is a fixed point
        exact = construct_etf(5, 8, seed=67)
        uploads = [(exact.copy(), np.ones(5, dtype=bool), np.zeros(5))]
        refined = refine_all_anchors(exact, semantic_pool(uploads), tau, eta)
        fixed_err = float(np.abs(refined - exact).max())
        assert fixed_err <= 1e-12
        assert gram_drift(refined) <= 1e-9
        report("criterion 6 (anchor refinement)",
               f"unit-norm err {worst_norm:.1e}, max chord {worst_chord:.4f} "
               f"<= eta, fixed-point err {fixed_err:.1e}")


@pytest.mark.slow
class TestCriterion7Convergence:
    def test_calibration_loss_converges(self):
        start = time.time()
        records = run_federation(bench_config(BENCH_SEEDS[0])).records
        calib = calibration_total(records)
        for i in range(5, len(calib) - 1):
            assert calib[i + 1] <= calib[i] * 1.05, f"rise at round {i}"
        # the structural share alone stays monotone after warmup as well
        stru = [sum(r) for r in per_round(records, "str_loss")]
        for i in range(5, len(stru) - 1):
            assert stru[i + 1] <= stru[i] * 1.05, f"structural rise at round {i}"
        plateau = None
        for r in range(1, len(calib)):
            if all(abs(calib[i + 1] - calib[i]) < 0.01 * abs(calib[i])
                   for i in range(r - 1, len(calib) - 1)):
                plateau = r
                break
        elapsed = time.time() - start
        assert plateau is not None and plateau <= 50
        assert elapsed < 180.0
        report("criterion 7 (convergence)",
               f"monotone within 5% after round 5, plateau at round {plateau}, "
               f"{elapsed:.0f}s")


@pytest.mark.slow
class TestCriterion8AblationTrend:
    def test_full_method_tops_ablations(self):
        start = time.time()
        variants = {
            "full": {},
            "w/o semantic": dict(semantic_enabled=False),
            "w/o structural": dict(structural_enabled=False),
            "w/o refinement": dict(refine_enabled=False),
        }
        finals = final_test_means([bench_config(seed, **kw)
                                   for kw in variants.values() for seed in BENCH_SEEDS])
        k = len(BENCH_SEEDS)
        means = {name: float(np.mean(finals[i * k:(i + 1) * k]))
                 for i, name in enumerate(variants)}
        elapsed = time.time() - start
        for name in ("w/o semantic", "w/o structural", "w/o refinement"):
            assert means["full"] >= means[name] - 0.005, (
                f"full {means['full']:.4f} vs {name} {means[name]:.4f}"
            )
        assert elapsed < 900.0
        report("criterion 8 (ablation trend)",
               " ".join(f"{k}={v:.4f}" for k, v in means.items())
               + f", {elapsed:.0f}s")


@pytest.mark.slow
class TestCriterion9BaselineTrend:
    def test_full_method_tops_local_training(self):
        start = time.time()
        finals = final_test_means(
            [bench_config(seed, heterophilic=True) for seed in BENCH_SEEDS]
            + [bench_config(seed, heterophilic=True, semantic_enabled=False,
                            structural_enabled=False, refine_enabled=False)
               for seed in BENCH_SEEDS])
        full = float(np.mean(finals[:len(BENCH_SEEDS)]))
        local = float(np.mean(finals[len(BENCH_SEEDS):]))
        elapsed = time.time() - start
        assert full >= local - 0.005, f"full {full:.4f} vs local {local:.4f}"
        assert elapsed < 600.0
        report("criterion 9 (baseline trend, heterophilic)",
               f"full={full:.4f} local={local:.4f}, {elapsed:.0f}s")


class TestCriterion10Determinism:
    def test_thread_counts_agree_byte_for_byte(self, tmp_path):
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(
            "federation.clients = 4\n"
            "federation.rounds = 3\n"
            "federation.local_epochs = 2\n"
            "federation.embed_dim = 6\n"
            "federation.classes = 3\n"
            "federation.batch_nodes = 24\n"
            "federation.templates = 3\n"
            "federation.seed = 31\n"
            "dataset.kind = synthetic\n"
            "dataset.nodes = 160\n"
            "dataset.p_in = 0.08\n"
            "dataset.p_out = 0.02\n"
            "dataset.feat_dim = 6\n"
            "dataset.feat_sep = 1.0\n"
        )
        out1, out4 = str(tmp_path / "t1"), str(tmp_path / "t4")
        assert cli_main(["run", "--config", str(cfg_path), "--out", out1,
                         "--threads", "1"]) == 0
        assert cli_main(["run", "--config", str(cfg_path), "--out", out4,
                         "--threads", "4"]) == 0
        h1 = Path(os.path.join(out1, "history.csv")).read_bytes()
        h4 = Path(os.path.join(out4, "history.csv")).read_bytes()
        assert h1 == h4
        report("criterion 10 (determinism)",
               f"--threads 1 and 4 byte-identical ({len(h1)} bytes)")


CORA_DIR = os.environ.get("FEDCAL_CORA_DIR", "data/cora")


@pytest.mark.skipif(
    not all(os.path.exists(os.path.join(CORA_DIR, f))
            for f in ("edges.txt", "features.txt", "labels.txt")),
    reason="optional diagnostic: real citation-graph files not present",
)
class TestOptionalCitationGraphDiagnostic:
    def test_citation_graph_ten_clients(self):
        cfg = FederationConfig(
            num_clients=10, rounds=60, local_epochs=3, embed_dim=16,
            num_classes=7, batch_nodes=64, num_templates=6, seed=1,
            lr0=0.15, lr_decay_steps=40.0,
            dataset_kind="files",
            edges_path=os.path.join(CORA_DIR, "edges.txt"),
            features_path=os.path.join(CORA_DIR, "features.txt"),
            labels_path=os.path.join(CORA_DIR, "labels.txt"),
        )
        mean_test = final_test_mean(cfg)
        report("optional diagnostic (citation graph)", f"mean test {mean_test:.4f}")
        assert mean_test >= 0.75
