import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcal.fedsim import semantic_pool, structural_pool
from fedcal.refine import (
    _STEP_GUARD,
    _golden_section,
    constraint_vector,
    construct_etf,
    deviation_vectors,
    difficulty_weights,
    gram_drift,
    init_templates,
    random_orthogonal,
    refine_all_anchors,
    refine_anchor,
    softmax,
    template_objective,
    update_template,
)
from oracles import deviation_vectors_loop, difficulty_weights_loop, gw_2point


def upload_at_anchors(anchors, loss=0.0):
    """A semantic upload (k, present, per_class_loss) whose every class
    mean sits on its anchor."""
    c = anchors.shape[1]
    return anchors.copy(), np.ones(c, dtype=bool), np.full(c, loss)


def structural_upload(radial_rows, f):
    """A structural upload (radials, f) of the given (2, d) pairs."""
    return np.stack(radial_rows), f


class TestDeviationVectors:
    def test_zero_when_reports_match_anchors(self):
        anchors = construct_etf(3, 5, seed=0)
        uploads = [upload_at_anchors(anchors) for _ in range(4)]
        vs = deviation_vectors(semantic_pool(uploads), anchors)
        assert np.abs(vs).max() <= 1e-15

    def test_single_client_offset(self):
        anchors = construct_etf(3, 5, seed=1)
        e = np.array([0.1, -0.2, 0.0, 0.3, 0.05])
        up = upload_at_anchors(anchors)
        up[0][:, 1] += e
        vs = deviation_vectors(semantic_pool([up]), anchors)
        assert np.abs(vs[:, 1] - e).max() <= 1e-12
        assert np.abs(vs[:, 0]).max() <= 1e-15

    def test_matches_bruteforce_average(self):
        rng = np.random.default_rng(2)
        anchors = construct_etf(4, 6, seed=2)
        uploads = []
        for _ in range(3):
            k, present, losses = upload_at_anchors(anchors)
            k += rng.standard_normal(k.shape) * 0.1
            uploads.append((k, present, losses))
        vs = deviation_vectors(semantic_pool(uploads), anchors)
        for i in range(4):
            manual = np.zeros(6)
            for k, _, _ in uploads:
                manual = manual + (k[:, i] - anchors[:, i])
            manual /= 3
            assert np.abs(vs[:, i] - manual).max() <= 1e-12

    def test_unreported_class_gets_zero(self):
        anchors = construct_etf(3, 5, seed=3)
        k, present, losses = upload_at_anchors(anchors)
        present[2] = False
        k[:, 2] = 123.0  # must be ignored
        vs = deviation_vectors(semantic_pool([(k, present, losses)]), anchors)
        assert np.abs(vs[:, 2]).max() == 0.0


class TestDifficultyWeights:
    def test_equal_losses_give_uniform(self):
        anchors = construct_etf(4, 6, seed=4)
        uploads = [upload_at_anchors(anchors, loss=0.7) for _ in range(2)]
        gamma = difficulty_weights(semantic_pool(uploads), tau=1.0)
        assert np.abs(gamma - 0.25).max() <= 1e-12

    def test_dominant_class_sharpens(self):
        anchors = construct_etf(3, 4, seed=5)
        up = upload_at_anchors(anchors)
        up[2][:] = [5.0, 0.0, 0.0]
        gamma = difficulty_weights(semantic_pool([up]), tau=0.01)
        assert gamma[0] >= 0.999

    def test_hand_softmax(self):
        anchors = construct_etf(2, 3, seed=6)
        up = upload_at_anchors(anchors)
        up[2][:] = [np.log(2.0), 0.0]
        gamma = difficulty_weights(semantic_pool([up]), tau=1.0)
        assert np.allclose(gamma, [2 / 3, 1 / 3], atol=1e-12)

    def test_sums_to_one(self):
        anchors = construct_etf(5, 7, seed=7)
        up = upload_at_anchors(anchors)
        up[2][:] = np.arange(5.0)
        assert abs(difficulty_weights(semantic_pool([up]), tau=2.0).sum() - 1.0) <= 1e-12


class TestPooledEqualsPerReportLoop:
    @pytest.mark.parametrize("seed", range(40))
    def test_bit_equal_to_loop_oracles(self, seed):
        # about 20% of (client, class) entries absent; seeds 0 mod 4 leave
        # class 0 unreported by every client, and seeds 1 mod 4 give the first
        # report, the only one of class 0, deviations of -0.0 there, where the
        # sums start at +0.0
        rng = np.random.default_rng(seed)
        r, d = int(rng.integers(1, 12)), int(rng.integers(2, 7))
        c = int(rng.integers(2, d + 1))
        anchors = construct_etf(c, d, seed=seed)
        uploads = []
        for _ in range(r):
            present = rng.random(c) >= 0.2
            k = rng.standard_normal((d, c))
            k[:, ~present] = 0.0
            uploads.append((k, present, np.where(present, rng.random(c), 0.0)))
        if seed % 4 == 0:
            for k, present, losses in uploads:
                present[0] = False
                k[:, 0] = losses[0] = 0.0
        elif seed % 4 == 1:
            anchors[0] = 0.0
            uploads[0][1][:] = True
            uploads[0][0][0] = -0.0
            for k, present, losses in uploads[1:]:
                present[0] = False
                k[:, 0] = losses[0] = 0.0
        pool = semantic_pool(uploads)
        vs = deviation_vectors(pool, anchors)
        assert vs.tobytes() == deviation_vectors_loop(uploads, anchors).tobytes()
        for tau in (0.5, 1.0):
            assert (difficulty_weights(pool, tau).tobytes()
                    == difficulty_weights_loop(uploads, tau).tobytes())
        if seed % 4 == 1:
            assert vs[0, 0] == 0.0 and not np.signbit(vs[0, 0])   # +0.0, not the first -0.0


def _fedcal_origin(value):
    """The name of the fedcal module that value is, or that defines it; else None."""
    origin = value.__name__ if isinstance(value, types.ModuleType) else getattr(
        value, "__module__", None)
    return origin if isinstance(origin, str) and origin.split(".")[0] == "fedcal" else None


def test_refine_holds_no_structural_name_and_no_dataclass():
    import dataclasses

    from fedcal import fedsim, graph, model, refine, semantic, structural
    from fedcal.structural import MatchingMatrix

    # refine owns the server's manifolds, and semantic and structural are
    # array math: none of the three holds a name or module of another fedcal module
    held = [f"{module.__name__}.{name}" for module in (refine, semantic, structural)
            for name, value in vars(module).items()
            if _fedcal_origin(value) not in (None, module.__name__)]
    assert held == []
    assert not any(dataclasses.is_dataclass(value) for value in vars(refine).values())
    # and no client module reaches into the server's
    reached = [f"{client.__name__}.{name}" for client in (graph, model, semantic, structural)
               for name, value in vars(client).items()
               if _fedcal_origin(value) == refine.__name__]
    assert reached == []
    # the loss and the upload take the matching as a bare array, not the
    # solver's result type
    for module in (model, fedsim):
        assert not any(value is MatchingMatrix for value in vars(module).values())


class TestConstraintVector:
    def test_binary_hand_formula(self):
        anchors = construct_etf(2, 4, seed=8)
        s0 = constraint_vector(anchors, 0)
        # delta_1 = -delta_0, distance 2: s_0 = -delta_1/4 = delta_0/4
        assert np.abs(s0 - anchors[:, 0] / 4).max() <= 1e-9

    def test_parallel_for_exact_etf(self):
        for c in (2, 3, 5):
            anchors = construct_etf(c, c + 2, seed=c)
            for i in range(c):
                s = constraint_vector(anchors, i)
                d = anchors[:, i]
                cosine = s @ d / (np.linalg.norm(s) * np.linalg.norm(d))
                assert abs(cosine - 1.0) <= 1e-9

    def test_matches_bruteforce_on_perturbed_anchors(self):
        rng = np.random.default_rng(9)
        delta = construct_etf(4, 5, seed=9) + rng.standard_normal((5, 4)) * 0.05
        s = constraint_vector(delta, 2)
        manual = np.zeros(5)
        for j in (0, 1, 3):
            manual -= delta[:, j] / np.linalg.norm(delta[:, 2] - delta[:, j]) ** 2
        assert np.abs(s - manual).max() <= 1e-12

    def test_coincident_anchors_rejected(self):
        delta = np.ones((3, 2)) / np.sqrt(3)
        with pytest.raises(RuntimeError):
            constraint_vector(delta, 0)


class TestRefineAnchor:
    def test_fixed_point_on_zero_step(self):
        rng = np.random.default_rng(10)
        delta = rng.standard_normal(6)
        delta /= np.linalg.norm(delta)
        out = refine_anchor(delta, np.zeros(6), 0.5, np.zeros(6), 0.1)
        assert np.abs(out - delta).max() <= 1e-12

    def test_small_step_not_clipped(self):
        delta = np.zeros(4)
        delta[0] = 1.0
        v = np.array([0.0, 0.1, 0.0, 0.0])
        out = refine_anchor(delta, v, 1.0, np.zeros(4), 0.5)
        expected = delta + v
        expected /= np.linalg.norm(expected)
        assert np.abs(out - expected).max() <= 1e-9

    def test_long_step_clipped_to_eta(self):
        eta = 0.1
        delta = np.zeros(3)
        delta[0] = 1.0
        v = np.array([0.0, 1.0, 0.0])  # candidate 10x eta away
        step_len = np.linalg.norm(v)
        t = min(1.0, eta / (step_len + _STEP_GUARD))
        out = refine_anchor(delta, v, 1.0, np.zeros(3), eta)
        pre = delta + t * v
        assert np.abs(out - pre / np.linalg.norm(pre)).max() <= 1e-12
        assert t * step_len <= eta + 1e-12

    def test_output_unit_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            delta = rng.standard_normal(5)
            delta /= np.linalg.norm(delta)
            out = refine_anchor(
                delta, rng.standard_normal(5), rng.random(), rng.standard_normal(5) * 0.1, 0.1
            )
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_rejects_denormalized_anchor(self):
        with pytest.raises(ValueError):
            refine_anchor(np.array([2.0, 0.0]), np.zeros(2), 0.5, np.zeros(2), 0.1)

    @pytest.mark.parametrize("eta", [np.nan, -1.0, 0.0, np.inf])
    def test_rejects_eta_not_finite_and_positive(self, eta):
        # nan would skip the clip (min(1, nan) is 1) and -1 would step backwards
        delta = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=f"^eta must be finite and positive, got {eta}$"):
            refine_anchor(delta, np.array([0.0, 10.0, 0.0]), 1.0, np.zeros(3), eta)

    def test_step_onto_the_origin_rejected(self):
        # the candidate is the origin and eta = 2 lets the full step through
        delta = np.array([0.0, 1.0, 0.0])
        with pytest.raises(RuntimeError, match="^anchor update collapsed to the origin; "
                                               "projection undefined$"):
            refine_anchor(delta, -delta, 1.0, np.zeros(3), 2.0)


@pytest.mark.parametrize("build, message", [
    (lambda: construct_etf(1, 4, seed=0), "need at least two classes"),
    (lambda: init_templates(0, 4, seed=0), "need at least one template"),
], ids=["etf_one_class", "no_templates"])
def test_global_manifold_builders_reject_empty_sizes(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


class TestRefineAllAnchors:
    def test_exact_etf_zero_deviation_is_fixed_point(self):
        anchors = construct_etf(4, 6, seed=12)
        uploads = [upload_at_anchors(anchors) for _ in range(3)]
        refined = refine_all_anchors(anchors, semantic_pool(uploads), 1.0, 0.1)
        assert np.abs(refined - anchors).max() <= 1e-12
        assert gram_drift(refined) <= 1e-9

    def test_unit_norms_after_noisy_round(self):
        rng = np.random.default_rng(13)
        anchors = construct_etf(3, 5, seed=13)
        uploads = []
        for _ in range(4):
            k, present, losses = upload_at_anchors(anchors, loss=rng.random())
            k += rng.standard_normal(k.shape) * 0.2
            uploads.append((k, present, losses))
        refined = refine_all_anchors(anchors, semantic_pool(uploads), 1.0, 0.1)
        assert refined.shape == anchors.shape
        norms = np.linalg.norm(refined, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-12
        assert gram_drift(refined) >= 0.0

    def test_drift_bounded_by_two_eta(self):
        rng = np.random.default_rng(14)
        eta = 0.05
        anchors = construct_etf(4, 7, seed=14)
        before = gram_drift(anchors)
        uploads = []
        for _ in range(3):
            k, present, losses = upload_at_anchors(anchors, loss=rng.random())
            k += rng.standard_normal(k.shape) * 0.5
            uploads.append((k, present, losses))
        refined = refine_all_anchors(anchors, semantic_pool(uploads), 1.0, eta)
        assert gram_drift(refined) <= before + 2 * eta + 1e-9

    def test_unreported_class_unchanged(self):
        anchors = construct_etf(3, 5, seed=15)
        k, present, losses = up = upload_at_anchors(anchors)
        present[1] = False
        k[:, 0] += 0.3
        refined = refine_all_anchors(anchors, semantic_pool([up]), 1.0, 0.1)
        assert np.array_equal(refined[:, 1], anchors[:, 1])
        assert not np.allclose(refined[:, 0], anchors[:, 0])

    def test_anchors_move_toward_deviation(self):
        anchors = construct_etf(2, 4, seed=16)
        up = upload_at_anchors(anchors)
        rng = np.random.default_rng(16)
        offset = rng.standard_normal(4) * 0.4
        up[0][:, 0] += offset
        vs = deviation_vectors(semantic_pool([up]), anchors)
        refined = refine_all_anchors(anchors, semantic_pool([up]), 1.0, 0.1)
        moved = refined[:, 0] - anchors[:, 0]
        assert moved @ vs[:, 0] > 0.0


class TestGw2Point:
    def test_equal_intra_distance_zero(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[5.0, 5.0], [5.0, 6.0]])
        assert gw_2point(a, b) <= 1e-15

    def test_isometry_invariance(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((2, 5))
        q = random_orthogonal(5, 17)
        b = a @ q.T + rng.standard_normal(5)
        assert gw_2point(a, b) <= 1e-8

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(18)
        ts = np.linspace(0.0, 0.5, 10001)
        s = ts ** 2 + (0.5 - ts) ** 2
        for _ in range(25):
            a = rng.standard_normal((2, 3))
            b = rng.standard_normal((2, 3))
            alpha = np.linalg.norm(a[0] - a[1])
            beta = np.linalg.norm(b[0] - b[1])
            grid = ((alpha ** 2 + beta ** 2) / 2 - 4 * alpha * beta * s).min()
            assert abs(gw_2point(a, b) - grid) <= 1e-6

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((2, 4))
        assert gw_2point(a, b) >= 0.0
        assert abs(gw_2point(a, b) - gw_2point(b, a)) <= 1e-12

    def test_zero_iff_equal_intra_distance(self):
        a = np.array([[0.0, 0.0], [2.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 2.5]])
        assert gw_2point(a, b) > 0.0


class TestUpdateTemplate:
    def _templates(self, d, q, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((q, 2, d))

    def test_identical_radials_reproduced_exactly(self):
        # golden section pins a flat quadratic minimum to ~sqrt(eps)
        rng = np.random.default_rng(20)
        rows = rng.standard_normal((2, 4))
        up = structural_upload([rows] * 5, np.ones((5, 1)))
        templates = self._templates(4, 1, 20)
        new = update_template(0, structural_pool([up]), templates)
        assert np.abs(new - rows).max() <= 1e-6
        assert template_objective(structural_pool([up]), 0, new) <= 1e-12

    def test_equal_intra_distances_pin_beta(self):
        rng = np.random.default_rng(21)
        base = rng.standard_normal((2, 3))
        alpha = np.linalg.norm(base[0] - base[1])
        shifted = base + 1.0
        up = structural_upload([base, shifted], np.ones((2, 1)))
        new = update_template(0, structural_pool([up]), self._templates(3, 1, 21))
        beta = np.linalg.norm(new[0] - new[1])
        assert abs(beta - alpha) <= 1e-4

    def test_beta_matches_grid_search(self):
        rng = np.random.default_rng(22)
        radial_rows = []
        for _ in range(6):
            rows = rng.standard_normal((2, 4))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            radial_rows.append(rows)
        f = rng.random((6, 2))
        f /= f.sum(axis=1, keepdims=True)
        up = structural_upload(radial_rows, f)
        templates = self._templates(4, 2, 22)
        for q in (0, 1):
            new = update_template(q, structural_pool([up]), templates)
            beta = np.linalg.norm(new[0] - new[1])
            alphas = np.array(
                [np.linalg.norm(r[0] - r[1]) for r in radial_rows]
            )
            grid = np.linspace(0.0, alphas.max(), 10001)
            objs = [
                float((f[:, q] * ((alphas - b) ** 2 / 2.0)).sum()) for b in grid
            ]
            best = grid[int(np.argmin(objs))]
            assert abs(beta - best) <= 1e-4

    def test_descent_property(self):
        rng = np.random.default_rng(23)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            radial_rows = [rng.standard_normal((2, 5)) for _ in range(8)]
            f = rng.random((8, 3))
            f /= f.sum(axis=1, keepdims=True)
            up = structural_upload(radial_rows, f)
            templates = self._templates(5, 3, seed + 50)
            for q in range(3):
                before = template_objective(structural_pool([up]), q, templates[q])
                new = update_template(q, structural_pool([up]), templates)
                after = template_objective(structural_pool([up]), q, new)
                assert after <= before + 1e-9

    def test_unassigned_template_unchanged(self):
        rng = np.random.default_rng(24)
        radial_rows = [rng.standard_normal((2, 3)) for _ in range(4)]
        f = np.zeros((4, 2))
        f[:, 0] = 1.0
        up = structural_upload(radial_rows, f)
        templates = self._templates(3, 2, 24)
        new = update_template(1, structural_pool([up]), templates)
        assert np.array_equal(new, templates[1])

    def test_coincident_mean_rows_use_seeded_direction(self):
        # two radials whose weighted mean rows coincide but with nonzero
        # intra-distances force the tie policy
        rows_a = np.array([[1.0, 0.0], [0.0, 0.0]])
        rows_b = np.array([[0.0, 0.0], [1.0, 0.0]])  # mean rows equal
        up = structural_upload([rows_a, rows_b], np.ones((2, 1)))
        templates = self._templates(2, 1, 25)
        new = update_template(0, structural_pool([up]), templates)
        beta = np.linalg.norm(new[0] - new[1])
        assert beta > 0.5  # realizes the searched intra-distance
        again = update_template(0, structural_pool([up]), templates)
        assert np.array_equal(new, again)


def reference_collect(uploads, q):
    """Per-radial weights, intra-distances and rows, one radial at a time."""
    weights, alphas, rows = [], [], []
    for radials, f in uploads:
        for i, r in enumerate(radials):
            weights.append(float(f[i, q]))
            alphas.append(float(np.linalg.norm(r[0] - r[1])))
            rows.append(r)
    return np.array(weights), np.array(alphas), rows


def reference_gw_values(alphas, beta):
    """Two-point GW values with the boundary, vertex and concavity branches."""
    base = (alphas ** 2 + beta ** 2) / 2.0
    boundary = base - alphas * beta
    vertex = base - alphas * beta / 2.0
    concave = alphas * beta >= 0.0
    return np.maximum(np.where(concave, boundary, np.minimum(boundary, vertex)), 0.0)


def reference_update(q, uploads, templates):
    """update_template with a sequential weighted-mean loop."""
    weights, alphas, rows = reference_collect(uploads, q)
    total = weights.sum()
    if total <= 0.0:
        return templates[q].copy()
    hi = float(alphas.max())
    beta = 0.0 if hi <= 0.0 else _golden_section(
        lambda b: float((weights * reference_gw_values(alphas, b)).sum()),
        0.0, hi,
    )
    mean_rows = np.zeros_like(templates[q])
    for w, r in zip(weights, rows):
        mean_rows += w * r
    mean_rows /= total
    mid = mean_rows.mean(axis=0)
    axis = mean_rows[0] - mean_rows[1]
    norm = np.linalg.norm(axis)
    if norm <= 1e-12:
        axis = np.random.default_rng(q).standard_normal(mean_rows.shape[1])
        norm = np.linalg.norm(axis)
    direction = axis / norm
    return np.vstack([mid + beta / 2.0 * direction, mid - beta / 2.0 * direction])


class TestServerPathReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_per_radial_reference(self, seed):
        # three clients with B = 5, 7 and 1; template 2 gets zero weight
        rng = np.random.default_rng(seed)
        d, q_count = 6, 3
        uploads = []
        for b in (5, 7, 1):
            rows = rng.standard_normal((b, 2, d))
            rows /= np.linalg.norm(rows, axis=2, keepdims=True)
            f = rng.random((b, q_count))
            f[:, 2] = 0.0
            f /= f.sum(axis=1, keepdims=True)
            uploads.append(structural_upload(list(rows), f))
        templates = rng.standard_normal((q_count, 2, d))
        for q in range(q_count):
            new = update_template(q, structural_pool(uploads), templates)
            assert np.array_equal(new, reference_update(q, uploads, templates))
            weights, alphas, _ = reference_collect(uploads, q)
            beta = float(np.linalg.norm(new[0] - new[1]))
            expected = float((weights * reference_gw_values(alphas, beta)).sum())
            assert template_objective(structural_pool(uploads), q, new) == expected
        assert np.array_equal(update_template(2, structural_pool(uploads), templates), templates[2])

    def test_coincident_mean_equals_reference(self):
        rows_a = np.array([[1.0, 0.0], [0.0, 0.0]])
        rows_b = np.array([[0.0, 0.0], [1.0, 0.0]])
        uploads = [structural_upload([rows_a], np.ones((1, 1))),
                   structural_upload([rows_b], np.ones((1, 1)))]
        templates = np.zeros((1, 2, 2))
        assert np.array_equal(update_template(0, structural_pool(uploads), templates),
                              reference_update(0, uploads, templates))

    def test_zero_intra_distances_equal_reference(self):
        # every alpha is zero, so the scale search runs on the bracket [0, 0]
        rows = np.array([[0.6, 0.8, 0.0], [0.6, 0.8, 0.0]])
        uploads = [structural_upload([rows, rows], np.ones((2, 1)))]
        templates = np.zeros((1, 2, 3))
        new = update_template(0, structural_pool(uploads), templates)
        assert np.array_equal(new, reference_update(0, uploads, templates))
        assert np.array_equal(new, rows)


class TestConstructEtf:
    def test_binary_anchors_are_antipodal(self):
        for d in (2, 5, 16):
            a = construct_etf(2, d, seed=d)
            assert abs(a[:, 0] @ a[:, 1] + 1.0) <= 1e-9

    def test_three_class_gram(self):
        a = construct_etf(3, 4, seed=1)
        gram = a.T @ a
        assert np.abs(np.diag(gram) - 1.0).max() <= 1e-9
        off = gram[~np.eye(3, dtype=bool)]
        assert np.abs(off + 0.5).max() <= 1e-9

    def test_columns_sum_to_zero(self):
        a = construct_etf(5, 9, seed=2)
        assert np.linalg.norm(a.sum(axis=1)) <= 1e-9

    @pytest.mark.parametrize("c", range(2, 11))
    def test_gram_structure_across_dims(self, c):
        for d in (c, 2 * c, 64):
            a = construct_etf(c, d, seed=c * 100 + d)
            gram = a.T @ a
            assert np.abs(np.diag(gram) - 1.0).max() <= 1e-9
            off = gram[~np.eye(c, dtype=bool)]
            assert np.abs(off + 1.0 / (c - 1)).max() <= 1e-9

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError, match="rank"):
            construct_etf(5, 3, seed=0)

    def test_deterministic(self):
        assert np.array_equal(construct_etf(4, 8, 7), construct_etf(4, 8, 7))


class TestSoftmax:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="^softmax input contains non-finite entries$"):
            softmax([0.0, np.nan], 1.0)

    def test_uniform_on_equal_inputs(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0], 1.0), np.full(3, 1 / 3), atol=1e-12)

    def test_hand_ratio(self):
        out = softmax([np.log(2.0), 0.0], 1.0)
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-12)

    def test_large_temperature_flattens(self):
        out = softmax([10.0, 0.0], 1e6)
        assert np.allclose(out, [0.5, 0.5], atol=1e-4)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            softmax([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            softmax([1.0, 2.0], -1.0)

    def test_sums_to_one_and_positive(self):
        out = softmax([100.0, -100.0, 3.0], 1.0)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out > 0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.floats(-50, 50),
    )
    def test_shift_invariance(self, values, shift):
        a = softmax(values, 1.0)
        b = softmax([v + shift for v in values], 1.0)
        assert np.abs(a - b).max() <= 1e-12


class TestRandomOrthogonal:
    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
            random_orthogonal(0, seed=0)

    def test_dimension_one_sign(self):
        assert np.allclose(random_orthogonal(1, 0), [[1.0]])
        assert np.allclose(random_orthogonal(1, 12345), [[1.0]])

    @pytest.mark.parametrize("d", [2, 5, 16, 64])
    def test_orthogonality(self, d):
        q = random_orthogonal(d, seed=d)
        assert np.abs(q.T @ q - np.eye(d)).max() <= 1e-10

    def test_deterministic(self):
        assert np.array_equal(random_orthogonal(8, 99), random_orthogonal(8, 99))

    def test_different_seeds_differ(self):
        assert not np.allclose(random_orthogonal(4, 1), random_orthogonal(4, 2))
