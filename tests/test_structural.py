import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from fedcal.fedsim import sample_structural_batch
from fedcal.graph import Graph, HopAggregator, generate_sbm
from fedcal.model import forward, init_params, total_loss
from fedcal.refine import init_templates, random_orthogonal
from fedcal.structural import (
    _logsumexp,
    l2_normalize_rows,
    radial_sequences_from_rings,
    sinkhorn_match,
    structural_loss,
    structural_loss_ego,
)
from oracles import (
    neighbors,
    ot_distance,
    radial_sequence,
    star_graph,
    structural_loss_pairs,
)


def random_radials(count, d, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        rows = rng.standard_normal((2, d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        out.append(rows)
    return np.stack(out)


class TestRadialSequence:
    def test_star_center(self):
        g = star_graph(5)
        ego = np.tile(np.array([[3.0, 4.0, 0.0]]), (6, 1))
        rad = radial_sequence(g, ego, 0)
        expected = np.array([0.6, 0.8, 0.0])
        assert np.allclose(rad[0], expected, atol=1e-12)
        assert np.allclose(rad[1], expected, atol=1e-12)

    def test_isolated_node_falls_back_to_ego(self):
        g = Graph.from_edges(np.ones((1, 2)), [0], [])
        ego = np.array([[3.0, 4.0]])
        rad = radial_sequence(g, ego, 0)
        assert np.allclose(rad, [[0.6, 0.8], [0.6, 0.8]], atol=1e-12)

    def test_path_hand_case(self):
        # path 0-1-2-3, hand-set scalar egos
        g = Graph.from_edges(
            np.zeros((4, 1)), np.zeros(4, dtype=int), [(0, 1), (1, 2), (2, 3)]
        )
        ego = np.array([[1.0], [2.0], [3.0], [4.0]])
        rad = radial_sequence(g, ego, 1)
        # ring1(1) = mean(1, 3) = 2 ; ring2(1) = {3} -> 4 ; hop2 = (2+4)/2 = 3
        assert np.allclose(rad, [[1.0], [1.0]])
        rad0 = radial_sequence(g, ego, 0)
        # ring1(0) = 2 ; ring2(0) = {2} -> 3 ; hop2 = 2.5 ; all normalize to 1
        assert np.allclose(rad0, [[1.0], [1.0]])
        # sign is preserved through normalization
        rad_neg = radial_sequence(g, -ego, 0)
        assert np.allclose(rad_neg, [[-1.0], [-1.0]])

    def test_matches_aggregator_rings(self):
        g = generate_sbm(30, 2, 0.15, 0.05, 4, 1.0, seed=3)
        rng = np.random.default_rng(0)
        ego = rng.standard_normal((30, 5))
        agg = HopAggregator(g)
        rings = agg.rings(ego)
        batch = np.arange(30)
        fast = radial_sequences_from_rings(rings[batch])
        for v in range(30):
            slow = radial_sequence(g, ego, v)
            assert np.abs(slow - fast[v]).max() <= 1e-12

    def test_equals_one_normalize_over_the_stacked_rows(self):
        # one (2B, d) call gives each pair's bits, zero ring rows included
        rng = np.random.default_rng(21)
        n, d = 50, 6
        for _ in range(20):
            hop1 = rng.standard_normal((n, d)) * rng.uniform(0.01, 100, (n, 1))
            hop2 = rng.standard_normal((n, d)) * rng.uniform(0.01, 100, (n, 1))
            hop1[[3, 9]] = 0.0
            hop2[[9, 14]] = 0.0
            batch = np.concatenate([[3, 9, 14], rng.choice(np.arange(15, n), 20, replace=False)])
            rng.shuffle(batch)
            stacked = np.stack([hop1[batch], hop2[batch]], axis=1).reshape(-1, d)
            expected = l2_normalize_rows(stacked).reshape(len(batch), 2, d)
            rings = np.stack([hop1, hop2], axis=1)
            assert np.array_equal(radial_sequences_from_rings(rings[batch]), expected)

    def test_leaves_pairs_unwritten(self):
        rng = np.random.default_rng(5)
        pairs = rng.standard_normal((7, 2, 4)) * 3.0
        pairs[2, 1] = 0.0
        before = pairs.copy()
        radials = radial_sequences_from_rings(pairs)
        assert pairs.tobytes() == before.tobytes()
        assert not np.shares_memory(radials, pairs)
        assert np.array_equal(radials[2, 1], np.zeros(4))

    def test_rows_unit_norm(self):
        g = generate_sbm(20, 2, 0.2, 0.1, 3, 1.0, seed=1)
        rng = np.random.default_rng(1)
        ego = rng.standard_normal((20, 4))
        for v in range(20):
            rows = radial_sequence(g, ego, v)
            norms = np.linalg.norm(rows, axis=1)
            assert np.abs(norms[norms > 0] - 1.0).max() <= 1e-12


class TestOtDistance:
    def test_identity(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert ot_distance(a, a) == 0.0

    def test_row_swap_absorbed(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert ot_distance(a, a[::-1]) == 0.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((2, 3))
            b = rng.standard_normal((2, 3))
            perms = [
                0.5 * (np.sum((a[0] - b[0]) ** 2) + np.sum((a[1] - b[1]) ** 2)),
                0.5 * (np.sum((a[0] - b[1]) ** 2) + np.sum((a[1] - b[0]) ** 2)),
            ]
            assert abs(ot_distance(a, b) - min(perms)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((2, 4))
        assert ot_distance(a, b) >= 0.0
        assert abs(ot_distance(a, b) - ot_distance(b, a)) <= 1e-12

    def test_orthogonal_invariance_applied_to_both(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 5))
        b = rng.standard_normal((2, 5))
        q = random_orthogonal(5, 4)
        assert abs(ot_distance(a, b) - ot_distance(a @ q.T, b @ q.T)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ot_distance(np.zeros((2, 3)), np.zeros((2, 4)))


class TestSinkhorn:
    def test_constant_cost_gives_uniform_rows(self):
        radials = [np.eye(2, 3) for i in range(4)]
        templates = np.tile(np.eye(2, 3)[None], (3, 1, 1))
        match = sinkhorn_match(radials, templates)
        assert np.abs(match.f - 1 / 3).max() <= 1e-9

    def test_near_hard_assignment_limit(self):
        d = 4
        rng = np.random.default_rng(5)
        rows_a = rng.standard_normal((2, d))
        rows_b = rows_a + 10.0
        radials = [rows_a, rows_b]
        templates = np.stack([rows_a, rows_b])
        match = sinkhorn_match(radials, templates, epsilon=0.01)
        assert match.f[0, 0] >= 0.99
        assert match.f[1, 1] >= 0.99

    def test_marginals(self):
        # a sharp epsilon on contested assignments converges slowly, so
        # give the solver room; marginals are the claim at convergence
        radials = random_radials(6, 4, seed=6)
        templates = init_templates(3, 4, seed=6)
        match = sinkhorn_match(radials, templates, max_iters=50000)
        assert match.converged
        assert np.abs(match.f.sum(axis=1) - 1.0).max() <= 1e-6
        assert np.abs(match.f.sum(axis=0) - 6 / 3).max() <= 1e-4

    def test_row_sums_hold_even_unconverged(self):
        radials = random_radials(6, 4, seed=6)
        templates = init_templates(3, 4, seed=6)
        match = sinkhorn_match(radials, templates, max_iters=50)
        assert not match.converged
        assert np.abs(match.f.sum(axis=1) - 1.0).max() <= 1e-6

    def test_rejects_epsilon_that_leaves_rows_off_one(self):
        # at epsilon = 1e-18 a row of the loop's last iterate is off 1 by 0.17
        radials = np.stack(random_radials(16, 4, seed=1))
        templates = init_templates(2, 4, seed=1)
        with pytest.raises(ValueError, match=r"epsilon = 1e-18 .* off 1 by"):
            sinkhorn_match(radials, templates, epsilon=1e-18)

    def test_debug_trace_monotone(self):
        radials = random_radials(8, 5, seed=7)
        templates = init_templates(4, 5, seed=7)
        match = sinkhorn_match(radials, templates, debug=True)
        trace = match.objective_trace
        assert trace is not None and len(trace) >= 2
        assert np.all(np.diff(trace) >= -1e-12)

    def test_nonconvergence_flagged_not_fatal(self):
        radials = random_radials(5, 3, seed=8)
        templates = init_templates(4, 3, seed=8)
        match = sinkhorn_match(radials, templates, max_iters=1, tol=1e-14)
        assert not match.converged
        assert match.f.shape == (5, 4)
        assert np.all(np.isfinite(match.f))

    def test_rejects_bad_epsilon(self):
        radials = random_radials(2, 3, seed=9)
        templates = init_templates(2, 3, seed=9)
        with pytest.raises(ValueError):
            sinkhorn_match(radials, templates, epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan])
    def test_rejects_non_finite_epsilon(self, epsilon):
        radials = random_radials(2, 3, seed=9)
        templates = init_templates(2, 3, seed=9)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            sinkhorn_match(radials, templates, epsilon=epsilon)

    def test_rejects_epsilon_that_leaves_kernel_non_finite(self):
        radials = random_radials(4, 3, seed=9)
        templates = init_templates(2, 3, seed=9)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="epsilon"):
                sinkhorn_match(radials, templates, epsilon=1e-320)

    @pytest.mark.parametrize("bad", [{"max_iters": 0}, {"tol": 0.0}, {"tol": -1.0},
                                     {"tol": np.nan}, {"tol": np.inf}])
    def test_rejects_bad_stopping_rule(self, bad):
        radials = random_radials(2, 3, seed=9)
        templates = init_templates(2, 3, seed=9)
        with pytest.raises(ValueError, match=next(iter(bad))):
            sinkhorn_match(radials, templates, **bad)


def reference_sinkhorn(radials, templates, epsilon, max_iters, tol, debug):
    """The loop sinkhorn_match ran before its inner-loop trims: fresh
    u + kernel sums, exp(log_b) and a full coupling every iteration."""
    keep = ((radials[:, None] - templates[None]) ** 2).sum(axis=(2, 3))
    swap = ((radials[:, None] - templates[None, :, ::-1]) ** 2).sum(axis=(2, 3))
    cost = 0.5 * np.minimum(keep, swap)
    mean = cost.mean()
    log_kernel = -(cost / mean if mean > 0 else cost) / epsilon
    nb, nq = cost.shape
    log_a, log_b = np.full(nb, -np.log(nb)), np.full(nq, -np.log(nq))
    u, v, trace, converged = np.zeros(nb), np.zeros(nq), [], False
    for iters in range(1, max_iters + 1):
        v = log_b - scipy_logsumexp(log_kernel + u[:, None], axis=0)
        u = log_a - scipy_logsumexp(log_kernel + v[None, :], axis=1)
        if debug:
            mass = np.exp(u[:, None] + log_kernel + v[None, :]).sum()
            trace.append(
                epsilon * (float(u @ np.exp(log_a)) + float(v @ np.exp(log_b)) - mass)
            )
        coupling = np.exp(u[:, None] + log_kernel + v[None, :])
        if np.abs(coupling.sum(axis=0) - np.exp(log_b)).sum() < tol:
            converged = True
            break
    coupling = np.exp(u[:, None] + log_kernel + v[None, :])
    return nb * coupling, iters, converged, np.array(trace)


class TestSinkhornReference:
    CASES = [
        # (B, Q, d, epsilon, max_iters, seed)
        (1, 1, 3, 0.05, 500, 0),
        (7, 3, 4, 0.05, 5, 1),                       # stopped at max_iters
        (64, 4, 8, 0.05, 500, 2),
        (120, 2, 8, 0.05, 500, 3),
        (33, 5, 6, 0.01, 200, 4),
        (90, 4, 8, 0.2, 500, 5),
    ]

    @pytest.mark.parametrize("nb, nq, d, epsilon, max_iters, seed", CASES)
    @pytest.mark.parametrize("debug", [False, True])
    def test_equals_untrimmed_loop(self, nb, nq, d, epsilon, max_iters, seed, debug):
        radials = random_radials(nb, d, seed)
        templates = init_templates(nq, d, seed=seed + 100)
        match = sinkhorn_match(radials, templates, epsilon=epsilon,
                               max_iters=max_iters, tol=1e-6, debug=debug)
        f, iters, converged, trace = reference_sinkhorn(
            radials, templates, epsilon, max_iters, 1e-6, debug
        )
        assert np.array_equal(match.f, f)
        assert (match.iterations, match.converged) == (iters, converged)
        if debug:
            assert np.array_equal(match.objective_trace, trace)

    def test_cases_cover_the_iteration_cap(self):
        capped = []
        for nb, nq, d, epsilon, max_iters, seed in self.CASES:
            match = sinkhorn_match(random_radials(nb, d, seed),
                                   init_templates(nq, d, seed=seed + 100),
                                   epsilon=epsilon, max_iters=max_iters)
            capped.append(not match.converged and match.iterations == max_iters)
        assert any(capped) and not all(capped)

    @pytest.mark.parametrize("nq", [1, 2, 3, 7, 8, 9, 12])
    @pytest.mark.parametrize("nb", [1, 2, 7, 8, 9, 160, 300])
    def test_grid_with_ties_equals_untrimmed_loop(self, nb, nq):
        # the second half of the radials repeats the first, and for Q >= 3
        # the last template repeats the first, so maxima tie on both axes
        radials = random_radials(nb, 4, seed=nb * 100 + nq)
        radials[nb // 2:] = radials[:nb - nb // 2]
        templates = init_templates(nq, 4, seed=nq)
        if nq >= 3:
            templates[-1] = templates[0]
        match = sinkhorn_match(radials, templates, debug=True)
        f, iters, converged, trace = reference_sinkhorn(radials, templates, 0.05, 500,
                                                        1e-6, True)
        assert match.f.flags.c_contiguous
        assert np.array_equal(match.f, f)
        assert (match.iterations, match.converged) == (iters, converged)
        assert np.array_equal(match.objective_trace, trace)

    @pytest.mark.parametrize("debug", [False, True])
    def test_capped_grid_case_equals_untrimmed_loop(self, debug):
        radials = random_radials(160, 4, seed=11)
        radials[80:] = radials[:80]
        templates = init_templates(9, 4, seed=11)
        match = sinkhorn_match(radials, templates, max_iters=7, debug=debug)
        f, iters, converged, trace = reference_sinkhorn(radials, templates, 0.05, 7,
                                                        1e-6, debug)
        assert (match.iterations, match.converged) == (7, False) == (iters, converged)
        assert match.f.flags.c_contiguous
        assert np.array_equal(match.f, f)
        if debug:
            assert np.array_equal(match.objective_trace, trace)

    @pytest.mark.parametrize("nb", [1, 2, 7, 8, 9, 160, 300])
    def test_tied_template_pair_equals_untrimmed_loop(self, nb):
        # two equal templates tie every line of the Q = 2 closed form
        radials = random_radials(nb, 4, seed=nb * 100 + 2)
        radials[nb // 2:] = radials[:nb - nb // 2]
        templates = init_templates(2, 4, seed=2)
        templates[1] = templates[0]
        match = sinkhorn_match(radials, templates, debug=True)
        f, iters, converged, trace = reference_sinkhorn(radials, templates, 0.05, 500,
                                                        1e-6, True)
        assert np.array_equal(match.f, f)
        assert (match.iterations, match.converged) == (iters, converged)
        assert np.array_equal(match.objective_trace, trace)

    def test_zero_cost_equals_untrimmed_loop(self):
        radials = np.tile(np.eye(2, 3)[None], (4, 1, 1))
        templates = np.tile(np.eye(2, 3)[None], (3, 1, 1))
        match = sinkhorn_match(radials, templates)
        f, iters, converged, _ = reference_sinkhorn(radials, templates, 0.05, 500,
                                                    1e-6, False)
        assert np.array_equal(match.f, f)
        assert (match.iterations, match.converged) == (iters, converged)


class TestLogsumexp:
    @staticmethod
    def tied(nq, nb, axis, seed):
        """A (Q, B) array whose even lines along the other axis repeat
        their maximum along axis; with axis=None, no injected ties."""
        x = np.random.default_rng(seed).standard_normal((nq, nb)) * 3.0
        if axis == 0 and nq >= 2:
            x[-1, ::2] = x[:-1, ::2].max(axis=0)
        if axis == 1 and nb >= 2:
            x[::2, -1] = x[::2, :-1].max(axis=1)
        return x

    @pytest.mark.parametrize("tie_axis", [None, 0, 1])
    @pytest.mark.parametrize("nq", [1, 2, 3, 7, 8, 9, 12])
    def test_equals_scipy_on_the_batch_major_layout(self, nq, tie_axis):
        # sinkhorn_match's (Q, B) array is the transpose of SciPy's (B, Q) one
        for nb in [1, 2, 7, 8, 9, 160, 300]:
            x = self.tied(nq, nb, tie_axis, seed=nq * 1000 + nb)
            batch_major = np.ascontiguousarray(x.T)
            for axis in (0, 1):                       # axis 0 with Q = 2 is the pair form
                expected = scipy_logsumexp(batch_major, axis=1 - axis)
                assert np.array_equal(_logsumexp(x, axis), expected)

    @pytest.mark.parametrize("nb", [1, 2, 7, 8, 9, 160, 300])
    def test_pair_form_with_every_line_tied(self, nb):
        x = self.tied(2, nb, None, seed=nb)
        x[1] = x[0]
        expected = scipy_logsumexp(np.ascontiguousarray(x.T), axis=1)
        assert np.array_equal(_logsumexp(x, 0), expected)

    def test_log1p_of_one_is_log_two(self):
        # the pair form's value at a tie, log1p(1) + hi, is SciPy's
        # log1p(0) + log(2) + hi only while these bits agree
        for size in [1, 2, 3, 7, 8, 9, 16, 17, 160]:
            assert np.array_equal(np.log1p(np.ones(size)), np.log(np.full(size, 2.0)))


class TestStructuralLoss:
    def test_matching_of_the_wrong_shape_rejected(self):
        radials = random_radials(3, 4, seed=9)
        with pytest.raises(ValueError,
                           match=r"^matching shape \(2, 2\) does not fit B=3, Q=2$"):
            structural_loss(np.ones((2, 2)), radials, init_templates(2, 4, seed=9))

    def test_zero_at_hard_assigned_templates(self):
        radials = random_radials(3, 4, seed=10)
        templates = radials.copy()
        loss, grad = structural_loss(np.eye(3), radials, templates)
        assert loss <= 1e-20
        assert np.abs(grad).max() <= 1e-12

    def test_zero_template_unit_rows(self):
        radials = random_radials(5, 4, seed=11)
        templates = np.zeros((1, 2, 4))
        loss, _ = structural_loss(np.ones((5, 1)), radials, templates)
        assert abs(loss - 1.0) <= 1e-12

    def test_invariant_to_joint_reordering(self):
        radials = random_radials(6, 3, seed=12)
        templates = init_templates(3, 3, seed=12)
        f = sinkhorn_match(radials, templates).f
        loss, _ = structural_loss(f, radials, templates)
        perm = np.array([3, 0, 5, 1, 4, 2])
        shuffled = [radials[i] for i in perm]
        loss2, _ = structural_loss(f[perm], shuffled, templates)
        assert abs(loss - loss2) <= 1e-12

    def test_row_gradient_matches_finite_differences(self):
        radials = random_radials(4, 3, seed=13)
        templates = init_templates(2, 3, seed=13)
        f = sinkhorn_match(radials, templates).f
        loss, grad = structural_loss(f, radials, templates)
        eps = 1e-6
        for (b, r, j) in [(0, 0, 1), (2, 1, 0), (3, 0, 2)]:
            plus = radials.copy()
            plus[b, r, j] += eps
            up, _ = structural_loss(f, plus, templates)
            plus[b, r, j] -= 2 * eps
            down, _ = structural_loss(f, plus, templates)
            num = (up - down) / (2 * eps)
            assert abs(num - grad[b, r, j]) / max(abs(num), 1e-8) <= 1e-4

    @staticmethod
    def loss_inputs(kind, nb, nq, seed):
        """(f, radials, templates): unit rows, small integers with a planted
        tie whose two pairings differ, or every radial and template made of
        two equal rows, so that keep equals swap on every pair."""
        rng = np.random.default_rng(seed)
        f = rng.dirichlet(np.ones(nq), size=nb)
        if kind == "unit":
            return f, random_radials(nb, 4, seed), init_templates(nq, 4, seed)
        if kind == "integer":
            radials = rng.integers(-2, 3, (nb, 2, 4)).astype(np.float64)
            templates = rng.integers(-2, 3, (nq, 2, 4)).astype(np.float64)
            # keep = swap = 4, and the two pairings match different rows
            radials[0] = [[1, 0, 0, 0], [0, 1, 0, 0]]
            templates[0] = [[0, 0, 1, 0], [0, 0, -1, 0]]
            return f, radials, templates
        radials = np.repeat(rng.standard_normal((nb, 1, 4)), 2, axis=1)
        templates = np.repeat(rng.standard_normal((nq, 1, 4)), 2, axis=1)
        return f, radials, templates

    @pytest.mark.parametrize("kind", ["unit", "integer", "all_tied"])
    @pytest.mark.parametrize("nq", [1, 2, 3, 9])
    @pytest.mark.parametrize("nb", [1, 7, 160])
    def test_equals_per_pair_reference(self, kind, nb, nq):
        f, radials, templates = self.loss_inputs(kind, nb, nq, seed=100 * nb + nq)
        loss, grad = structural_loss(f, radials, templates)
        ref_loss, ref_grad = structural_loss_pairs(f, radials, templates)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=0.0)


class TestPairingInputCheck:
    """sinkhorn_match and structural_loss share one check of their inputs."""

    @staticmethod
    def call(name, radials, templates):
        if name == "sinkhorn_match":
            return sinkhorn_match(radials, templates)
        f = np.ones((len(radials), len(templates)))
        return structural_loss(f, radials, templates)

    @pytest.mark.parametrize("name", ["sinkhorn_match", "structural_loss"])
    def test_rejects_zero_templates(self, name):
        with pytest.raises(ValueError, match=r"\(4, 2, 3\) and \(0, 2, 3\)"):
            self.call(name, random_radials(4, 3, seed=20), np.zeros((0, 2, 3)))

    @pytest.mark.parametrize("name", ["sinkhorn_match", "structural_loss"])
    def test_rejects_zero_radials(self, name):
        with pytest.raises(ValueError, match=r"\(0, 2, 3\) and \(2, 2, 3\)"):
            self.call(name, np.zeros((0, 2, 3)), init_templates(2, 3, seed=20))

    @pytest.mark.parametrize("name", ["sinkhorn_match", "structural_loss"])
    def test_rejects_three_row_sequences(self, name):
        rng = np.random.default_rng(21)
        radials, templates = rng.standard_normal((5, 3, 4)), rng.standard_normal((2, 3, 4))
        with pytest.raises(ValueError, match=r"\(5, 3, 4\) and \(2, 3, 4\)"):
            self.call(name, radials, templates)

    @pytest.mark.parametrize("name", ["sinkhorn_match", "structural_loss"])
    def test_rejects_mismatched_dimension(self, name):
        with pytest.raises(ValueError, match=r"\(4, 2, 3\) and \(2, 2, 5\)"):
            self.call(name, random_radials(4, 3, seed=22), init_templates(2, 5, seed=22))

    @pytest.mark.parametrize("name", ["sinkhorn_match", "structural_loss"])
    def test_rejects_all_nan_radials_naming_them(self, name):
        with pytest.raises(ValueError, match="radials hold a non-finite value"):
            self.call(name, np.full((4, 2, 3), np.nan), init_templates(2, 3, seed=23))

    @pytest.mark.parametrize("name", ["sinkhorn_match", "structural_loss"])
    def test_rejects_infinite_template_naming_it(self, name):
        templates = init_templates(2, 3, seed=24)
        templates[1, 0, 2] = -np.inf
        with pytest.raises(ValueError, match="templates hold a non-finite value"):
            self.call(name, random_radials(4, 3, seed=24), templates)


class TestStructuralLossEgo:
    @staticmethod
    def ego_gradient(agg, batch, g_pairs):
        """The ego gradient total_loss pulls back from the batch's pair gradient."""
        g_rings = np.zeros((len(agg.rows),) + g_pairs.shape[1:])
        np.add.at(g_rings, agg.positions(batch, "batch"), g_pairs)
        return agg.backward(g_rings)

    def test_gradient_matches_finite_differences(self):
        g = generate_sbm(15, 2, 0.25, 0.1, 3, 1.0, seed=14)
        rng = np.random.default_rng(14)
        ego = rng.standard_normal((15, 4)) * 0.7
        agg = HopAggregator(g)
        templates = init_templates(3, 4, seed=14)
        batch = sample_structural_batch(g, 6, seed=14)
        rings = agg.rings(ego)
        radials = radial_sequences_from_rings(rings[batch])
        f = sinkhorn_match(radials, templates).f

        loss, g_pairs = structural_loss_ego(rings[batch], f, templates)
        grad = self.ego_gradient(agg, batch, g_pairs)
        eps = 1e-6
        rng2 = np.random.default_rng(15)
        for _ in range(12):
            i = rng2.integers(15)
            j = rng2.integers(4)
            bumped = ego.copy()
            bumped[i, j] += eps
            up, _ = structural_loss_ego(agg.rings(bumped)[batch], f, templates)
            bumped[i, j] -= 2 * eps
            down, _ = structural_loss_ego(agg.rings(bumped)[batch], f, templates)
            num = (up - down) / (2 * eps)
            if abs(num) < 1e-12 and abs(grad[i, j]) < 1e-12:
                continue
            assert abs(num - grad[i, j]) / max(abs(num), abs(grad[i, j]), 1e-8) <= 1e-4

    def test_rejects_batch_node_missing_from_rows(self):
        # total_loss maps the batch onto agg.rows; the graph is unsplit, so
        # no train node is missing and the batch is the first thing checked
        g = generate_sbm(40, 2, 0.3, 0.1, 3, 1.0, seed=0)
        ego = np.random.default_rng(0).standard_normal((40, 4))
        params = init_params(3, 4, 2, seed=0)
        agg = HopAggregator(g)
        templates = init_templates(3, 4, seed=0)
        batch = np.array([3, 7, 12, 30])
        rings = agg.rings(ego)
        f = sinkhorn_match(radial_sequences_from_rings(rings[batch]), templates).f
        structural = (f, batch, templates)
        local = agg.restrict(np.setdiff1d(np.arange(40), 7))
        train = np.flatnonzero(g.train_mask)
        with pytest.raises(ValueError, match="^batch node 7 is not in the aggregator's rows$"):
            total_loss(params, g, local, forward(params, g, local), train, None, structural)
        # a row set that ends before a batch node and an empty one are caught alike
        for rows, first in ((np.arange(5), 7), (np.arange(0), 3)):
            restricted = agg.restrict(rows)
            with pytest.raises(ValueError, match=f"^batch node {first} is not in"):
                total_loss(params, g, restricted, forward(params, g, restricted), train,
                           None, structural)

    def test_equals_per_node_reference(self):
        # isolated nodes with zero ego rows give zero rings; node 3 appears twice
        g = generate_sbm(30, 2, 0.15, 0.05, 3, 1.0, seed=21)
        ego = np.random.default_rng(21).standard_normal((30, 5))
        agg = HopAggregator(g)
        isolated = [v for v in range(30) if len(neighbors(g, v)) == 0]
        ego[isolated + [0]] = 0.0
        templates = init_templates(3, 5, seed=21)
        batch = np.array(isolated + [3, 0, 7, 3, 12], dtype=np.int64)
        rings = agg.rings(ego)
        hop1, hop2 = rings[:, 0], rings[:, 1]
        f = sinkhorn_match(radial_sequences_from_rings(rings[batch]), templates).f
        loss, g_pairs = structural_loss_ego(rings[batch], f, templates)
        grad = self.ego_gradient(agg, batch, g_pairs)

        ref_loss, grad_rows = structural_loss(
            f, radial_sequences_from_rings(rings[batch]), templates)
        g_hop1, g_hop2 = np.zeros_like(hop1), np.zeros_like(hop2)
        for i, b in enumerate(batch):
            for ring, h, store in ((0, hop1[b], g_hop1), (1, hop2[b], g_hop2)):
                norm = np.linalg.norm(h)
                if norm == 0.0:
                    continue
                r = h / norm
                gr = grad_rows[i, ring]
                store[b] += (gr - np.dot(gr, r) * r) / norm
        assert loss == ref_loss
        assert np.array_equal(grad, agg.backward(np.stack([g_hop1, g_hop2], axis=1)))


class TestL2NormalizeRows:
    def test_rejects_one_d_input(self):
        with pytest.raises(ValueError, match="^m must be a 2-D matrix, got ndim=1$"):
            l2_normalize_rows(np.array([3.0, 4.0]))

    def test_three_four_five(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-12)

    def test_zero_row_unchanged(self):
        out = l2_normalize_rows(np.array([[0.0, 0.0]]))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0, 0.0]])
        assert np.allclose(l2_normalize_rows(row), row, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 3)) * rng.uniform(0.1, 10)
        once = l2_normalize_rows(m)
        twice = l2_normalize_rows(once)
        assert np.abs(once - twice).max() <= 1e-12

    def test_nonzero_rows_unit_norm(self):
        rng = np.random.default_rng(0)
        out = l2_normalize_rows(rng.standard_normal((10, 6)))
        assert np.abs(np.linalg.norm(out, axis=1) - 1).max() <= 1e-12

    def test_equals_linalg_norm_division_bitwise(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((40, 8)) * rng.uniform(0.01, 100, (40, 1))
        m[[5, 17]] = 0.0
        norms = np.linalg.norm(m, axis=1)
        expected = m.copy()
        expected[norms > 0] = m[norms > 0] / norms[norms > 0, None]
        assert np.array_equal(l2_normalize_rows(m), expected)

    def test_empty_input_keeps_its_shape(self):
        assert l2_normalize_rows(np.zeros((0, 5))).shape == (0, 5)

    def test_without_zero_rows_equals_linalg_norm_division_bitwise(self):
        # the unmasked division; the test above, with zero rows, the masked one
        rng = np.random.default_rng(7)
        m = rng.standard_normal((40, 8)) * rng.uniform(0.01, 100, (40, 1))
        assert np.array_equal(l2_normalize_rows(m), m / np.linalg.norm(m, axis=1)[:, None])

    @pytest.mark.parametrize("zero_rows", [[], [1]])
    def test_writing_the_result_leaves_the_input(self, zero_rows):
        m = np.arange(1.0, 13.0).reshape(4, 3)
        m[zero_rows] = 0.0
        before = m.copy()
        out = l2_normalize_rows(m)
        out[...] = 7.0
        assert np.array_equal(m, before)

    def test_overflowing_squares_accepted_as_linalg_norm_division(self):
        # rows near 1e153 overflow only the total of all squares; they are
        # finite input and must pass
        m = np.random.default_rng(5).standard_normal((40, 8)) * 1e153
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.add.reduce(m * m, axis=None))
            expected = m / np.linalg.norm(m, axis=1)[:, None]
            assert np.array_equal(l2_normalize_rows(m), expected)

    def test_row_whose_squared_norm_overflows_rejected(self):
        # rows near 1e200 overflow their own squares: no rescale, an error
        big = np.random.default_rng(5).standard_normal((40, 8)) * 1e200
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError,
                               match="m holds a row whose squared norm overflows"):
                l2_normalize_rows(big)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        m = np.ones((3, 4))
        m[1, 2] = bad
        with pytest.raises(ValueError, match="m contains non-finite entries"):
            l2_normalize_rows(m)
