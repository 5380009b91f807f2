import numpy as np
import pytest

from fedcal.refine import construct_etf, random_orthogonal
from fedcal.semantic import (
    class_means,
    procrustes,
    semantic_loss,
    semantic_per_class_loss,
)


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


class TestClassMeans:
    def test_one_node_per_class(self):
        ego = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        labels = np.array([0, 1, 2])
        mask = np.ones(3, dtype=bool)
        p, present = class_means(ego, labels, mask, 3)
        assert np.allclose(p.T, ego)
        assert present.all()

    def test_absent_class_zeroed_and_masked(self):
        ego = np.array([[1.0, 1.0], [2.0, 2.0]])
        p, present = class_means(ego, np.array([0, 0]), np.ones(2, dtype=bool), 3)
        assert not present[1] and not present[2]
        assert np.array_equal(p[:, 1], np.zeros(2))

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(33)
        ego = rng.standard_normal((40, 6))
        labels = rng.integers(0, 4, size=40)
        mask = rng.random(40) < 0.6
        p, present = class_means(ego, labels, mask, 4)
        for c in range(4):
            rows = [ego[i] for i in range(40) if mask[i] and labels[i] == c]
            if rows:
                expected = np.zeros(6)
                for r in rows:
                    expected = expected + r
                expected /= len(rows)
                assert np.abs(p[:, c] - expected).max() <= 1e-12
            else:
                assert not present[c]

    def test_only_train_nodes_counted(self):
        ego = np.array([[1.0], [100.0]])
        p, _ = class_means(ego, np.array([0, 0]), np.array([True, False]), 1)
        assert p[0, 0] == 1.0


class TestProcrustes:
    def test_identity_when_already_aligned(self):
        a = construct_etf(4, 6, seed=3)
        p = a.copy()
        rot = procrustes(p, np.ones(4, dtype=bool), a)
        assert np.linalg.norm(rot @ p - a) <= 1e-8
        # the rotation acts as the identity on the anchor span
        assert np.abs(rot @ a - a).max() <= 1e-8

    def test_recovers_orthogonal_misalignment(self):
        a = construct_etf(5, 8, seed=4)
        q = random_orthogonal(8, 44)
        p = q.T @ a
        rot = procrustes(p, np.ones(5, dtype=bool), a)
        assert np.linalg.norm(rot @ p - a) <= 1e-8
        assert np.abs(rot.T @ rot - np.eye(8)).max() <= 1e-8

    def test_lemma_error_identity(self):
        # ||R P - delta||^2 = ||P||^2 + ||delta||^2 - 2 tr(Sigma)
        from fedcal.semantic import svd

        rng = np.random.default_rng(5)
        a = construct_etf(6, 10, seed=5)
        p = rng.standard_normal((10, 6))
        rot = procrustes(p, np.ones(6, dtype=bool), a)
        err = np.linalg.norm(rot @ p - a) ** 2
        _, sigma, _ = svd(a @ p.T)
        identity = (
            np.linalg.norm(p) ** 2 + np.linalg.norm(a) ** 2 - 2 * sigma.sum()
        )
        assert abs(err - identity) <= 1e-8

    def test_optimality_against_random_candidates(self):
        rng = np.random.default_rng(6)
        a = construct_etf(4, 7, seed=6)
        p = rng.standard_normal((7, 4))
        rot = procrustes(p, np.ones(4, dtype=bool), a)
        best = np.linalg.norm(rot @ p - a)
        for cand_seed in range(200):
            q = random_orthogonal(7, cand_seed)
            assert best <= np.linalg.norm(q @ p - a) + 1e-9

    def test_absent_classes_excluded(self):
        a = construct_etf(4, 6, seed=7)
        q = random_orthogonal(6, 77)
        p = q.T @ a
        p[:, 2] = 0.0
        present = np.array([True, True, False, True])
        rot = procrustes(p, present, a)
        aligned = rot @ p
        assert np.linalg.norm(aligned[:, present] - a[:, present]) <= 1e-8

    def test_all_absent_raises(self):
        a = construct_etf(3, 5, seed=8)
        with pytest.raises(RuntimeError):
            procrustes(np.zeros((5, 3)), np.zeros(3, dtype=bool), a)

    def test_pairwise_distance_preservation(self):
        # orthogonality makes calibration an isometry on class means
        rng = np.random.default_rng(9)
        a = construct_etf(5, 9, seed=9)
        p = rng.standard_normal((9, 5))
        rot = procrustes(p, np.ones(5, dtype=bool), a)
        for i in range(5):
            for j in range(i + 1, 5):
                before = np.linalg.norm(p[:, i] - p[:, j])
                after = np.linalg.norm(rot @ p[:, i] - rot @ p[:, j])
                assert abs(before - after) <= 1e-10


class TestSemanticLoss:
    def _setup(self, seed=0, n=12, d=5, c=3):
        rng = np.random.default_rng(seed)
        ego = rng.standard_normal((n, d)) * 0.5
        labels = rng.integers(0, c, size=n)
        mask = np.ones(n, dtype=bool)
        anchors = construct_etf(c, d, seed=seed)
        rot_m = random_orthogonal(d, seed + 1)
        return ego, labels, mask, rot_m, anchors

    def test_zero_at_anchors(self):
        ego, labels, mask, rot, anchors = self._setup()
        ego = (rot.T @ anchors[:, labels]).T
        loss, grad = semantic_loss(ego, labels, mask, rot, anchors)
        assert loss <= 1e-20
        assert np.abs(grad).max() <= 1e-10

    def test_isometry_single_node(self):
        ego, labels, mask, rot, anchors = self._setup(n=1, seed=2)
        labels = np.array([1])
        e = np.full(5, 0.3)
        ego = (rot.T @ (anchors[:, 1] + e))[None, :]
        loss, _ = semantic_loss(ego, labels, np.array([True]), rot, anchors)
        assert abs(loss - np.linalg.norm(e) ** 2) <= 1e-10

    def test_gradient_matches_finite_differences(self):
        ego, labels, mask, rot, anchors = self._setup(seed=3)
        loss, grad = semantic_loss(ego, labels, mask, rot, anchors)
        eps = 1e-6
        for idx in [(0, 0), (3, 2), (11, 4), (7, 1)]:
            bumped = ego.copy()
            bumped[idx] += eps
            up, _ = semantic_loss(bumped, labels, mask, rot, anchors)
            bumped[idx] -= 2 * eps
            down, _ = semantic_loss(bumped, labels, mask, rot, anchors)
            num = (up - down) / (2 * eps)
            assert abs(num - grad[idx]) / max(abs(num), 1e-8) <= 1e-5

    def test_only_train_nodes_contribute(self):
        ego, labels, mask, rot, anchors = self._setup(seed=4)
        mask = np.zeros_like(mask)
        mask[:4] = True
        loss_small, grad = semantic_loss(ego, labels, mask, rot, anchors)
        assert np.abs(grad[4:]).max() == 0.0
        assert loss_small >= 0.0

    def test_no_train_node_raises(self):
        ego, labels, mask, rot, anchors = self._setup(seed=6)
        with pytest.raises(RuntimeError,
                           match="^semantic_loss needs at least one train node$"):
            semantic_loss(ego, labels, np.zeros_like(mask), rot, anchors)

    def test_per_class_decomposition(self):
        ego, labels, mask, rot, anchors = self._setup(seed=5)
        per = semantic_per_class_loss(ego, labels, mask, rot, anchors)
        total, _ = semantic_loss(ego, labels, mask, rot, anchors)
        counts = np.bincount(labels, minlength=3)
        assert abs((per * counts).sum() / mask.sum() - total) <= 1e-10
