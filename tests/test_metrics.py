import numpy as np
import pytest

from math_oracles import concordance_auc
from soqal.metrics import auc_binary, auc_ovr


class TestAucBinary:
    def test_three_of_four_pairs_concordant(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        positives = np.array([False, False, True, True])
        assert auc_binary(scores, positives) == 0.75

    def test_perfect_separation(self):
        assert auc_binary(np.array([0.1, 0.2, 0.8, 0.9]),
                          np.array([False, False, True, True])) == 1.0

    def test_all_equal_scores_give_half(self):
        assert auc_binary(np.ones(10), np.arange(10) < 4) == 0.5

    def test_matches_concordance_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            # Coarse grid forces plenty of ties.
            scores = rng.integers(0, 6, size=n) / 5.0
            positives = rng.random(n) < 0.5
            if positives.all() or not positives.any():
                continue
            assert auc_binary(scores, positives) == pytest.approx(
                concordance_auc(scores, positives), abs=1e-12
            )

    def test_single_class_is_nan(self):
        assert np.isnan(auc_binary(np.array([0.1, 0.9]), np.array([True, True])))
        assert np.isnan(auc_binary(np.array([0.1, 0.9]), np.array([False, False])))


class TestAucOvr:
    def test_binary_matches_positive_class_auc(self):
        scores = np.array([[0.9, 0.1], [0.6, 0.4], [0.65, 0.35], [0.2, 0.8]])
        labels = np.array([0, 0, 1, 1])
        assert auc_ovr(scores, labels) == pytest.approx(0.75)

    def test_perfect_multiclass(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        scores = np.eye(3)[labels] * 0.8 + 0.1
        assert auc_ovr(scores, labels) == 1.0

    def test_constant_scores_give_half(self):
        scores = np.full((8, 3), 1.0 / 3.0)
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        assert auc_ovr(scores, labels) == 0.5

    def test_absent_class_skipped(self):
        # Column 2 exists but class 2 never occurs; mean over classes 0 and 1.
        rng = np.random.default_rng(31)
        scores = rng.dirichlet(np.ones(3), size=20)
        labels = rng.integers(0, 2, size=20)
        expected = 0.5 * (
            auc_binary(scores[:, 0], labels == 0) + auc_binary(scores[:, 1], labels == 1)
        )
        assert auc_ovr(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_fewer_than_two_classes_is_nan(self):
        assert np.isnan(auc_ovr(np.array([[0.5, 0.5], [0.4, 0.6]]), np.array([1, 1])))
        assert np.isnan(auc_ovr(np.zeros((0, 2)), np.zeros(0, dtype=int)))

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            n = int(rng.integers(6, 40))
            n_classes = int(rng.integers(2, 5))
            scores = rng.dirichlet(np.ones(n_classes), size=n)
            labels = rng.integers(0, n_classes, size=n)
            if len(np.unique(labels)) < 2:
                continue
            assert 0.0 <= auc_ovr(scores, labels) <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            auc_ovr(np.zeros((3, 2)), np.zeros(4, dtype=int))
