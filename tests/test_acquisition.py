import math

import numpy as np
import pytest
from scipy.stats import entropy as scipy_entropy

from soqal.acquisition import (
    bald_mcd,
    instance_seed,
    mc_posteriors,
    predictive_entropy,
    select_top_b,
)
from soqal.network import Network


def random_samples(rng, n_passes=10, n_classes=4):
    raw = rng.gamma(1.0, size=(n_passes, n_classes))
    return raw / raw.sum(axis=1, keepdims=True)


def make_net(dropout, seed=0):
    return Network.initialize(3, 4, [8], dropout_rate=dropout, seed=seed)


class TestMcPosteriors:
    def test_no_dropout_rows_identical(self):
        net = make_net(0.0)
        probs = mc_posteriors(net, np.ones(3), n_passes=7, seed=1)
        np.testing.assert_array_equal(probs, np.tile(probs[0], (7, 1)))

    def test_same_seed_same_matrix(self):
        net = make_net(0.4)
        x = np.random.default_rng(2).standard_normal(3)
        a = mc_posteriors(net, x, n_passes=20, seed=9)
        b = mc_posteriors(net, x, n_passes=20, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_rows_are_distributions(self):
        net = make_net(0.5)
        probs = mc_posteriors(net, np.ones(3), n_passes=20, seed=3)
        assert probs.shape == (20, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_instance_seed_is_reproducible_and_distinct(self):
        assert instance_seed(1, 2, 3).entropy == instance_seed(1, 2, 3).entropy
        assert instance_seed(1, 2, 3).entropy != instance_seed(1, 2, 4).entropy

    def test_zero_passes_rejected(self):
        with pytest.raises(ValueError):
            mc_posteriors(make_net(0.3), np.ones(3), n_passes=0, seed=0)


class TestBaldMcd:
    def test_identical_rows_score_zero(self):
        assert bald_mcd(np.tile([0.2, 0.3, 0.5], (6, 1))) == pytest.approx(0.0, abs=1e-9)

    def test_total_disagreement_two_classes(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert bald_mcd(probs) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_uniform_rows_score_zero(self):
        assert bald_mcd(np.full((5, 2), 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_two_term_evaluation(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            samples = random_samples(rng, n_passes=int(rng.integers(2, 30)))
            direct = scipy_entropy(samples.mean(axis=0)) - np.mean(
                [scipy_entropy(row) for row in samples]
            )
            assert bald_mcd(samples) == pytest.approx(direct, abs=1e-9)

    def test_matches_mean_kl_identity(self):
        # Equivalent form: mean KL(row || mean row).
        rng = np.random.default_rng(21)
        for _ in range(20):
            samples = random_samples(rng)
            mean = samples.mean(axis=0)
            kl = np.mean([scipy_entropy(row, mean) for row in samples])
            assert bald_mcd(samples) == pytest.approx(kl, abs=1e-9)

    def test_nonnegative_and_permutation_invariant(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            samples = random_samples(rng)
            score = bald_mcd(samples)
            assert score >= 0.0
            shuffled = samples[rng.permutation(len(samples))]
            assert bald_mcd(shuffled) == pytest.approx(score, abs=1e-12)
            assert predictive_entropy(shuffled) == pytest.approx(
                predictive_entropy(samples), abs=1e-12
            )


class TestPredictiveEntropy:
    def test_one_hot_mean(self):
        assert predictive_entropy(np.tile([1.0, 0.0, 0.0], (4, 1))) == 0.0

    def test_uniform_mean(self):
        probs = np.full((3, 5), 0.2)
        assert predictive_entropy(probs) == pytest.approx(math.log(5.0), abs=1e-12)

    def test_quarter_three_quarter(self):
        samples = np.array([[0.25, 0.75]])
        expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
        assert predictive_entropy(samples) == pytest.approx(expected, abs=1e-12)
        assert predictive_entropy(samples) == pytest.approx(0.5623351446188083, abs=1e-12)


class TestSelectTopB:
    def test_single_argmax(self):
        assert select_top_b([0.9, 0.1, 0.5], 1.0 / 3.0) == [0]

    def test_two_percent_of_hundred(self):
        rng = np.random.default_rng(23)
        assert len(select_top_b(rng.random(100), 0.02)) == 2

    def test_ties_break_to_lower_index(self):
        assert select_top_b([1.0, 1.0, 1.0], 2.0 / 3.0) == [0, 1]

    def test_ceiling_count_and_determinism(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            frac = float(rng.uniform(0.01, 1.0))
            scores = rng.random(n)
            picked = select_top_b(scores, frac)
            assert len(picked) == math.ceil(frac * n)
            assert picked == select_top_b(scores, frac)
            floor = min(scores[i] for i in picked)
            others = [s for i, s in enumerate(scores) if i not in set(picked)]
            assert all(s <= floor for s in others)

    def test_empty_pool_gives_empty_selection(self):
        assert select_top_b([], 0.5) == []

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            select_top_b([0.5], 0.0)
        with pytest.raises(ValueError):
            select_top_b([0.5], 1.5)


def random_stacks(rng, n, n_passes, n_classes):
    """(n, T, C) posteriors with exact zeros: sparse rows and one-hot rows."""
    raw = rng.gamma(0.5, size=(n, n_passes, n_classes))
    raw[rng.random(raw.shape) < 0.2] = 0.0
    raw[..., 0] += raw.sum(axis=-1) == 0.0
    probs = raw / raw.sum(axis=-1, keepdims=True)
    hot = rng.random((n, n_passes)) < 0.2
    probs[hot] = np.eye(n_classes)[rng.integers(0, n_classes, size=int(hot.sum()))]
    return probs


class TestStackedScores:
    def test_scores_do_not_depend_on_batch_composition(self):
        rng = np.random.default_rng(25)
        for n_classes in range(2, 11):
            probs = random_stacks(rng, 15, int(rng.integers(1, 30)), n_classes)
            for score in (bald_mcd, predictive_entropy):
                batched = score(probs)
                assert batched.shape == (15,)
                np.testing.assert_array_equal(batched, [score(p) for p in probs])
                np.testing.assert_array_equal(score(probs[::-2]), batched[::-2])

    def test_scores_match_scipy_reference(self):
        rng = np.random.default_rng(26)
        for n_classes in range(2, 11):
            probs = random_stacks(rng, 15, int(rng.integers(1, 30)), n_classes)
            mean_entropy = [scipy_entropy(p.mean(axis=0)) for p in probs]
            row_entropy = [np.mean([scipy_entropy(row) for row in p]) for p in probs]
            np.testing.assert_allclose(
                predictive_entropy(probs), mean_entropy, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                bald_mcd(probs),
                np.maximum(0.0, np.subtract(mean_entropy, row_entropy)),
                rtol=0,
                atol=1e-12,
            )
