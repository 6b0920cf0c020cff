import math

import numpy as np
import pytest

from soqal.data import gen_synthetic
from soqal.errors import ConfigError
from soqal.network import Network, compute_beta, loss_terms, train_epoch


def total_loss(*args):
    """The summed joint objective: class term plus gate term."""
    return sum(loss_terms(*args))


def masked_forward(net, x, seed):
    """One instance through one seeded dropout mask (the mc-dropout mode)."""
    masks = net.make_masks(1, np.random.default_rng(seed))
    probs, gate, _ = net.forward_batch(x[None], masks)
    return probs[0], gate[0]


def tiny_net(seed=0, dropout=0.3, n_features=4, n_classes=3, hidden=(6, 5), detached=False):
    return Network.initialize(
        n_features=n_features,
        n_classes=n_classes,
        hidden=list(hidden),
        dropout_rate=dropout,
        seed=seed,
        gate_detached=detached,
    )


class TestForward:
    def test_no_dropout_mc_equals_deterministic(self):
        net = tiny_net(dropout=0.0)
        x = np.random.default_rng(1).standard_normal(4)
        det_probs, det_o, _ = net.forward_batch(x[None])
        for seed in range(5):
            probs, o = masked_forward(net, x, seed)
            np.testing.assert_array_equal(probs, det_probs[0])
            assert o == det_o[0]

    def test_uniform_probs_with_zeroed_class_head(self):
        net = tiny_net()
        net.class_head.weight[:] = 0.0
        net.class_head.bias[:] = 0.0
        probs, _, _ = net.forward_batch(np.ones((1, 4)))
        np.testing.assert_allclose(probs[0], np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_same_mask_seed_gives_identical_outputs(self):
        net = tiny_net(dropout=0.5)
        x = np.random.default_rng(2).standard_normal(4)
        first = masked_forward(net, x, 77)
        second = masked_forward(net, x, 77)
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_probs_normalized_and_gate_in_unit_interval(self):
        net = tiny_net(seed=3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((64, 4))
        probs, gate, _ = net.forward_batch(x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)
        assert np.all((gate > 0) & (gate < 1))

    def test_dimension_mismatch_raises(self):
        net = tiny_net()
        with pytest.raises(ConfigError):
            net.forward_batch(np.ones((1, 5)))


class TestBatch:
    """Input checks that train_epoch makes once per call."""

    @staticmethod
    def train(net, inputs, targets):
        train_epoch(net, inputs, targets, 1e-2, 8, np.random.default_rng(0))

    def test_requires_at_least_one_sample(self):
        with pytest.raises(ConfigError):
            self.train(tiny_net(), np.zeros((0, 4)), np.zeros(0, dtype=int))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.train(tiny_net(), np.zeros((3, 4)), np.zeros(2, dtype=int))

    def test_targets_checked_against_class_count(self):
        inputs, targets = np.zeros((2, 4)), np.array([0, 3])
        self.train(tiny_net(n_classes=4), inputs, targets)
        with pytest.raises(ValueError):
            self.train(tiny_net(n_classes=3), inputs, targets)
        with pytest.raises(ValueError):
            self.train(tiny_net(), np.zeros((1, 4)), np.array([-1]))


class TestComputeBeta:
    def test_three_correct_one_wrong(self):
        assert compute_beta([0, 0, 0, 1]) == 3.0

    def test_balanced_batch(self):
        assert compute_beta([0, 1]) == 1.0

    def test_no_misclassified_convention(self):
        assert compute_beta([0, 0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            compute_beta([])


class TestJointLoss:
    def test_perfect_prediction_confident_gate(self):
        probs = np.array([[1.0, 0.0]])
        loss = total_loss(probs, np.array([1e-15]), np.array([0]), np.array([0.0]), 1.0)
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_single_sample_term_by_term(self):
        # -log(e^-1) + (-1 * 1 * log 0.5) = 1 + ln 2
        p = math.exp(-1.0)
        probs = np.array([[p, 1.0 - p]])
        loss = total_loss(probs, np.array([0.5]), np.array([0]), np.array([1.0]), 1.0)
        assert loss == pytest.approx(1.0 + math.log(2.0), abs=1e-12)

    def test_doubling_beta_adds_misclassified_gate_term(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(3), size=8)
        o = rng.uniform(0.05, 0.95, size=8)
        targets = rng.integers(0, 3, size=8)
        errors = rng.integers(0, 2, size=8).astype(float)
        diff = total_loss(probs, o, targets, errors, 2.0) - total_loss(
            probs, o, targets, errors, 1.0
        )
        expected = -np.sum(errors * np.log(o))
        assert diff == pytest.approx(expected, abs=1e-10)

    def test_permutation_invariance_with_computed_beta(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(4), size=10)
        o = rng.uniform(0.05, 0.95, size=10)
        targets = rng.integers(0, 4, size=10)
        errors = (probs.argmax(axis=1) != targets).astype(float)
        beta = compute_beta(errors)
        base = total_loss(probs, o, targets, errors, beta)
        for _ in range(5):
            perm = rng.permutation(10)
            permuted = total_loss(probs[perm], o[perm], targets[perm], errors[perm], beta)
            assert permuted == pytest.approx(base, rel=1e-12)

    def test_nonnegative_for_nonnegative_beta(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(3), size=5)
            o = rng.uniform(0.01, 0.99, size=5)
            targets = rng.integers(0, 3, size=5)
            errors = rng.integers(0, 2, size=5).astype(float)
            assert total_loss(probs, o, targets, errors, rng.uniform(0, 4)) >= 0.0

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            total_loss(np.array([[0.5, 0.5]]), np.array([0.5]), np.array([0]),
                       np.array([0.0]), -1.0)


def _numeric_grads(net, x, targets, errors, beta, masks, step=1e-5):
    grads = []
    for arr in net.parameters():
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            probs, gate, _ = net.forward_batch(x, masks)
            up = total_loss(probs, gate, targets, errors, beta)
            arr[idx] = orig - step
            probs, gate, _ = net.forward_batch(x, masks)
            down = total_loss(probs, gate, targets, errors, beta)
            arr[idx] = orig
            grad[idx] = (up - down) / (2.0 * step)
        grads.append(grad)
    return grads


def _fresh_check_case(seed, dropout=0.3, detached=False):
    """Network + 3-sample batch with pre-activations clear of the relu kink,
    so central differences are valid at step 1e-5."""
    rng = np.random.default_rng(seed)
    for attempt in range(50):
        net = tiny_net(seed=seed * 1000 + attempt, dropout=dropout, detached=detached)
        x = rng.standard_normal((3, 4))
        masks = net.make_masks(3, rng) if dropout > 0 else None
        _, _, cache = net.forward_batch(x, masks)
        closest = min(np.abs(z).min() for z in cache["pre_relu"])
        if closest > 1e-4:
            targets = rng.integers(0, 3, size=3)
            errors = rng.integers(0, 2, size=3).astype(float)
            beta = rng.uniform(0.25, 4.0)
            return net, x, targets, errors, beta, masks
    raise AssertionError("could not find a kink-free draw")


def assert_grads_match(net, x, targets, errors, beta, masks, rel_tol=1e-4):
    _, _, cache = net.forward_batch(x, masks)
    analytic = net.backward(cache, targets, errors, beta)
    numeric = _numeric_grads(net, x, targets, errors, beta, masks)
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        rel = np.abs(a - n) / denom
        assert rel.max() < rel_tol, f"gradient mismatch: max rel err {rel.max():.2e}"


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_central_differences_with_dropout(self, seed):
        assert_grads_match(*_fresh_check_case(seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_central_differences_no_dropout(self, seed):
        assert_grads_match(*_fresh_check_case(seed + 100, dropout=0.0))

    def test_detached_gate_trunk_sees_class_term_only(self):
        net, x, targets, errors, beta, masks = _fresh_check_case(7, detached=True)
        _, _, cache = net.forward_batch(x, masks)
        analytic = net.backward(cache, targets, errors, beta)
        step = 1e-5
        # Finite differences of the class term alone, trunk parameters only.
        for arr, grad in zip(net.parameters()[:4], analytic[:4]):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                probs, gate, _ = net.forward_batch(x, masks)
                up = loss_terms(probs, gate, targets, errors, beta)[0]
                arr[idx] = orig - step
                probs, gate, _ = net.forward_batch(x, masks)
                down = loss_terms(probs, gate, targets, errors, beta)[0]
                arr[idx] = orig
                numeric = (up - down) / (2.0 * step)
                denom = max(abs(grad[idx]) + abs(numeric), 1e-8)
                assert abs(grad[idx] - numeric) / denom < 1e-4


class TestTrainEpoch:
    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        net = tiny_net(seed=5)
        before = [p.copy() for p in net.parameters()]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 4))
        y = rng.integers(0, 3, size=20)
        train_epoch(net, x, y, learning_rate=0.0, batch_size=8, rng=rng)
        for old, new in zip(before, net.parameters()):
            np.testing.assert_array_equal(old, new)

    def test_fixed_seed_bit_identical_parameters(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 4))
        y = rng.integers(0, 3, size=30)
        results = []
        for _ in range(2):
            net = tiny_net(seed=9)
            train_epoch(net, x, y, 1e-2, 8, np.random.default_rng(123))
            results.append([p.copy() for p in net.parameters()])
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)

    def test_separable_blobs_reach_high_accuracy(self):
        data = gen_synthetic("gaussian-blobs", 200, 2, 2, class_separation=6.0, seed=4)
        net = Network.initialize(2, 2, [16], dropout_rate=0.1, seed=4)
        rng = np.random.default_rng(4)
        stats = None
        for _ in range(200):
            stats = train_epoch(net, data.features, data.labels, 1e-2, 32, rng)
        assert stats.train_accuracy >= 0.95

    def test_empty_pool_raises(self):
        net = tiny_net()
        with pytest.raises(ConfigError):
            train_epoch(net, np.zeros((0, 4)), np.zeros(0, dtype=int), 1e-2, 8,
                        np.random.default_rng(0))
