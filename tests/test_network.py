import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from math_oracles import numeric_grads
from soqal.data import gen_synthetic
from soqal.errors import ConfigError
from soqal.network import (
    PREDICT_ROWS,
    PROB_FLOOR,
    EpochStats,
    Network,
    clamp_probs,
    compute_beta,
    loss_terms,
    row_sums,
    sigmoid,
    softmax,
    train_epoch,
)


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


class TestPredict:
    """`predict` is the deterministic forward in calls of at most
    PREDICT_ROWS rows, keeping no cache."""

    @staticmethod
    def case(hidden, rows, seed=0):
        net = Network.initialize(6, 4, list(hidden), dropout_rate=0.3, seed=seed)
        x = np.random.default_rng(seed).standard_normal((rows, 6))
        x.flags.writeable = False  # a write into the inputs raises
        return net, x

    @pytest.mark.parametrize("hidden", [(32, 32), (256, 256)])
    def test_one_call_up_to_predict_rows(self, hidden):
        net, x = self.case(hidden, PREDICT_ROWS)
        for n in range(1, PREDICT_ROWS + 1):
            probs, gate = net.predict(x[:n])
            want_probs, want_gate, _ = net.forward_batch(x[:n])
            np.testing.assert_array_equal(probs, want_probs, err_msg=f"n={n}")
            np.testing.assert_array_equal(gate, want_gate, err_msg=f"n={n}")

    @pytest.mark.parametrize("hidden", [(32, 32), (256, 256)])
    @pytest.mark.parametrize("n", [PREDICT_ROWS + 1, 2 * PREDICT_ROWS, 3 * PREDICT_ROWS + 37])
    def test_each_chunk_is_one_call_on_its_slice(self, hidden, n):
        net, x = self.case(hidden, n, seed=n)
        x_before = x.copy()
        probs, gate = net.predict(x)
        assert probs.shape == (n, 4) and gate.shape == (n,)
        for start in range(0, n, PREDICT_ROWS):
            chunk = slice(start, start + PREDICT_ROWS)
            want_probs, want_gate, _ = net.forward_batch(x[chunk])
            np.testing.assert_array_equal(probs[chunk], want_probs, err_msg=f"start={start}")
            np.testing.assert_array_equal(gate[chunk], want_gate, err_msg=f"start={start}")
        np.testing.assert_array_equal(x, x_before)

    def test_zero_rows_and_shape_check(self):
        net, x = self.case((6, 5), 0)
        probs, gate = net.predict(x)
        assert probs.shape == (0, 4) and gate.shape == (0,)
        with pytest.raises(ConfigError):
            net.predict(np.ones((0, 5)))

    @pytest.mark.parametrize("n", [4000, 8000])
    def test_peak_memory_is_the_outputs_plus_a_few_chunks(self, n):
        # One 4,000-row forward_batch at 256,256 traces about 16.7 MB, as its
        # cache holds every layer's output; predict about 1.5 MB.
        net, x = self.case((256, 256), n)
        net.predict(x[:1])  # any lazy set-up happens before tracing
        tracemalloc.start()
        try:
            net.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = n * (net.n_classes + 1) * 8
        chunk = PREDICT_ROWS * 256 * 8  # one trunk layer's output on one chunk
        assert peak < outputs + 3 * chunk, f"traced peak {peak} bytes"


def reference_forward(net, x, masks):
    """Out-of-place forward: each layer's input and pre-activation, then
    softmax rows and the two-branch sigmoid of the gate logit."""
    keep = 1.0 - net.dropout_rate
    inputs, pre = [], []
    h = x
    for idx, layer in enumerate(net.trunk):
        inputs.append(h)
        pre.append(h @ layer.weight.T + layer.bias)
        h = np.maximum(pre[-1], 0.0)
        if masks is not None:
            h = h * masks[idx] / keep
    logits = h @ net.class_head.weight.T + net.class_head.bias
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    z = (h @ net.gate_head.weight.T + net.gate_head.bias)[:, 0]
    gate = np.empty_like(z)
    pos = z >= 0
    gate[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    gate[~pos] = ez / (1.0 + ez)
    return inputs, pre, h, probs, gate


def reference_backward(net, x, masks, targets, errors, beta):
    """Gradients ordered like parameters(), gating the relu on z > 0."""
    keep = 1.0 - net.dropout_rate
    inputs, pre, top, probs, gate = reference_forward(net, x, masks)
    d_logits = probs.copy()
    d_logits[np.arange(len(targets)), targets] -= 1.0
    d_gate = (1.0 - errors) * gate - beta * errors * (1.0 - gate)
    d_h = d_logits @ net.class_head.weight
    if not net.gate_detached:
        d_h = d_h + d_gate[:, None] * net.gate_head.weight
    trunk = []
    for idx in range(len(net.trunk) - 1, -1, -1):
        if masks is not None:
            d_h = d_h * masks[idx] / keep
        d_z = d_h * (pre[idx] > 0.0)
        trunk = [d_z.T @ inputs[idx], d_z.sum(axis=0), *trunk]
        d_h = d_z @ net.trunk[idx].weight
    return [*trunk, d_logits.T @ top, d_logits.sum(axis=0),
            (d_gate[:, None] * top).sum(axis=0, keepdims=True), np.array([d_gate.sum()])]


def reference_epoch(net, inputs, targets, learning_rate, batch_size, rng):
    """train_epoch out of place: one gather per batch, float masks, the
    reference forward and backward, and `param -= scale * grad`."""
    order = rng.permutation(len(targets))
    total_class = total_gate = 0.0
    for start in range(0, len(targets), batch_size):
        batch_idx = order[start : start + batch_size]
        x, y = inputs[batch_idx], targets[batch_idx]
        masks = [m.astype(np.float64) for m in net.make_masks(len(y), rng)]
        *_, probs, gate = reference_forward(net, x, masks)
        errors = (probs.argmax(axis=1) != y).astype(np.float64)
        beta = compute_beta(errors)
        class_term, gate_term = loss_terms(probs, gate, y, errors, beta)
        grads = reference_backward(net, x, masks, y, errors, beta)
        scale = learning_rate / len(y)
        for param, grad in zip(net.parameters(), grads, strict=True):
            param -= scale * grad
        total_class += class_term
        total_gate += gate_term
    return EpochStats(total_class / len(targets), total_gate / len(targets))


@st.composite
def forward_cases(draw, max_rows=400):
    """A net of 1-3 trunk layers, a batch and masks (None or drawn), with
    some units whose pre-activation is exactly zero on every row."""
    seed = draw(st.integers(0, 2**32 - 1))
    rows = draw(st.integers(1, max_rows))
    hidden = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    dropout = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    rng = np.random.default_rng(seed)
    net = tiny_net(seed=seed, dropout=dropout, n_features=draw(st.integers(1, 5)),
                   n_classes=draw(st.integers(2, 4)), hidden=hidden,
                   detached=draw(st.booleans()))
    for layer in net.trunk:
        layer.bias[:] = rng.standard_normal(len(layer.bias))
        dead = rng.random(len(layer.bias)) < 0.25
        layer.weight[dead] = 0.0
        layer.bias[dead] = 0.0
    x = rng.standard_normal((rows, net.n_features))
    masks = net.make_masks(rows, rng) if draw(st.booleans()) else None
    return net, x, masks, rng


class TestInPlace:
    """The in-place forward and the backward that reads its layer outputs
    agree bit for bit with out-of-place references."""

    @settings(derandomize=True, deadline=None)
    @given(forward_cases())
    def test_forward_matches_reference_and_leaves_arguments_alone(self, case):
        net, x, masks, _ = case
        x_before = x.copy()
        masks_before = None if masks is None else [m.copy() for m in masks]
        probs, gate, cache = net.forward_batch(x, masks)
        inputs, _, top, ref_probs, ref_gate = reference_forward(net, x_before, masks_before)
        np.testing.assert_array_equal(probs, ref_probs)
        np.testing.assert_array_equal(gate, ref_gate)
        for got, want in zip(cache["activations"], [*inputs, top], strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(x, x_before)
        if masks is not None:
            for m, before in zip(masks, masks_before):
                np.testing.assert_array_equal(m, before)

    @settings(derandomize=True, deadline=None)
    @given(forward_cases(max_rows=64))
    def test_backward_matches_pre_activation_reference(self, case):
        net, x, masks, rng = case
        targets = rng.integers(0, net.n_classes, size=len(x))
        errors = rng.integers(0, 2, size=len(x)).astype(np.float64)
        beta = compute_beta(errors)
        _, _, cache = net.forward_batch(x, masks)
        grads = net.backward(cache, targets, errors, beta)
        want = reference_backward(net, x, masks, targets, errors, beta)
        assert len(grads) == len(want)
        for got, ref in zip(grads, want):
            assert same_bits(got, ref)

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("detached", [False, True])
    def test_train_epoch_matches_out_of_place_reference(self, dropout, detached):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((45, 5))  # five batches of 8, then one of 5
        y = rng.integers(0, 3, size=45)
        nets = [tiny_net(seed=13, dropout=dropout, n_features=5, hidden=(16, 12),
                         detached=detached) for _ in range(2)]
        stats = [train_epoch(nets[0], x, y, 0.05, 8, np.random.default_rng(17)),
                 reference_epoch(nets[1], x, y, 0.05, 8, np.random.default_rng(17))]
        for got, want in zip(nets[0].parameters(), nets[1].parameters(), strict=True):
            assert same_bits(got, want)
        got, want = (np.array([s.mean_class_loss, s.mean_gate_loss]) for s in stats)
        assert same_bits(got, want)


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 746.0, -746.0])


def special_array(shape, seed, special_frac):
    """Normal values over many scales, with a share of signed zeros,
    infinities, NaNs of both signs and values at exp's range limits."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    special = rng.random(shape) < special_frac
    values[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return values


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def same_bits_but_nan_sign(a, b):
    """Bit-equal, except that a NaN may carry either sign: in a row holding
    NaNs of both signs, which one a max returns depends on its order."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and same_bits(a[~nan], b[~nan])


class TestElementwiseFormulations:
    """The column-wise row sum and softmax max, the branch-free sigmoid and
    the minimum-of-maximum clamp give the bits of the formulations they
    replaced, which serve as oracles here."""

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=2), st.integers(1, 12),
           st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05, 0.5]))
    @example([50, 40], 7, 0, 0.05)
    @example([3], 8, 0, 0.0)
    def test_row_sums_match_sum_over_the_last_axis(self, lead, cols, seed, special_frac):
        # Guards the premise that numpy adds fewer than eight entries in order.
        # `+ 0.0` maps the -0.0 sum of a row of -0.0 to numpy's +0.0 and
        # changes no other value.
        values = special_array((*lead, cols), seed, special_frac)
        with np.errstate(invalid="ignore"):
            assert same_bits(row_sums(values) + 0.0, values.sum(axis=-1))
        assert same_bits(row_sums(np.full((2, cols), -0.0)), np.full(2, -0.0 if cols < 8 else 0.0))

    @settings(derandomize=True, deadline=None)
    @given(st.integers(1, 5000), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    @example(5000, 0, 0.5)
    def test_clamp_probs_matches_clip(self, size, seed, special_frac):
        p = special_array(size, seed, special_frac)
        assert same_bits(clamp_probs(p), np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR))

    @settings(derandomize=True, deadline=None)
    @given(st.integers(1, 5000), st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    @example(5000, 12, 0, 0.5)
    @example(1, 1, 0, 1.0)
    def test_softmax_matches_row_max_oracle(self, rows, cols, seed, special_frac):
        def row_max_softmax(logits):
            out = logits - logits.max(axis=1, keepdims=True)
            np.exp(out, out=out)
            out /= out.sum(axis=1, keepdims=True)
            return out

        logits = special_array((rows, cols), seed, special_frac)
        one_nan = np.where(np.isnan(logits), np.nan, logits)
        with np.errstate(invalid="ignore"):
            assert same_bits_but_nan_sign(softmax(logits.copy()), row_max_softmax(logits))
            assert same_bits(softmax(one_nan.copy()), row_max_softmax(one_nan))

    @settings(derandomize=True, deadline=None)
    @given(st.integers(1, 5000), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    @example(5000, 0, 0.5)
    def test_sigmoid_matches_boolean_index_oracle(self, size, seed, special_frac):
        z = special_array(size, seed, special_frac)
        expected = np.empty_like(z)
        pos = z >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        expected[~pos] = ez / (1.0 + ez)
        assert same_bits(sigmoid(z), expected)


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


def _fresh_check_case(seed, dropout=0.3, detached=False):
    """Network + 3-sample batch with pre-activations clear of the relu kink,
    so central differences are valid at step 1e-5."""
    rng = np.random.default_rng(seed)
    for attempt in range(50):
        net = tiny_net(seed=seed * 1000 + attempt, dropout=dropout, detached=detached)
        x = rng.standard_normal((3, 4))
        masks = net.make_masks(3, rng) if dropout > 0 else None
        _, _, cache = net.forward_batch(x, masks)
        closest = min(
            np.abs(a @ layer.weight.T + layer.bias).min()
            for a, layer in zip(cache["activations"], net.trunk)
        )
        if closest > 1e-4:
            targets = rng.integers(0, 3, size=3)
            errors = rng.integers(0, 2, size=3).astype(float)
            beta = rng.uniform(0.25, 4.0)
            return net, x, targets, errors, beta, masks
    raise AssertionError("could not find a kink-free draw")


def assert_grads_match(net, x, targets, errors, beta, masks, rel_tol=1e-4):
    _, _, cache = net.forward_batch(x, masks)
    analytic = net.backward(cache, targets, errors, beta)
    numeric = numeric_grads(net, x, targets, errors, beta, masks)
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
        # Finite differences of the class term alone, trunk parameters only.
        numeric = numeric_grads(net, x, targets, errors, beta, masks, terms=lambda t: t[0])
        for grad, num in zip(analytic[:4], numeric[:4]):
            for idx in np.ndindex(grad.shape):
                denom = max(abs(grad[idx]) + abs(num[idx]), 1e-8)
                assert abs(grad[idx] - num[idx]) / denom < 1e-4


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
        for _ in range(200):
            train_epoch(net, data.features, data.labels, 1e-2, 32, rng)
        probs, _, _ = net.forward_batch(data.features)  # deterministic forward
        assert (probs.argmax(axis=1) == data.labels).mean() >= 0.95

    def test_empty_pool_raises(self):
        net = tiny_net()
        with pytest.raises(ConfigError):
            train_epoch(net, np.zeros((0, 4)), np.zeros(0, dtype=int), 1e-2, 8,
                        np.random.default_rng(0))
