import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import entropy as scipy_entropy

from math_oracles import is_fraction_count
from soqal import acquisition
from soqal.acquisition import (
    bald_mcd,
    dropout_masks,
    mc_posteriors,
    pass_mean,
    predictive_entropy,
    select_top_b,
    stream_keys,
)
from soqal.network import Network


def random_samples(rng, n_passes=10, n_classes=4):
    raw = rng.gamma(1.0, size=(n_passes, n_classes))
    return raw / raw.sum(axis=1, keepdims=True)


def make_net(dropout, seed=0):
    return Network.initialize(3, 4, [8], dropout_rate=dropout, seed=seed)


def reference_posteriors(net, features, ids, n_passes, seed, epoch):
    """Per-instance MC passes: one (seed, epoch, id)-keyed mask draw and one
    forward per id."""
    rows = []
    for i in ids:
        rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, i]))
        masks = net.make_masks(n_passes, rng)
        probs, _, _ = net.forward_batch(np.repeat(features[i][None], n_passes, axis=0), masks)
        rows.append(probs)
    return np.stack(rows)


def posteriors(net, features, ids, n_passes, seed, epoch):
    """mc_posteriors over a store drawn for exactly `ids`."""
    widths = [layer.weight.shape[0] for layer in net.trunk]
    store = dropout_masks(seed, epoch, ids, n_passes, widths, net.dropout_rate)
    return mc_posteriors(net, features, ids, store)


class TestMcPosteriors:
    def test_no_dropout_rows_identical(self):
        net = make_net(0.0)
        probs = posteriors(net, np.ones((1, 3)), [0], n_passes=7, seed=1, epoch=0)[0]
        np.testing.assert_array_equal(probs, np.tile(probs[0], (7, 1)))

    def test_same_seed_same_matrix(self):
        net = make_net(0.4)
        x = np.random.default_rng(2).standard_normal((1, 3))
        a = posteriors(net, x, [0], n_passes=20, seed=9, epoch=1)
        b = posteriors(net, x, [0], n_passes=20, seed=9, epoch=1)
        np.testing.assert_array_equal(a, b)

    def test_rows_are_distributions(self):
        net = make_net(0.5)
        probs = posteriors(net, np.ones((1, 3)), [0], n_passes=20, seed=3, epoch=1)
        assert probs.shape == (1, 20, 4)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_instance_seed_is_reproducible_and_distinct(self):
        # Rows 3 and 4 hold the same features, so only the id keys differ.
        net = make_net(0.4)
        features = np.ones((5, 3))
        a = posteriors(net, features, [3], n_passes=20, seed=1, epoch=2)
        np.testing.assert_array_equal(
            a, posteriors(net, features, [3], n_passes=20, seed=1, epoch=2)
        )
        b = posteriors(net, features, [4], n_passes=20, seed=1, epoch=2)
        assert not np.array_equal(a, b)

    def test_empty_id_list_gives_an_empty_stack(self):
        probs = posteriors(make_net(0.4), np.ones((2, 3)), [], n_passes=7, seed=1, epoch=0)
        assert probs.shape == (0, 7, 4)

    @pytest.mark.parametrize("bad_id", [-1, 2**32])
    def test_id_outside_uint32_rejected(self, bad_id):
        # A wrapped id would silently key another instance's stream.
        with pytest.raises(ValueError, match="ids must lie in"):
            dropout_masks(0, 0, [0, bad_id], 2, [8], 0.3)


def seed_of_words(n):
    """Ints that SeedSequence splits into exactly n uint32 words."""
    return st.integers(0 if n == 1 else 2 ** (32 * (n - 1)), 2 ** (32 * n) - 1)


class TestStreamKeys:
    @settings(derandomize=True, deadline=None)
    @given(
        st.one_of(*(seed_of_words(n) for n in range(1, 5))),
        st.integers(0, 2**33 - 1),
        st.lists(st.integers(0, 2**32 - 1), max_size=6),
    )
    @example(2**128 - 1, 2**33 - 1, [0, 2**32 - 1])
    @example(2**32, 2**32, [7])
    @example(0, 0, [0])  # found by search: its low-word add carries, and its high-word add wraps
    def test_matches_numpy_seed_sequence(self, seed, epoch, ids):
        # Each key is the state one step before the seeded one: stepping it
        # once gives the seeded generator's whole state.
        keys = stream_keys(seed, epoch, np.array(ids, dtype=np.uint32))
        assert keys.dtype == np.uint64 and keys.shape == (len(ids), 4)
        for (state_lo, state_hi, inc_lo, inc_hi), i in zip(keys.tolist(), ids):
            bitgen = np.random.PCG64(0)
            bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                            "state": {"state": state_hi << 64 | state_lo,
                                      "inc": inc_hi << 64 | inc_lo}}
            bitgen.advance(1)
            assert bitgen.state == np.random.PCG64(np.random.SeedSequence([seed, epoch, i])).state


MAX_ULPS = 256  # largest seen against forward_batch: 42, at hidden 24,16,8 (OpenBLAS 0.3.31)


class TestPosteriors:
    # The MC pass folds the dropout scale into the next layer's weights, so
    # its rows are within ulps of forward_batch's; the mask bits themselves
    # are pinned exactly by TestMaskStore.
    def test_stacks_one_seeded_stream_per_instance(self):
        net = Network.initialize(3, 4, [8], dropout_rate=0.4, seed=0)
        features = np.random.default_rng(1).standard_normal((6, 3))
        ids = [1, 4, 5]
        probs = posteriors(net, features, ids, 5, seed=7, epoch=2)
        assert probs.shape == (3, 5, 4)
        for row, i in zip(probs, ids):
            rng = np.random.default_rng(np.random.SeedSequence([7, 2, i]))
            tiled = np.repeat(features[i][None], 5, axis=0)
            expected, _, _ = net.forward_batch(tiled, net.make_masks(5, rng))
            np.testing.assert_array_max_ulp(row, expected, maxulp=MAX_ULPS)

    def test_passes_come_from_the_store(self):
        net = Network.initialize(3, 4, [8], dropout_rate=0.4, seed=0)
        features = np.random.default_rng(5).standard_normal((6, 3))
        ids = [0, 2, 5]
        probs = mc_posteriors(net, features, ids, dropout_masks(4, 3, ids, 7, [8], 0.4))
        assert probs.shape == (3, 7, 4)
        np.testing.assert_array_max_ulp(probs, reference_posteriors(net, features, ids, 7, 4, 3),
                                        maxulp=MAX_ULPS)

    def test_rows_must_sum_to_one(self, monkeypatch):
        net = Network.initialize(3, 2, [8], dropout_rate=0.4, seed=0)
        for bad in ([0.5, 0.4], [np.nan, 0.5], [0.5, 0.5 + 2e-5]):  # 2e-5: just past the tolerance
            rows = np.array([[0.5, 0.5], bad])
            monkeypatch.setattr(acquisition, "softmax", lambda logits, rows=rows: rows)
            with pytest.raises(ValueError, match="sum to 1"):
                posteriors(net, np.ones((2, 3)), [0, 1], 1, seed=0, epoch=1)


PASSES = 20
BLOCK = acquisition.MC_BLOCK_ROWS // PASSES  # instances per block
POOL = acquisition.MC_BLOCK_ROWS + 2 * BLOCK + 3  # instances: 23 blocks, the last one short


def pool_net(dropout):
    return Network.initialize(5, 3, [16, 12], dropout_rate=dropout, seed=4)


class TestBlockedForward:
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_matches_per_instance_reference(self, n, dropout):
        net = pool_net(dropout)
        xs = np.random.default_rng(n).standard_normal((n, 5))
        features = np.zeros((10 + 3 * n, 5))
        ids = list(range(10, 10 + 3 * n, 3))
        features[ids] = xs
        np.testing.assert_array_max_ulp(
            posteriors(net, features, ids, PASSES, 7, 5),
            reference_posteriors(net, features, ids, PASSES, 7, 5),
            maxulp=MAX_ULPS,
        )

    def test_each_layer_runs_on_the_given_rows_only(self):
        # No call is filled up to a fixed row count: the first layer sees
        # each instance once, and the class head its T masked rows.
        net = Network.initialize(5, 3, [16, 12, 8], dropout_rate=0.4, seed=4)
        ids = np.arange(2 * BLOCK + 3)
        seen = {"layer 0": 0, "class rows": 0}
        layer, softmax = net.trunk_layer, acquisition.softmax

        def counted_layer(idx, h, mask=None):
            assert idx == 0
            seen["layer 0"] += len(h)
            return layer(idx, h, mask)

        def counted_softmax(logits):
            seen["class rows"] += len(logits)
            return softmax(logits)

        with mock.patch.object(net, "trunk_layer", counted_layer), \
                mock.patch.object(acquisition, "softmax", counted_softmax):
            posteriors(net, np.ones((len(ids), 5)), ids, PASSES, 3, 1)
        assert seen == {"layer 0": len(ids), "class rows": len(ids) * PASSES}

    @settings(derandomize=True, deadline=None)
    @given(
        st.permutations(range(2 * BLOCK + 3)),
        st.integers(1, 2 * BLOCK + 3),
        st.sampled_from([PASSES, acquisition.MC_BLOCK_ROWS, 640, 1280]),
    )
    def test_shipped_width_rows_stay_within_ulps_of_the_pool_rows(self, order, size, block_rows):
        # At hidden 32,32 the BLAS product may round a row differently with
        # the row count of its call (OpenBLAS 0.3.31 does), so a subset's
        # rows may differ from the pool's by ulps.  A wrong mask or row moves
        # a probability by many orders of magnitude more than the ulp bound.
        net = Network.initialize(5, 3, [32, 32], dropout_rate=0.4, seed=4)
        xs = np.random.default_rng(0).standard_normal((2 * BLOCK + 3, 5))
        full = posteriors(net, xs, np.arange(len(xs)), PASSES, 3, 1)
        ids = order[:size]
        with mock.patch.object(acquisition, "MC_BLOCK_ROWS", block_rows):
            rows = posteriors(net, xs, ids, PASSES, 3, 1)
        np.testing.assert_array_max_ulp(rows, full[ids], maxulp=MAX_ULPS)

    @pytest.mark.parametrize("hidden, dropout", [
        ([32, 32], 0.4), ([256, 256], 0.4), ([24, 16, 8], 0.4), ([32, 32], 0.0), ([24, 16, 8], 0.0),
    ], ids=["hidden0", "hidden1", "three-layers", "no-dropout", "three-layers-no-dropout"])
    @pytest.mark.parametrize("n", [1, BLOCK - 5, BLOCK])
    def test_class_rows_stay_within_ulps_of_forward_batch_on_the_block(self, hidden, dropout, n):
        # forward_batch runs the first layer on the T repeated rows of each
        # instance and divides each dropped layer by 1 - rate; the MC pass
        # runs the first layer once per instance, then repeats it, and
        # divides the weights that read each dropped layer instead.
        net = Network.initialize(5, 3, hidden, dropout_rate=dropout, seed=4)
        xs = np.random.default_rng(n).standard_normal((n, 5))
        instance_masks = [
            net.make_masks(PASSES, np.random.default_rng(np.random.SeedSequence([7, 5, i])))
            for i in range(n)
        ]
        block_masks = [np.concatenate([m[k] for m in instance_masks]) for k in range(len(hidden))]
        expected, _, _ = net.forward_batch(np.repeat(xs, PASSES, axis=0), block_masks)
        np.testing.assert_array_max_ulp(
            posteriors(net, xs, np.arange(n), PASSES, 7, 5),
            expected.reshape(n, PASSES, 3),
            maxulp=MAX_ULPS,
        )


class TestMaskStore:
    @pytest.mark.parametrize("widths, ids", [
        ([8, 5], [4, 1, 4, 2]),
        # More ids than one uniforms block holds, with both ends of the id range.
        ([32, 32], [2**32 - 1, 0, *range(3, 3 + 5 * BLOCK, 5), 0, 2**32 - 2]),
    ], ids=["repeated-ids", "several-blocks"])
    def test_rows_are_the_packed_kept_bits_of_each_distinct_id(self, widths, ids):
        net = Network.initialize(3, 4, widths, dropout_rate=0.4, seed=0)
        row_bits = PASSES * sum(widths)
        store = dropout_masks(7, 2, ids, PASSES, widths, 0.4)
        assert store.ids.tolist() == sorted(set(ids))
        assert store.bits.dtype == np.uint8
        assert store.bits.shape == (len(set(ids)), math.ceil(row_bits / 8))
        for i, row in zip(store.ids, store.bits):
            rng = np.random.default_rng(np.random.SeedSequence([7, 2, int(i)]))
            expected = np.concatenate([m.ravel() for m in net.make_masks(PASSES, rng)])
            np.testing.assert_array_equal(np.unpackbits(row, count=row_bits).view(bool),
                                          expected)

    def test_key_words_in_another_order_raise_before_any_row_is_drawn(self, monkeypatch):
        # High words first, as numpy builds without a native 128-bit integer
        # store them: the read-back check must refuse, not draw other masks.
        original = acquisition.stream_keys
        monkeypatch.setattr(acquisition, "stream_keys",
                            lambda *args: original(*args)[:, [1, 0, 3, 2]])
        store = None
        with pytest.raises(RuntimeError, match="native 128-bit layout"):
            store = dropout_masks(7, 2, [4, 1, 2], PASSES, [8, 5], 0.4)
        assert store is None

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.integers(0, POOL - 1), min_size=1, max_size=2 * POOL), st.data())
    def test_rows_from_a_shared_store_equal_those_of_a_store_of_the_ids(self, held, data):
        # A store drawn for the union of several branches' ids serves any
        # subset of them, in any order, with the rows a store drawn for
        # only that subset gives.
        net = Network.initialize(5, 3, [32, 32], dropout_rate=0.4, seed=4)
        xs = np.random.default_rng(1).standard_normal((POOL, 5))
        store = dropout_masks(3, 1, held, PASSES, [32, 32], 0.4)
        ids = data.draw(st.lists(st.sampled_from(held), unique=True))
        np.testing.assert_array_equal(mc_posteriors(net, xs, ids, store),
                                      posteriors(net, xs, ids, PASSES, 3, 1))

    @pytest.mark.parametrize("held, ids, missing", [
        ([2, 5, 9], [5, 7, 9], 7),
        ([2, 5, 9], [9, 11], 11),
        ([2, 5, 9], [0, 2], 0),
        ([], [3], 3),
    ], ids=["between", "above", "below", "empty-store"])
    def test_an_id_the_store_does_not_hold_is_rejected(self, held, ids, missing):
        store = dropout_masks(3, 1, held, PASSES, [8], 0.4)
        with pytest.raises(ValueError, match=f"no masks for instance id {missing}$"):
            mc_posteriors(make_net(0.4), np.ones((12, 3)), ids, store)

    @pytest.mark.parametrize("widths, rate", [([9], 0.4), ([8], 0.3)], ids=["widths", "rate"])
    def test_a_store_drawn_for_another_key_is_rejected(self, widths, rate):
        store = dropout_masks(3, 1, [0, 1], PASSES, widths, rate)
        with pytest.raises(ValueError, match="another network's widths or dropout rate"):
            mc_posteriors(make_net(0.4), np.ones((2, 3)), [0, 1], store)


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
            assert is_fraction_count(len(picked), frac, n)
            assert picked == select_top_b(scores, frac)
            floor = min(scores[i] for i in picked)
            others = [s for i, s in enumerate(scores) if i not in set(picked)]
            assert all(s <= floor for s in others)

    @pytest.mark.parametrize("frac, n, count", [(0.14, 50, 7), (0.07, 100, 7), (0.28, 75, 21)])
    def test_count_does_not_round_up_on_float_noise(self, frac, n, count):
        # frac * n is a hair above the integer count, so its ceiling is one more.
        assert math.ceil(frac * n) == count + 1
        assert len(select_top_b(np.arange(n, dtype=float), frac)) == count

    def test_empty_pool_gives_empty_selection(self):
        assert select_top_b([], 0.5) == []


def random_stacks(rng, n, n_passes, n_classes):
    """(n, T, C) posteriors with exact zeros: sparse rows and one-hot rows."""
    raw = rng.gamma(0.5, size=(n, n_passes, n_classes))
    raw[rng.random(raw.shape) < 0.2] = 0.0
    raw[..., 0] += raw.sum(axis=-1) == 0.0
    probs = raw / raw.sum(axis=-1, keepdims=True)
    hot = rng.random((n, n_passes)) < 0.2
    probs[hot] = np.eye(n_classes)[rng.integers(0, n_classes, size=int(hot.sum()))]
    return probs


class TestPassMean:
    @settings(derandomize=True, deadline=None)
    @given(st.integers(0, 50), st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @example(50, 40, 12, 0)
    @example(50, 40, 1, 0)
    def test_bits_equal_mean_over_the_passes(self, n, n_passes, n_classes, seed):
        # Guards the premise that numpy adds the T rows of a middle axis in
        # order.  A lone column (C = 1) it sums pairwise instead, but the only
        # distribution over one class is 1.0, which both sum exactly.
        rng = np.random.default_rng(seed)
        shape = (n, n_passes, n_classes)
        if n_classes == 1:
            probs = np.ones(shape)
        else:
            probs = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        mean, expected = pass_mean(probs), probs.mean(axis=-2)
        assert mean.shape == expected.shape
        np.testing.assert_array_equal(mean.view(np.uint64), expected.view(np.uint64))


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
