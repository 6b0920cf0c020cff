"""Property tests for the core math, run with a fixed example sequence
(`derandomize=True`) so the suite stays deterministic."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate
from scipy.stats import norm, rankdata

from soqal.acquisition import bald_mcd, predictive_entropy, select_top_b
from soqal.data import _largest_remainder
from soqal.gate import GateStats, chernoff_bound, hellinger
from soqal.metrics import _midranks, auc_binary
from soqal.oracle import NeighborTable

PROPERTY = settings(derandomize=True, deadline=None)

means = st.floats(-5.0, 5.0)
variances = st.floats(1e-4, 1.0)
priors = st.floats(0.05, 0.95)


def bayes_error_by_quadrature(stats: GateStats) -> float:
    """Integral of min(prior0 * f0, prior1 * f1): the error of the best rule."""
    s0, s1 = math.sqrt(stats.var0), math.sqrt(stats.var1)

    def integrand(x):
        return min(
            stats.prior0 * norm.pdf(x, stats.mu0, s0),
            stats.prior1 * norm.pdf(x, stats.mu1, s1),
        )

    lo = min(stats.mu0 - 40 * s0, stats.mu1 - 40 * s1)
    hi = max(stats.mu0 + 40 * s0, stats.mu1 + 40 * s1)
    error, _ = integrate.quad(
        integrand, lo, hi, points=[stats.mu0, stats.mu1], limit=200, epsabs=1e-12
    )
    return error


@PROPERTY
@given(means, variances, means, variances)
def test_hellinger_in_unit_interval_and_symmetric(mu0, var0, mu1, var1):
    distance = hellinger(mu0, var0, mu1, var1)
    assert 0.0 <= distance <= 1.0
    assert distance == hellinger(mu1, var1, mu0, var0)


@PROPERTY
@given(means, variances, means, variances, priors)
def test_chernoff_bound_dominates_quadrature_bayes_error(mu0, var0, mu1, var1, prior0):
    d_h = hellinger(mu0, var0, mu1, var1)
    stats = GateStats(mu0, var0, mu1, var1, prior0, 1.0 - prior0, d_h, True)
    assert chernoff_bound(stats).bound >= bayes_error_by_quadrature(stats) - 1e-9


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 7), st.booleans()), min_size=2, max_size=60))
def test_auc_binary_equals_concordance_count(pairs):
    scores = np.array([s / 7.0 for s, _ in pairs])  # a coarse grid forces ties
    positives = np.array([p for _, p in pairs])
    positives[0], positives[1] = True, False
    pos, neg = scores[positives], scores[~positives]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
    assert math.isclose(auc_binary(scores, positives), expected, abs_tol=1e-12)


@PROPERTY
@given(arrays(np.int64, st.integers(1, 80), elements=st.integers(0, 6)))
def test_midranks_equal_scipy_average_ranks(values):
    values = values.astype(np.float64)  # few distinct values: many ties
    np.testing.assert_array_equal(_midranks(values), rankdata(values, method="average"))


@PROPERTY
@given(
    st.lists(st.integers(0, 4), max_size=80),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_select_top_b_is_ceil_sized_with_stable_ties(levels, b_frac):
    scores = [level / 4.0 for level in levels]
    picked = select_top_b(scores, b_frac)
    assert len(picked) == math.ceil(b_frac * len(scores))
    by_rank = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    assert picked == by_rank[: len(picked)]


@PROPERTY
@given(
    st.integers(0, 100_000),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(lambda w: sum(w) > 0),
)
def test_largest_remainder_conserves_total(total, weights):
    fractions = [w / sum(weights) for w in weights]
    counts = _largest_remainder(total, fractions)
    assert sum(counts) == total
    assert all(abs(c - total * f) < 1.0 for c, f in zip(counts, fractions))


posterior_stacks = st.tuples(st.integers(1, 12), st.integers(2, 10)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
)


@PROPERTY
@given(posterior_stacks)
def test_bald_nonnegative_and_entropy_within_log_c(raw):
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0  # every row needs some mass
    probs = raw / raw.sum(axis=1, keepdims=True)
    assert bald_mcd(probs) >= 0.0
    assert 0.0 <= predictive_entropy(probs) <= math.log(probs.shape[1]) + 1e-12


neighbor_cases = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        arrays(np.int64, (n, 2), elements=st.integers(-3, 3)),  # exact distances
        arrays(np.int64, n, elements=st.integers(0, 2)),
        st.permutations(range(7, 7 + 3 * n, 3)),  # shuffled, non-contiguous ids
    )
)


@PROPERTY
@given(neighbor_cases)
def test_neighbor_row_is_lowest_row_at_minimum_distance(case):
    coords, labels, ids = case
    labels[0], labels[1] = 0, 1  # at least two classes
    table = NeighborTable(np.array(ids), coords.astype(np.float64), labels)
    for row, instance_id in enumerate(ids):
        dist = ((coords - coords[row]) ** 2).sum(axis=1)
        other = labels != labels[row]
        nearest = dist[other].min()
        expected = min(j for j in range(len(ids)) if other[j] and dist[j] == nearest)
        assert table.neighbor_row(instance_id) == expected
