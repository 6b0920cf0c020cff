import math

import numpy as np
import pytest
from scipy.stats import entropy as scipy_entropy

from soqal.config import StrategyConfig
from soqal.gate import GateStats, decide_ask
from soqal.strategy import (
    STRATEGY_NAMES,
    decide,
    epsilon_schedule,
)

TRUSTED = GateStats(0.2, 0.01, 0.8, 0.01, 0.5, 0.5, d_hellinger=0.9, valid=True)
UNTRUSTED = GateStats(0.2, 0.01, 0.8, 0.01, 0.5, 0.5, d_hellinger=0.05, valid=True)


def decide_one(name, rng, probs=(0.5, 0.5), o=0.5, stats=TRUSTED, n=0, **kw):
    """Decision for a single pick: -1 to ask, else the self-label."""
    labels = decide(
        StrategyConfig(name=name, **kw),
        n,
        stats,
        np.array([o]),
        np.asarray([probs], dtype=float),
        rng,
    )
    assert labels.shape == (1,) and labels.dtype == np.int64
    return int(labels[0])


class TestEpsilonSchedule:
    def test_starts_at_epsilon0(self):
        assert epsilon_schedule(0, 0.7, 0.9) == 0.7

    def test_no_decay_is_constant(self):
        assert all(epsilon_schedule(n, 0.6, 1.0) == 0.6 for n in range(10))

    def test_geometric_decay(self):
        assert epsilon_schedule(3, 1.0, 0.5) == pytest.approx(0.125)
        assert epsilon_schedule(1, 1.0, 0.9) == pytest.approx(0.9)
        assert epsilon_schedule(2, 1.0, 0.9) == pytest.approx(0.81)

    def test_non_increasing(self):
        values = [epsilon_schedule(n, 0.8, 0.7) for n in range(20)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestDecide:
    def test_full_oracle_always_asks(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert decide_one("full-oracle", rng) == -1

    def test_no_oracle_never_asks(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert decide_one("no-oracle", rng, probs=(0.1, 0.7, 0.2)) == 1

    def test_self_label_ties_break_to_lowest_class(self):
        rng = np.random.default_rng(2)
        assert decide_one("no-oracle", rng, probs=(0.4, 0.4, 0.2)) == 0

    def test_entropy_response_one_hot_self_labels(self):
        rng = np.random.default_rng(3)
        label = decide_one(
            "entropy-response", rng, probs=(1.0, 0.0), entropy_threshold=0.01
        )
        assert label == 0

    def test_entropy_response_uncertain_asks(self):
        rng = np.random.default_rng(4)
        label = decide_one(
            "entropy-response", rng, probs=(0.5, 0.5), entropy_threshold=0.9
        )
        assert label == -1  # normalized entropy 1.0 > 0.9

    def test_epsilon_greedy_always_asks_at_start(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert decide_one("epsilon-greedy", rng, n=0, epsilon0=1.0) == -1

    def test_epsilon_greedy_frequency_tracks_schedule(self):
        rng = np.random.default_rng(6)
        asked = sum(
            decide_one("epsilon-greedy", rng, n=1, epsilon0=1.0, epsilon_decay=0.5) == -1
            for _ in range(10_000)
        )
        assert abs(asked / 10_000 - 0.5) < 0.02

    def test_soqal_follows_gate_rule(self):
        rng = np.random.default_rng(7)
        assert decide_one("soqal", rng, o=0.9, stats=TRUSTED) == -1
        assert decide_one("soqal", rng, o=0.1, stats=TRUSTED) == 0
        assert decide_one("soqal", rng, o=0.1, stats=UNTRUSTED) == -1

    def test_soqal_is_pure_given_context(self):
        rng = np.random.default_rng(8)
        first = decide_one("soqal", rng, o=0.3)
        for _ in range(10):
            assert decide_one("soqal", rng, o=0.3) == first

    def test_all_strategies_produce_valid_decisions(self):
        rng = np.random.default_rng(9)
        for name in STRATEGY_NAMES:
            assert decide_one(name, rng) in (-1, 0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            decide_one("oracle-sometimes", np.random.default_rng(0))


def reference_labels(strategy, acquisition_index, stats, gate_outputs, mean_probs, rng):
    """Per-pick decisions written independently of `decide`: one scalar
    gate decision, one scipy entropy and one scalar uniform per pick."""
    labels = []
    for o, row in zip(gate_outputs, mean_probs):
        if strategy.name == "full-oracle":
            ask = True
        elif strategy.name == "no-oracle":
            ask = False
        elif strategy.name == "epsilon-greedy":
            p_ask = epsilon_schedule(
                acquisition_index, strategy.epsilon0, strategy.epsilon_decay
            )
            ask = rng.random() < p_ask
        elif strategy.name == "entropy-response":
            ask = scipy_entropy(row) / math.log(len(row)) > strategy.entropy_threshold
        else:
            ask = decide_ask(float(o), stats, strategy.hellinger_threshold)
        labels.append(-1 if ask else int(np.argmax(row)))
    return labels


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_batch_matches_per_pick_reference(name):
    """One call over 64 picks gives the per-pick decisions and leaves the
    generator where 64 scalar draws (epsilon-greedy) or none would."""
    data = np.random.default_rng(11)
    mean_probs = data.dirichlet(np.full(3, 0.7), size=64)
    mean_probs[:4] = [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.4, 0.4, 0.2], [1 / 3] * 3]
    gate_outputs = data.uniform(0.0, 1.0, size=64)
    strategy = StrategyConfig(
        name=name, entropy_threshold=0.6, epsilon0=0.8, epsilon_decay=0.9
    )
    rng, twin = np.random.default_rng(12), np.random.default_rng(12)
    labels = decide(strategy, 3, TRUSTED, gate_outputs, mean_probs, rng)
    expected = reference_labels(strategy, 3, TRUSTED, gate_outputs, mean_probs, twin)
    assert labels.dtype == np.int64
    assert labels.tolist() == expected
    assert rng.bit_generator.state == twin.bit_generator.state
    if name not in ("full-oracle", "no-oracle"):
        assert -1 in expected and any(label >= 0 for label in expected)
