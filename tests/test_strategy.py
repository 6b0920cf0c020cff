import numpy as np
import pytest

from soqal.gate import GateStats
from soqal.strategy import (
    STRATEGY_NAMES,
    QuestionContext,
    decide,
    epsilon_schedule,
)

TRUSTED = GateStats(0.2, 0.01, 0.8, 0.01, 0.5, 0.5, d_hellinger=0.9, valid=True)
UNTRUSTED = GateStats(0.2, 0.01, 0.8, 0.01, 0.5, 0.5, d_hellinger=0.05, valid=True)


def ctx(probs=(0.5, 0.5), o=0.5, stats=TRUSTED, n=0, **kw):
    return QuestionContext(
        acquisition_index=n,
        gate_stats=stats,
        gate_output=o,
        mc_mean_probs=np.asarray(probs, dtype=float),
        **kw,
    )


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

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            epsilon_schedule(0, 1.5, 0.9)
        with pytest.raises(ValueError):
            epsilon_schedule(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            epsilon_schedule(-1, 1.0, 0.9)


class TestDecide:
    def test_full_oracle_always_asks(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            decision = decide("full-oracle", ctx(), rng)
            assert decision.ask and decision.assigned_label is None

    def test_no_oracle_never_asks(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            decision = decide("no-oracle", ctx(probs=(0.1, 0.7, 0.2)), rng)
            assert not decision.ask
            assert decision.assigned_label == 1

    def test_self_label_ties_break_to_lowest_class(self):
        rng = np.random.default_rng(2)
        decision = decide("no-oracle", ctx(probs=(0.4, 0.4, 0.2)), rng)
        assert decision.assigned_label == 0

    def test_entropy_response_one_hot_self_labels(self):
        rng = np.random.default_rng(3)
        decision = decide(
            "entropy-response", ctx(probs=(1.0, 0.0), entropy_threshold=0.01), rng
        )
        assert not decision.ask

    def test_entropy_response_uncertain_asks(self):
        rng = np.random.default_rng(4)
        decision = decide(
            "entropy-response", ctx(probs=(0.5, 0.5), entropy_threshold=0.9), rng
        )
        assert decision.ask  # normalized entropy 1.0 > 0.9

    def test_epsilon_greedy_always_asks_at_start(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            decision = decide("epsilon-greedy", ctx(n=0, epsilon0=1.0), rng)
            assert decision.ask

    def test_epsilon_greedy_frequency_tracks_schedule(self):
        rng = np.random.default_rng(6)
        asked = sum(
            decide("epsilon-greedy", ctx(n=1, epsilon0=1.0, epsilon_decay=0.5), rng).ask
            for _ in range(10_000)
        )
        assert abs(asked / 10_000 - 0.5) < 0.02

    def test_soqal_follows_gate_rule(self):
        rng = np.random.default_rng(7)
        assert decide("soqal", ctx(o=0.9, stats=TRUSTED), rng).ask
        assert not decide("soqal", ctx(o=0.1, stats=TRUSTED), rng).ask
        assert decide("soqal", ctx(o=0.1, stats=UNTRUSTED), rng).ask
        assert decide("soqal", ctx(o=0.1, stats=None), rng).ask

    def test_soqal_is_pure_given_context(self):
        context = ctx(o=0.3)
        rng = np.random.default_rng(8)
        first = decide("soqal", context, rng)
        for _ in range(10):
            assert decide("soqal", context, rng) == first

    def test_all_strategies_produce_valid_decisions(self):
        rng = np.random.default_rng(9)
        for name in STRATEGY_NAMES:
            decision = decide(name, ctx(), rng)
            if decision.ask:
                assert decision.assigned_label is None
            else:
                assert decision.assigned_label == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            decide("oracle-sometimes", ctx(), np.random.default_rng(0))
