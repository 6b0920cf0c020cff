"""The five questioning strategies behind one decision interface.

Each strategy sees the same per-instance context and answers one question:
request a label from the oracle, or assign the network's own prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acquisition import normalized_entropy
from .gate import GateStats, decide_ask

STRATEGY_NAMES = (
    "no-oracle",
    "epsilon-greedy",
    "entropy-response",
    "soqal",
    "full-oracle",
)


@dataclass(frozen=True)
class QuestionContext:
    """Everything a strategy may consult for one acquired instance."""

    acquisition_index: int  # 0-based count of completed acquisition events
    gate_stats: GateStats | None
    gate_output: float  # deterministic-pass gate value for the instance
    mc_mean_probs: np.ndarray  # row mean of the instance's posterior samples
    hellinger_threshold: float = 0.15
    entropy_threshold: float = 0.5  # on entropy normalized by ln C
    epsilon0: float = 1.0
    epsilon_decay: float = 0.9


@dataclass(frozen=True)
class LabelDecision:
    """ask=True leaves assigned_label to the oracle; self-labels carry the
    argmax of the mean posterior (ties to the lowest class index)."""

    ask: bool
    assigned_label: int | None


def epsilon_schedule(n: int, epsilon0: float, decay: float) -> float:
    """Ask probability epsilon0 * decay**n, clamped to [0, 1]."""
    if not 0.0 <= epsilon0 <= 1.0:
        raise ValueError("epsilon0 must lie in [0, 1]")
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must lie in (0, 1]")
    if n < 0:
        raise ValueError("acquisition index must be non-negative")
    return min(1.0, max(0.0, epsilon0 * decay**n))


def _self_decision(ctx: QuestionContext) -> LabelDecision:
    return LabelDecision(ask=False, assigned_label=int(np.argmax(ctx.mc_mean_probs)))


_ASK = LabelDecision(ask=True, assigned_label=None)


def decide(
    strategy: str, ctx: QuestionContext, rng: np.random.Generator
) -> LabelDecision:
    """Apply one strategy to one acquired instance.

    Only epsilon-greedy consumes randomness; every other strategy is a pure
    function of the context.
    """
    if strategy == "full-oracle":
        return _ASK
    if strategy == "no-oracle":
        return _self_decision(ctx)
    if strategy == "epsilon-greedy":
        p_ask = epsilon_schedule(ctx.acquisition_index, ctx.epsilon0, ctx.epsilon_decay)
        return _ASK if rng.random() < p_ask else _self_decision(ctx)
    if strategy == "entropy-response":
        if normalized_entropy(ctx.mc_mean_probs) > ctx.entropy_threshold:
            return _ASK
        return _self_decision(ctx)
    if strategy == "soqal":
        if ctx.gate_stats is None or decide_ask(
            ctx.gate_output, ctx.gate_stats, ctx.hellinger_threshold
        ):
            return _ASK
        return _self_decision(ctx)
    raise ValueError(f"unknown strategy: {strategy}")
