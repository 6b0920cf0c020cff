"""The five questioning strategies behind one decision interface.

Each acquisition event asks one question of every picked instance: request
a label from the oracle, or assign the network's own prediction.
"""

from __future__ import annotations

import math

import numpy as np

from .acquisition import entropy
from .config import StrategyConfig
from .gate import GateStats, decide_ask

STRATEGY_NAMES = (
    "no-oracle",
    "epsilon-greedy",
    "entropy-response",
    "soqal",
    "full-oracle",
)


def epsilon_schedule(n: int, epsilon0: float, decay: float) -> float:
    """Ask probability epsilon0 * decay**n."""
    return epsilon0 * decay**n


def decide(
    strategy: StrategyConfig,
    acquisition_index: int,
    gate_stats: GateStats,
    gate_outputs: np.ndarray,
    mean_probs: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply one strategy to the n picks of one acquisition event.

    `acquisition_index` counts completed acquisition events from 0,
    `gate_outputs` (n,) holds each pick's deterministic-pass gate value and
    `mean_probs` (n, C) the row mean of its posterior samples.  Returns (n,)
    int64: -1 where the oracle is asked, otherwise the self-label, the
    argmax of the pick's mean posterior (ties to the lowest class index).

    Only epsilon-greedy consumes randomness, one uniform per pick in order;
    every other strategy is a pure function of its arguments.
    """
    n = len(mean_probs)
    if strategy.name == "full-oracle":
        ask = np.ones(n, dtype=bool)
    elif strategy.name == "no-oracle":
        ask = np.zeros(n, dtype=bool)
    elif strategy.name == "epsilon-greedy":
        p_ask = epsilon_schedule(acquisition_index, strategy.epsilon0, strategy.epsilon_decay)
        ask = rng.random(n) < p_ask
    elif strategy.name == "entropy-response":
        # Entropy normalized by ln C, so the threshold lies in [0, 1].
        scaled = entropy(mean_probs) / math.log(mean_probs.shape[1])
        ask = scaled > strategy.entropy_threshold
    elif strategy.name == "soqal":
        # The scalar rule per pick: a vectorised density could round
        # differently and flip a near-tie.
        ask = np.array(
            [decide_ask(float(o), gate_stats, strategy.hellinger_threshold) for o in gate_outputs],
            dtype=bool,
        )
    else:
        raise ValueError(f"unknown strategy: {strategy.name}")
    return np.where(ask, -1, np.argmax(mean_probs, axis=1)).astype(np.int64)
