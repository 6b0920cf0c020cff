"""Dropout-sampled posteriors and acquisition scoring for the unlabelled pool.

Scores use natural-log entropies throughout; only the induced ordering
matters for acquisition.
"""

from __future__ import annotations

import math

import numpy as np

from .network import Network


def instance_seed(
    base_seed: int, epoch: int, instance_id: int
) -> np.random.SeedSequence:
    """Deterministic per-(run, epoch, instance) seed for dropout sampling."""
    return np.random.SeedSequence([int(base_seed), int(epoch), int(instance_id)])


def mc_posteriors(
    net: Network,
    x: np.ndarray,
    n_passes: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Run `n_passes` forward passes with independent seeded dropout masks.

    Returns the (T, C) softmax rows, one per mask.  All passes are drawn
    from one generator, so the matrix is a pure function of (network, x,
    n_passes, seed).
    """
    if n_passes < 1:
        raise ValueError("need at least one pass")
    rng = np.random.default_rng(seed)
    row = np.asarray(x, dtype=np.float64).reshape(1, -1)
    tiled = np.repeat(row, n_passes, axis=0)
    masks = net.make_masks(n_passes, rng)
    probs, _, _ = net.forward_batch(tiled, masks)
    return probs


def entropy(probs: np.ndarray) -> np.ndarray:
    """Entropy of each distribution along the last axis, with 0 log 0 = 0."""
    probs = np.asarray(probs, dtype=np.float64)
    logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
    return -(probs * logs).sum(axis=-1)


def bald_mcd(probs: np.ndarray) -> np.ndarray:
    """Disagreement score of each (T, C) stack in a (..., T, C) array:
    entropy of the mean row minus mean row entropy.

    Non-negative by Jensen's inequality and zero exactly when all rows agree.
    """
    mean_entropy = entropy(probs).mean(axis=-1)
    return np.maximum(0.0, entropy(probs.mean(axis=-2)) - mean_entropy)


def predictive_entropy(probs: np.ndarray) -> np.ndarray:
    """Entropy of the mean row of each (T, C) stack, in [0, ln C]."""
    return entropy(probs.mean(axis=-2))


def normalized_entropy(probs: np.ndarray) -> float:
    """Entropy of a distribution scaled by ln C, so the range is [0, 1]."""
    n_classes = len(probs)
    if n_classes < 2:
        return 0.0
    return float(entropy(probs)) / math.log(n_classes)


def select_top_b(scores: np.ndarray | list[float], b_frac: float) -> list[int]:
    """Indices of the ceil(b_frac * N) highest scores, ties to lower index."""
    if not 0.0 < b_frac <= 1.0:
        raise ValueError("b_frac must lie in (0, 1]")
    values = np.asarray(scores, dtype=np.float64)
    if values.size == 0:
        return []
    count = math.ceil(b_frac * values.size)
    order = np.lexsort((np.arange(values.size), -values))
    return [int(i) for i in order[:count]]
