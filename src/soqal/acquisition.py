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


MC_BLOCK_ROWS = 320  # rows per forward call: amortises call overhead, bounds peak memory


def mc_posteriors(
    net: Network,
    xs: np.ndarray,
    n_passes: int,
    seeds: list[int | np.random.SeedSequence],
) -> np.ndarray:
    """(N, T, C) softmax rows of `n_passes` dropout passes over each row of xs (N, m).

    Instance i draws its masks from one generator seeded by `seeds[i]`, so its
    rows do not depend on which instances share its forward call.
    """
    if n_passes < 1:
        raise ValueError("need at least one pass")
    probs = np.empty((len(xs), n_passes, net.n_classes))
    per_block = max(1, MC_BLOCK_ROWS // n_passes)
    for start in range(0, len(xs), per_block):
        stop = start + per_block
        drawn = [net.make_masks(n_passes, np.random.default_rng(s)) for s in seeds[start:stop]]
        masks = [np.concatenate(layer) for layer in zip(*drawn)]
        block, _, _ = net.forward_batch(np.repeat(xs[start:stop], n_passes, axis=0), masks)
        probs[start:stop] = block.reshape(-1, n_passes, net.n_classes)
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
