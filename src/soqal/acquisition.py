"""Dropout-sampled posteriors and acquisition scoring for the unlabelled pool.

Scores use natural-log entropies throughout; only the induced ordering
matters for acquisition.
"""

from __future__ import annotations

import math

import numpy as np

from .network import Network

MC_BLOCK_ROWS = 320  # rows per forward call: amortises call overhead, bounds peak memory


def mc_posteriors(
    net: Network,
    features: np.ndarray,
    ids: np.ndarray | list[int],
    n_passes: int,
    seed: int,
    epoch: int,
) -> np.ndarray:
    """(len(ids), T, C) softmax rows of `n_passes` dropout passes over the
    rows `ids` of features (N, m).

    Instance i draws its masks from one generator keyed by (seed, epoch, i),
    so its rows do not depend on which instances share its forward call.
    """
    if n_passes < 1:
        raise ValueError("need at least one pass")
    probs = np.empty((len(ids), n_passes, net.n_classes))
    per_block = max(1, MC_BLOCK_ROWS // n_passes)
    for start in range(0, len(ids), per_block):
        block = ids[start:start + per_block]
        drawn = [
            net.make_masks(
                n_passes, np.random.default_rng(np.random.SeedSequence([seed, epoch, i]))
            )
            for i in block
        ]
        masks = [np.concatenate(layer) for layer in zip(*drawn)]
        rows, _, _ = net.forward_batch(np.repeat(features[block], n_passes, axis=0), masks)
        probs[start:start + len(block)] = rows.reshape(-1, n_passes, net.n_classes)
    if not np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9):
        raise ValueError("posterior rows must sum to 1")
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
