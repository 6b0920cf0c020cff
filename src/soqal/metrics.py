"""Rank-based AUC for binary and one-vs-rest multiclass scoring."""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """`np.unique(values)` for NaN-free values, without its numpy.ma import."""
    ordered = np.sort(values, axis=None)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))[: ordered.size]]


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties receiving the mean of their positions."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    # Tie groups of the sorted values span positions starts[k]..ends[k].
    starts = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))
    ends = np.concatenate((starts[1:], [len(values)])) - 1
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auc_binary(scores: np.ndarray, positives: np.ndarray) -> float:
    """Rank-statistic AUC of `scores` for the boolean mask; nan if a side is empty."""
    n_pos = int(positives.sum())
    n_neg = len(positives) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = _midranks(scores)
    rank_sum = float(ranks[positives].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_ovr(scores: np.ndarray, labels: np.ndarray) -> float:
    """Unweighted mean of per-class one-vs-rest AUCs over classes present.

    `scores` holds one row of class scores per instance.  Classes absent
    from `labels` are skipped; fewer than two present classes give nan.
    """
    if scores.ndim != 2 or len(scores) != len(labels):
        raise ValueError("scores must be (N, C) aligned with labels")
    present = sorted_unique(labels)
    if len(present) < 2:
        return float("nan")
    per_class = [auc_binary(scores[:, int(c)], labels == c) for c in present]
    return float(np.mean(per_class))
