"""Dataset synthesis, CSV ingestion, deterministic stratified splits, and
train-statistics feature normalization.

All randomness is driven by explicit seeds; a given (arguments, seed) pair
always produces the same dataset and the same partition.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataLoadError

SYNTHETIC_KINDS = ("gaussian-blobs", "ring-vs-blob", "noisy-sine-classes")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus integer class labels.

    `labels` are the ground-truth classes; downstream code decides whether a
    training target is this value or something assigned by an oracle.
    """

    features: np.ndarray  # (N, m) float64
    labels: np.ndarray  # (N,) int64, values in [0, n_classes)
    n_classes: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels disagree on instance count")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels out of range for n_classes")
        if len(self.labels) < self.n_classes:
            raise ValueError("need at least one instance per class")

    @property
    def n_instances(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint index sets covering a dataset, plus the seed labelled subset."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    init_labelled: np.ndarray  # subset of train
    stratified: bool  # False when a class was too small and we fell back


def _balanced_labels(n: int, n_classes: int) -> np.ndarray:
    # Round-robin assignment keeps class counts within one of each other.
    return np.arange(n, dtype=np.int64) % n_classes


def gen_synthetic(
    kind: str,
    n: int,
    n_classes: int,
    n_features: int,
    class_separation: float,
    seed: int,
) -> Dataset:
    """Generate a labelled toy dataset.

    gaussian-blobs places one unit-variance isotropic Gaussian per class with
    pairwise centre distance `class_separation`; ring-vs-blob (2 classes)
    surrounds a central blob with a ring of radius `class_separation`;
    noisy-sine-classes stacks sine curves offset by `class_separation`.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind: {kind}")
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if n < 10 * n_classes:
        raise ValueError("need n >= 10 * n_classes")
    if n_features < 1:
        raise ValueError("need at least one feature")

    rng = np.random.default_rng(seed)
    labels = _balanced_labels(n, n_classes)

    if kind == "gaussian-blobs":
        if n_features < n_classes:
            raise ValueError("gaussian-blobs needs n_features >= n_classes")
        # Scaled standard-basis centres: all pairs are class_separation apart.
        centers = np.zeros((n_classes, n_features))
        for c in range(n_classes):
            centers[c, c] = class_separation / math.sqrt(2.0)
        features = rng.standard_normal((n, n_features)) + centers[labels]
    elif kind == "ring-vs-blob":
        if n_classes != 2:
            raise ValueError("ring-vs-blob is a 2-class generator")
        if n_features < 2:
            raise ValueError("ring-vs-blob needs n_features >= 2")
        features = 0.3 * rng.standard_normal((n, n_features))
        blob = labels == 0
        ring = ~blob
        theta = rng.uniform(0.0, 2.0 * math.pi, size=int(ring.sum()))
        radius = class_separation + 0.3 * rng.standard_normal(int(ring.sum()))
        features[ring, 0] += radius * np.cos(theta)
        features[ring, 1] += radius * np.sin(theta)
    else:  # noisy-sine-classes
        if n_features < 2:
            raise ValueError("noisy-sine-classes needs n_features >= 2")
        x = rng.uniform(0.0, 2.0 * math.pi, size=n)
        y = np.sin(x) + class_separation * labels + 0.3 * rng.standard_normal(n)
        features = 0.3 * rng.standard_normal((n, n_features))
        features[:, 0] = x
        features[:, 1] = y

    return Dataset(features=features, labels=labels, n_classes=n_classes)


def _parse_float(cell: str, row: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataLoadError(
            f"non-numeric feature value {cell!r} at row {row}, column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise DataLoadError(
            f"non-finite feature value {cell!r} at row {row}, column {column!r}"
        )
    return value


def load_csv(path: str, label_column: str = "label") -> Dataset:
    """Load a dataset from a headed CSV file.

    Every column except `label_column` is parsed as a float64 feature.
    String labels map to class indices in order of first appearance.
    Rows are numbered from 1 (header excluded) in error messages.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataLoadError(f"empty file: {path}") from None
        if label_column not in header:
            raise DataLoadError(f"missing label column {label_column!r} in {path}")
        label_pos = header.index(label_column)

        rows: list[list[float]] = []
        label_values: list[int] = []
        label_map: dict[str, int] = {}
        for row_idx, record in enumerate(reader, start=1):
            if len(record) != len(header):
                raise DataLoadError(
                    f"row {row_idx} has {len(record)} cells, expected {len(header)}"
                )
            raw_label = record[label_pos]
            if raw_label not in label_map:
                label_map[raw_label] = len(label_map)
            label_values.append(label_map[raw_label])
            rows.append(
                [
                    _parse_float(cell, row_idx, header[i])
                    for i, cell in enumerate(record)
                    if i != label_pos
                ]
            )

    if not rows:
        raise DataLoadError(f"no data rows in {path}")
    return Dataset(
        features=np.asarray(rows, dtype=np.float64),
        labels=np.asarray(label_values, dtype=np.int64),
        n_classes=len(label_map),
    )


def _largest_remainder(total: int, fractions: list[float]) -> list[int]:
    """Integer allocation of `total` by `fractions`, largest remainders first."""
    raw = [total * f for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    short = total - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (counts[i] - raw[i], i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def split(
    dataset: Dataset,
    fractions: tuple[float, float, float],
    seed: int,
    init_labelled_frac: float = 0.1,
) -> SplitIndices:
    """Partition instance indices into train/val/test plus a seed labelled set.

    Splits are stratified by class where every class has at least one
    instance per split slot; otherwise the partition falls back to a plain
    shuffle and `stratified` is False. Global split sizes always match the
    largest-remainder rounding of fractions * N.
    """
    if any(f <= 0 for f in fractions):
        raise ValueError("fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    if not 0.0 < init_labelled_frac <= 1.0:
        raise ValueError("init_labelled_frac must lie in (0, 1]")

    rng = np.random.default_rng(seed)
    n = dataset.n_instances
    targets = _largest_remainder(n, list(fractions))

    class_indices = [
        np.flatnonzero(dataset.labels == c) for c in range(dataset.n_classes)
    ]
    stratified = all(len(idx) >= len(fractions) for idx in class_indices)

    buckets: list[list[int]] = [[], [], []]
    if stratified:
        for idx in class_indices:
            shuffled = rng.permutation(idx)
            counts = _largest_remainder(len(idx), list(fractions))
            start = 0
            for s, count in enumerate(counts):
                buckets[s].extend(shuffled[start : start + count].tolist())
                start += count
        _rebalance(buckets, targets, dataset.labels)
    else:
        shuffled = rng.permutation(n)
        start = 0
        for s, count in enumerate(targets):
            buckets[s].extend(shuffled[start : start + count].tolist())
            start += count

    train = np.sort(np.asarray(buckets[0], dtype=np.int64))
    val = np.sort(np.asarray(buckets[1], dtype=np.int64))
    test = np.sort(np.asarray(buckets[2], dtype=np.int64))

    init_labelled = _stratified_take(
        train, dataset.labels, init_labelled_frac, rng, stratified
    )
    return SplitIndices(
        train=train, val=val, test=test, init_labelled=init_labelled, stratified=stratified
    )


def _rebalance(buckets: list[list[int]], targets: list[int], labels: np.ndarray) -> None:
    """Move single instances between buckets until sizes hit their targets.

    Donors give up an instance of their currently most frequent class, which
    keeps per-class proportions within one instance of the stratified ideal.
    """
    for _ in range(len(labels)):
        sizes = [len(b) for b in buckets]
        over = [i for i in range(3) if sizes[i] > targets[i]]
        under = [i for i in range(3) if sizes[i] < targets[i]]
        if not over:
            break
        src, dst = over[0], under[0]
        counts = np.bincount(labels[buckets[src]], minlength=labels.max() + 1)
        donor_class = int(np.argmax(counts))
        for pos in range(len(buckets[src]) - 1, -1, -1):
            if labels[buckets[src][pos]] == donor_class:
                buckets[dst].append(buckets[src].pop(pos))
                break


def _stratified_take(
    pool: np.ndarray,
    labels: np.ndarray,
    fraction: float,
    rng: np.random.Generator,
    stratified: bool,
) -> np.ndarray:
    """Pick ceil(fraction * len(pool)) indices, per-class where possible."""
    want = max(1, math.ceil(fraction * len(pool)))
    if not stratified:
        return np.sort(rng.permutation(pool)[:want])
    chosen: list[int] = []
    pool_labels = labels[pool]
    present = np.unique(pool_labels)
    counts = _largest_remainder(want, [float((pool_labels == c).mean()) for c in present])
    for c, count in zip(present, counts):
        members = pool[pool_labels == c]
        take = min(max(count, 1), len(members))
        chosen.extend(rng.permutation(members)[:take].tolist())
    return np.sort(np.asarray(chosen[:want], dtype=np.int64))


def standardize(features: np.ndarray, train_indices: np.ndarray) -> np.ndarray:
    """Z-score all rows with mean/std computed from the training rows only.

    Constant features keep their centered value (std treated as 1).
    """
    train = features[train_indices]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return (features - mean) / std
