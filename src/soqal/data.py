"""Dataset synthesis, CSV ingestion, deterministic stratified splits, and
train-statistics feature normalization.

All randomness is driven by explicit seeds; a given (arguments, seed) pair
always produces the same dataset and the same partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .metrics import sorted_unique

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
    def n_features(self) -> int:
        return self.features.shape[1]


class SplitIndices(NamedTuple):
    """Disjoint index sets covering a dataset, plus the seed labelled subset."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    init_labelled: np.ndarray  # sorted subset of train
    stratified: bool  # False when a class was too small and we fell back


def gen_synthetic(
    kind: str,
    n: int,
    n_classes: int,
    n_features: int,
    class_separation: float,
    seed: int | np.random.SeedSequence,
) -> Dataset:
    """Generate a labelled toy dataset.

    gaussian-blobs places one unit-variance isotropic Gaussian per class with
    pairwise centre distance `class_separation`; ring-vs-blob (2 classes)
    surrounds a central blob with a ring of radius `class_separation`;
    noisy-sine-classes stacks sine curves offset by `class_separation`.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind: {kind}")

    rng = np.random.default_rng(seed)
    # Round-robin assignment keeps class counts within one of each other.
    labels = np.arange(n, dtype=np.int64) % n_classes

    if kind == "gaussian-blobs":
        # Scaled standard-basis centres: all pairs are class_separation apart.
        centers = np.zeros((n_classes, n_features))
        for c in range(n_classes):
            centers[c, c] = class_separation / math.sqrt(2.0)
        features = rng.standard_normal((n, n_features)) + centers[labels]
    elif kind == "ring-vs-blob":
        features = 0.3 * rng.standard_normal((n, n_features))
        blob = labels == 0
        ring = ~blob
        theta = rng.uniform(0.0, 2.0 * math.pi, size=int(ring.sum()))
        radius = class_separation + 0.3 * rng.standard_normal(int(ring.sum()))
        features[ring, 0] += radius * np.cos(theta)
        features[ring, 1] += radius * np.sin(theta)
    else:  # noisy-sine-classes
        x = rng.uniform(0.0, 2.0 * math.pi, size=n)
        y = np.sin(x) + class_separation * labels + 0.3 * rng.standard_normal(n)
        features = 0.3 * rng.standard_normal((n, n_features))
        features[:, 0] = x
        features[:, 1] = y

    return Dataset(features=features, labels=labels, n_classes=n_classes)


def _parse_float(path: str, cell: str, row: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ConfigError(
            f"{path}: non-numeric feature value {cell!r} at row {row}, column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(
            f"{path}: non-finite feature value {cell!r} at row {row}, column {column!r}"
        )
    return value


def load_csv(path: str, label_column: str = "label") -> Dataset:
    """Load a dataset from a headed UTF-8 CSV file, with or without a byte-order mark.

    Every column except `label_column` is parsed as a float64 feature.
    String labels map to class indices in order of first appearance.
    Every error names the file; rows are numbered from 1 (header excluded).
    The file needs a feature column and at least two label values.
    """
    import csv  # here: a synthetic run reads no CSV
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        if label_column not in header:
            raise ConfigError(f"{path}: missing label column {label_column!r}")
        if len(header) < 2:
            raise ConfigError(f"{path}: no feature column besides {label_column!r}")
        label_pos = header.index(label_column)

        rows: list[list[float]] = []
        label_values: list[int] = []
        label_map: dict[str, int] = {}
        for row_idx, record in enumerate(reader, start=1):
            if len(record) != len(header):
                raise ConfigError(
                    f"{path}: row {row_idx} has {len(record)} cells, expected {len(header)}"
                )
            raw_label = record[label_pos]
            if raw_label not in label_map:
                label_map[raw_label] = len(label_map)
            label_values.append(label_map[raw_label])
            rows.append(
                [
                    _parse_float(path, cell, row_idx, header[i])
                    for i, cell in enumerate(record)
                    if i != label_pos
                ]
            )

    if not rows:
        raise ConfigError(f"{path}: no data rows")
    if len(label_map) < 2:
        raise ConfigError(f"{path}: every row has label {raw_label!r}; need 2 classes or more")
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
    seed: int | np.random.SeedSequence,
    init_labelled_frac: float = 0.1,
) -> SplitIndices:
    """Partition instance indices into train/val/test plus a seed labelled set.

    Splits are stratified by class where every class has at least one
    instance per split slot; otherwise the partition falls back to a plain
    shuffle and `stratified` is False. Global split sizes always match the
    largest-remainder rounding of fractions * N.
    """
    rng = np.random.default_rng(seed)
    n = len(dataset.labels)
    targets = _largest_remainder(n, list(fractions))

    class_indices = [
        np.flatnonzero(dataset.labels == c) for c in range(dataset.n_classes)
    ]
    stratified = all(len(idx) >= len(fractions) for idx in class_indices)

    buckets: list[list[int]] = [[], [], []]
    if stratified:
        for idx in class_indices:
            counts = np.cumsum(_largest_remainder(len(idx), list(fractions)))
            for bucket, part in zip(buckets, np.split(rng.permutation(idx), counts[:-1])):
                bucket.extend(part.tolist())
        _rebalance(buckets, targets, dataset.labels)
    else:
        for bucket, part in zip(buckets, np.split(rng.permutation(n), np.cumsum(targets)[:-1])):
            bucket.extend(part.tolist())

    train, val, test = (np.sort(np.asarray(b, dtype=np.int64)) for b in buckets)

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


def fraction_count(fraction: float, n: int) -> int:
    """The smallest k with k / n >= fraction (float division): ceil(fraction
    * n) but for the product's rounding, which makes 0.14 of 50 eight."""
    k = math.ceil(fraction * n)
    while k > 0 and (k - 1) / n >= fraction:
        k -= 1
    while k < n and k / n < fraction:
        k += 1
    return k


def _stratified_take(
    pool: np.ndarray,
    labels: np.ndarray,
    fraction: float,
    rng: np.random.Generator,
    stratified: bool,
) -> np.ndarray:
    """Pick max(1, fraction_count(fraction, len(pool))) indices, per-class where possible."""
    want = max(1, fraction_count(fraction, len(pool)))
    if not stratified:
        return np.sort(rng.permutation(pool)[:want])
    chosen: list[int] = []
    pool_labels = labels[pool]
    present = sorted_unique(pool_labels)
    counts = _largest_remainder(want, [float((pool_labels == c).mean()) for c in present])
    for c, count in zip(present, counts):
        members = pool[pool_labels == c]
        take = min(max(count, 1), len(members))
        chosen.extend(rng.permutation(members)[:take].tolist())
    return np.sort(np.asarray(chosen[:want], dtype=np.int64))


def standardize(features: np.ndarray, train_indices: np.ndarray) -> np.ndarray:
    """Z-score all rows with mean/std computed from the training rows only.

    Constant features keep their centered value (std treated as 1).  A
    feature whose mean or std overflows would scale to zeros, so it is
    rejected by index.
    """
    train = features[train_indices]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.mean(axis=0)
        std = train.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        raise ConfigError(f"feature {bad[0]} is too large to standardize: the mean or "
                          "standard deviation of its training rows overflows; rescale it")
    std = np.where(std > 0.0, std, 1.0)
    return (features - mean) / std
