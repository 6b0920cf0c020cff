"""Simulated labelers: exact ground truth, random flips, and flips to the
nearest different-class neighbour in a principal-component subspace.

Flip decisions are drawn per label request from the caller's RNG stream, so
independent runs with independent streams stay reproducible.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import OracleSection
from .data import Dataset
from .errors import ConfigError
from .metrics import sorted_unique

ORACLE_KINDS = ("noise-free", "random-flip", "nn-flip")


class NeighborTable(NamedTuple):
    """Instances projected onto principal components, searched on demand."""

    ids: np.ndarray  # (n,) instance id of each row
    coords: np.ndarray  # (n, k) projected features
    labels: np.ndarray  # (n,) true class of each row

    def neighbor_row(self, instance_id: int) -> int:
        """Row of the nearest different-class instance to `instance_id`.

        Distances are squared Euclidean in the projection; ties go to the
        lowest row.
        """
        rows = np.flatnonzero(self.ids == instance_id)
        if not len(rows):
            raise ConfigError(f"instance {instance_id} not in neighbour table")
        row = rows[0]
        other = self.labels != self.labels[row]
        diffs = self.coords[other] - self.coords[row]
        distances = np.einsum("ij,ij->i", diffs, diffs)
        return int(np.flatnonzero(other)[int(np.argmin(distances))])


def pca_project(features: np.ndarray, embed_dims: int) -> np.ndarray:
    """Mean-center and project onto the top principal components."""
    centered = features - features.mean(axis=0)
    cov = centered.T @ centered / len(features)
    _, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    components = eigvecs[:, ::-1][:, :embed_dims]
    return centered @ components


def build_neighbor_table(
    dataset: Dataset, embed_dims: int, instance_ids: np.ndarray
) -> NeighborTable:
    """Project the rows `instance_ids` (int64) of `dataset` onto their own top
    principal components; each row keeps its dataset index as its id."""
    labels = dataset.labels[instance_ids]
    if len(sorted_unique(labels)) < 2:
        raise ConfigError("neighbour table needs at least two classes present")
    coords = pca_project(dataset.features[instance_ids], embed_dims)
    return NeighborTable(instance_ids, coords, labels)


class Oracle:
    """Answers label requests, possibly corrupting the true label."""

    def __init__(self, config: OracleSection, dataset: Dataset, train_ids: np.ndarray):
        """nn-flip searches the training rows `train_ids` of `dataset`,
        projected onto at most `config.embed_dims` principal components."""
        if config.kind not in ORACLE_KINDS:
            raise ConfigError(f"unknown oracle kind: {config.kind}")
        self.config = config
        self.n_classes = dataset.n_classes
        self.neighbor_table = None
        if config.kind == "nn-flip":
            embed_dims = min(config.embed_dims, dataset.n_features)
            self.neighbor_table = build_neighbor_table(dataset, embed_dims, train_ids)

    def label(self, instance_id: int, true_label: int, rng: np.random.Generator) -> int:
        """Return the oracle's answer for one instance.

        noise-free echoes the truth; random-flip returns, with probability
        gamma, a uniform draw over the other C-1 classes; nn-flip returns,
        with probability gamma, the class of the nearest different-class
        neighbour.  A flip never returns the true label.
        """
        kind = self.config.kind
        if kind == "noise-free":
            return int(true_label)
        if rng.random() >= self.config.gamma:
            return int(true_label)
        if kind == "random-flip":
            offset = int(rng.integers(0, self.n_classes - 1))
            return offset if offset < true_label else offset + 1
        table = self.neighbor_table
        return int(table.labels[table.neighbor_row(instance_id)])
