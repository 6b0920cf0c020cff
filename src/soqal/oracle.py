"""Simulated labelers: exact ground truth, random flips, and flips to the
nearest different-class neighbour in a principal-component subspace.

Flip decisions are drawn per label request from the caller's RNG stream, so
independent runs with independent streams stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import OracleSection
from .data import Dataset
from .errors import ConfigError

ORACLE_KINDS = ("noise-free", "random-flip", "nn-flip")


@dataclass(frozen=True)
class NeighborTable:
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
    x = np.asarray(features, dtype=np.float64)
    if not 1 <= embed_dims <= x.shape[1]:
        raise ConfigError("embed_dims must lie in [1, n_features]")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / len(x)
    _, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    components = eigvecs[:, ::-1][:, :embed_dims]
    return centered @ components


def build_neighbor_table(
    dataset: Dataset, embed_dims: int, instance_ids: np.ndarray
) -> NeighborTable:
    """Project the rows `instance_ids` of `dataset` onto their own top
    principal components; each row keeps its dataset index as its id."""
    ids = np.asarray(instance_ids, dtype=np.int64)
    labels = dataset.labels[ids]
    if len(np.unique(labels)) < 2:
        raise ConfigError("neighbour table needs at least two classes present")
    return NeighborTable(ids, pca_project(dataset.features[ids], embed_dims), labels)


class Oracle:
    """Answers label requests, possibly corrupting the true label."""

    def __init__(
        self,
        config: OracleSection,
        n_classes: int,
        neighbor_table: NeighborTable | None = None,
    ):
        if config.kind not in ORACLE_KINDS:
            raise ConfigError(f"unknown oracle kind: {config.kind}")
        if config.kind == "nn-flip" and neighbor_table is None:
            raise ConfigError("nn-flip oracle needs a neighbour table")
        self.config = config
        self.n_classes = n_classes
        self.neighbor_table = neighbor_table

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
