"""Simulated labelers: exact ground truth, random flips, and flips to the
nearest different-class neighbour in a principal-component subspace.

Flip decisions are drawn per label request from the caller's RNG stream, so
independent runs with independent streams stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError

ORACLE_KINDS = ("noise-free", "random-flip", "nn-flip")


@dataclass(frozen=True)
class OracleConfig:
    kind: str = "noise-free"
    gamma: float = 0.0  # flip probability
    embed_dims: int = 2  # projection dimensionality for nn-flip

    def __post_init__(self):
        if self.kind not in ORACLE_KINDS:
            raise ConfigError(f"unknown oracle kind: {self.kind}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must lie in [0, 1]")
        if self.embed_dims < 1:
            raise ConfigError("embed_dims must be >= 1")


@dataclass(frozen=True)
class NeighborTable:
    """For each covered instance, the nearest instance of a different class."""

    instance_ids: np.ndarray  # ids the table covers, sorted
    neighbor_ids: np.ndarray  # aligned with instance_ids
    neighbor_labels: np.ndarray  # true class of each neighbour

    def neighbor_label(self, instance_id: int) -> int:
        pos = np.searchsorted(self.instance_ids, instance_id)
        if pos >= len(self.instance_ids) or self.instance_ids[pos] != instance_id:
            raise ConfigError(f"instance {instance_id} not in neighbour table")
        return int(self.neighbor_labels[pos])


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
    dataset: Dataset,
    embed_dims: int,
    instance_ids: np.ndarray | None = None,
) -> NeighborTable:
    """Nearest different-class neighbour per instance, in the projected space.

    `instance_ids` names the dataset rows (defaults to 0..N-1) so a table
    built over a subset keeps the caller's ids.
    """
    labels = dataset.labels
    if len(np.unique(labels)) < 2:
        raise ConfigError("neighbour table needs at least two classes present")
    projected = pca_project(dataset.features, embed_dims)
    ids = (
        np.arange(dataset.n_instances, dtype=np.int64)
        if instance_ids is None
        else np.asarray(instance_ids, dtype=np.int64)
    )
    if len(ids) != dataset.n_instances:
        raise ConfigError("instance_ids must match the dataset length")

    neighbor_rows = np.empty(dataset.n_instances, dtype=np.int64)
    for row in range(dataset.n_instances):
        other = labels != labels[row]
        diffs = projected[other] - projected[row]
        distances = np.einsum("ij,ij->i", diffs, diffs)
        neighbor_rows[row] = np.flatnonzero(other)[int(np.argmin(distances))]

    order = np.argsort(ids, kind="stable")
    return NeighborTable(
        instance_ids=ids[order],
        neighbor_ids=ids[neighbor_rows][order],
        neighbor_labels=labels[neighbor_rows][order].astype(np.int64),
    )


class Oracle:
    """Answers label requests, possibly corrupting the true label."""

    def __init__(
        self,
        config: OracleConfig,
        n_classes: int,
        neighbor_table: NeighborTable | None = None,
    ):
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
        return self.neighbor_table.neighbor_label(instance_id)
