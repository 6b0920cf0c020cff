"""The full active-learning procedure for one (config, seed) pair.

Each epoch: train on the labelled pool, refit the gate's conditional
Gaussians from a clean forward pass, and on acquisition epochs (multiples
of the configured period) score the unlabelled pool, take the top slice,
and let the questioning strategy route each pick to the oracle or to a
self-label.  Runs are pure functions of (config, seed): RNG streams for
data, network, strategy draws, and oracle flips are spawned separately so
strategies that consume no randomness leave the shared streams untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acquisition import bald_mcd, mc_posteriors, predictive_entropy, select_top_b
from .config import ExperimentConfig, config_hash, validate
from .data import Dataset, gen_synthetic, load_csv, split, standardize
from .errors import ConfigError, UndefinedMetricError
from .gate import GateStats, chernoff_bound, fit_conditional_gaussians
from .metrics import auc_ovr
from .network import Network, train_epoch
from .oracle import Oracle
from .strategy import decide


@dataclass
class PoolState:
    """Partition of the training split into labelled and unlabelled ids.

    Assigned labels are the training targets; true labels live only in the
    dataset and are consulted by evaluation and oracle code, never by
    training.  Both arrays are indexed by dataset id.
    """

    labelled_ids: list[int]  # append order fixes the training permutation
    assigned_labels: np.ndarray  # (N,) int64, -1 where none is assigned
    unlabelled: np.ndarray  # (N,) bool

    @classmethod
    def from_initial(
        cls, train_ids: np.ndarray, init_ids: np.ndarray, true_labels: np.ndarray
    ) -> "PoolState":
        labelled = np.unique(np.asarray(init_ids, dtype=np.int64))
        assigned = np.full(len(true_labels), -1, dtype=np.int64)
        assigned[labelled] = true_labels[labelled]
        unlabelled = np.zeros(len(true_labels), dtype=bool)
        unlabelled[train_ids] = True
        unlabelled[labelled] = False
        return cls(labelled.tolist(), assigned, unlabelled)

    @property
    def unlabelled_ids(self) -> np.ndarray:
        return np.flatnonzero(self.unlabelled)

    def move_to_labelled(self, instance_id: int, label: int) -> None:
        if not (0 <= instance_id < len(self.unlabelled) and self.unlabelled[instance_id]):
            raise ValueError(f"instance {instance_id} is not in the unlabelled pool")
        self.unlabelled[instance_id] = False
        self.labelled_ids.append(instance_id)
        self.assigned_labels[instance_id] = label

    def training_arrays(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ids = self.labelled_ids
        return features[ids], self.assigned_labels[ids]


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    gate_loss: float
    val_auc: float
    d_hellinger: float
    chernoff_bound: float  # nan while the gate fit is invalid
    beta_star: float
    cum_ask_rate: float  # 0.0 until the first acquisition
    n_labelled: int
    n_unlabelled: int


@dataclass(frozen=True)
class AcquisitionRecord:
    epoch: int
    acquisition_index: int
    instance_id: int
    source: str  # "oracle" | "self"
    assigned_label: int
    true_label: int  # evaluation-only provenance


@dataclass
class ResultLog:
    seed: int
    config_hash: str
    epochs: list[EpochRecord] = field(default_factory=list)
    acquisitions: list[AcquisitionRecord] = field(default_factory=list)
    test_auc: float = float("nan")
    stratified_split: bool = True  # False marks the unstratified fallback

    @property
    def n_acquired(self) -> int:
        return len(self.acquisitions)

    @property
    def n_oracle(self) -> int:
        return sum(1 for a in self.acquisitions if a.source == "oracle")


def ask_rate(log: ResultLog) -> float:
    """Fraction of acquired instances whose labels came from the oracle."""
    if log.n_acquired == 0:
        raise UndefinedMetricError("no acquisitions occurred")
    return log.n_oracle / log.n_acquired


def _build_dataset(config: ExperimentConfig, seed_seq: np.random.SeedSequence) -> Dataset:
    d = config.dataset
    if d.source == "csv":
        return load_csv(d.csv_path, d.label_column)
    return gen_synthetic(d.kind, d.n, d.classes, d.features, d.separation, seed_seq)


def _safe_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    try:
        return auc_ovr(scores, labels)
    except UndefinedMetricError:
        return float("nan")


def run_experiment(config: ExperimentConfig, seed: int) -> ResultLog:
    """Run one experiment; deterministic given (config, seed)."""
    validate(config)
    root = np.random.SeedSequence(int(seed))
    synth_ss, split_ss, net_ss, decision_ss, oracle_ss = root.spawn(5)

    dataset = _build_dataset(config, synth_ss)
    al = config.active_learning
    parts = split(
        dataset,
        (config.dataset.train_frac, config.dataset.val_frac, config.dataset.test_frac),
        split_ss,
        init_labelled_frac=al.init_labelled_frac,
    )
    features = standardize(dataset.features, parts.train)

    oracle = Oracle(config.oracle, dataset, parts.train)

    net_rng = np.random.default_rng(net_ss)
    net = Network.initialize(
        n_features=dataset.n_features,
        n_classes=dataset.n_classes,
        hidden=list(config.network.hidden),
        dropout_rate=config.network.dropout,
        seed=net_rng.integers(2**63),
        gate_detached=config.network.gate_detached,
    )
    decision_rng = np.random.default_rng(decision_ss)
    oracle_rng = np.random.default_rng(oracle_ss)

    pool = PoolState.from_initial(parts.train, parts.init_labelled, dataset.labels)
    if not pool.labelled_ids:
        raise ConfigError("initial labelled pool is empty")

    log = ResultLog(
        seed=int(seed),
        config_hash=config_hash(config),
        stratified_split=parts.stratified,
    )
    val_labels = dataset.labels[parts.val]
    acquisition_index = 0

    for epoch in range(1, config.training.epochs + 1):
        x_lab, y_lab = pool.training_arrays(features)
        stats_epoch = train_epoch(
            net,
            x_lab,
            y_lab,
            config.training.learning_rate,
            config.training.batch_size,
            net_rng,
        )

        lab_probs, lab_gate, _ = net.forward_batch(x_lab)
        e_flags = (lab_probs.argmax(axis=1) != y_lab).astype(np.int64)
        gate_stats = fit_conditional_gaussians(lab_gate, e_flags)

        val_probs, _, _ = net.forward_batch(features[parts.val])
        val_auc = _safe_auc(val_probs, val_labels)

        if epoch % al.period == 0 and al.b_frac > 0.0 and pool.unlabelled.any():
            _acquire(
                config,
                seed,
                epoch,
                acquisition_index,
                net,
                features,
                dataset,
                pool,
                gate_stats,
                oracle,
                decision_rng,
                oracle_rng,
                log,
            )
            acquisition_index += 1

        if gate_stats.valid:
            chern = chernoff_bound(gate_stats, config.chernoff_mode)
            bound, beta_star = chern.bound, chern.beta_star
        else:
            bound, beta_star = float("nan"), float("nan")
        cum_rate = log.n_oracle / log.n_acquired if log.n_acquired else 0.0
        log.epochs.append(
            EpochRecord(
                epoch=epoch,
                train_loss=stats_epoch.mean_class_loss,
                gate_loss=stats_epoch.mean_gate_loss,
                val_auc=val_auc,
                d_hellinger=gate_stats.d_hellinger,
                chernoff_bound=bound,
                beta_star=beta_star,
                cum_ask_rate=cum_rate,
                n_labelled=len(pool.labelled_ids),
                n_unlabelled=int(pool.unlabelled.sum()),
            )
        )
        if not pool.unlabelled.any():
            break

    test_probs, _, _ = net.forward_batch(features[parts.test])
    log.test_auc = _safe_auc(test_probs, dataset.labels[parts.test])
    return log


def _acquire(
    config: ExperimentConfig,
    seed: int,
    epoch: int,
    acquisition_index: int,
    net: Network,
    features: np.ndarray,
    dataset: Dataset,
    pool: PoolState,
    gate_stats: GateStats,
    oracle: Oracle,
    decision_rng: np.random.Generator,
    oracle_rng: np.random.Generator,
    log: ResultLog,
) -> None:
    """One acquisition event: score, select, question, transfer."""
    al = config.active_learning
    # Strategy draws consume the decision stream in instance-id order; the
    # candidates are in id order, so sorted positions give sorted ids.
    candidates = pool.unlabelled_ids
    if al.acquisition == "random":
        epoch_rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(epoch)]))
        rows = sorted(select_top_b(epoch_rng.random(len(candidates)), al.b_frac))
        probs = mc_posteriors(net, features, candidates[rows], al.mc_passes, seed, epoch)
    else:
        probs = mc_posteriors(net, features, candidates, al.mc_passes, seed, epoch)
        scorer = bald_mcd if al.acquisition == "bald-mcd" else predictive_entropy
        rows = sorted(select_top_b(scorer(probs), al.b_frac))
        probs = probs[rows]
    picked = candidates[rows].tolist()

    _, gate_det, _ = net.forward_batch(features[picked])
    labels = decide(
        config.strategy, acquisition_index, gate_stats, gate_det, probs.mean(axis=1), decision_rng
    )
    for instance_id, label in zip(picked, labels.tolist()):
        true_label = int(dataset.labels[instance_id])
        asked = label < 0
        if asked:
            label = oracle.label(instance_id, true_label, oracle_rng)
        pool.move_to_labelled(instance_id, label)
        log.acquisitions.append(
            AcquisitionRecord(
                epoch=epoch,
                acquisition_index=acquisition_index,
                instance_id=instance_id,
                source="oracle" if asked else "self",
                assigned_label=int(label),
                true_label=true_label,
            )
        )
