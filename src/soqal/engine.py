"""The full active-learning procedure for one (config, seed) pair.

Each epoch: train on the labelled pool, refit the gate's conditional
Gaussians from a clean forward pass, and on acquisition epochs (multiples
of the configured period) score the unlabelled pool, take the top slice,
and let the questioning strategy route each pick to the oracle or to a
self-label.  Runs are pure functions of (config, seed): RNG streams for
data, network, strategy draws, and oracle flips are spawned separately so
strategies that consume no randomness leave the shared streams untouched.

The run state is three locals of `run_experiment`: the `labelled` id list,
whose append order fixes the training permutation; the `assigned` training
labels by dataset id, -1 where none is assigned (true labels reach
evaluation and the oracle, never training); and the `unlabelled` mask over
dataset ids.  An event runs at every multiple of the period while the pool
is non-empty, so its index comes from the epoch: k - 1 at epoch k * period.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acquisition import bald_mcd, gate_values, mc_posteriors, predictive_entropy, select_top_b
from .config import ExperimentConfig, validate
from .data import Dataset, gen_synthetic, load_csv, split, standardize
from .errors import ConfigError
from .gate import GateStats, chernoff_bound, fit_conditional_gaussians
from .metrics import auc_ovr
from .network import Network, train_epoch
from .oracle import Oracle
from .strategy import decide


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
    instance_id: int
    source: str  # "oracle" | "self"
    assigned_label: int
    true_label: int  # evaluation-only provenance


@dataclass
class ResultLog:
    seed: int
    epochs: list[EpochRecord] = field(default_factory=list)
    acquisitions: list[AcquisitionRecord] = field(default_factory=list)
    test_auc: float = float("nan")
    stratified_split: bool = True  # False marks the unstratified fallback


def ask_rate(log: ResultLog) -> float:
    """Fraction of acquired instances whose labels came from the oracle; nan
    before any acquisition."""
    if not log.acquisitions:
        return float("nan")
    return sum(a.source == "oracle" for a in log.acquisitions) / len(log.acquisitions)


def _build_dataset(config: ExperimentConfig, seed_seq: np.random.SeedSequence) -> Dataset:
    d = config.dataset
    if d.source == "csv":
        return load_csv(d.csv_path, d.label_column)
    return gen_synthetic(d.kind, d.n, d.classes, d.features, d.separation, seed_seq)


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
    initial = parts.init_labelled  # sorted, distinct int64 ids; empty only if train is
    if not initial.size:
        raise ConfigError("initial labelled pool is empty")
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

    labelled = initial.tolist()
    assigned = np.full(len(dataset.labels), -1, dtype=np.int64)
    assigned[initial] = dataset.labels[initial]
    unlabelled = np.zeros(len(dataset.labels), dtype=bool)
    unlabelled[parts.train] = True
    unlabelled[initial] = False

    log = ResultLog(int(seed), stratified_split=parts.stratified)

    for epoch in range(1, config.training.epochs + 1):
        x_lab, y_lab = features[labelled], assigned[labelled]
        stats_epoch = train_epoch(
            net, x_lab, y_lab, config.training.learning_rate, config.training.batch_size, net_rng
        )

        # Drop the forward cache: kept to the next epoch, it raises peak memory.
        lab_probs, lab_gate = net.forward_batch(x_lab)[:2]
        if not (np.isfinite(lab_probs).all() and np.isfinite(lab_gate).all()):
            raise ValueError(f"training diverged at epoch {epoch}: the network's outputs are "
                             "not finite; lower training.learning_rate")
        e_flags = (lab_probs.argmax(axis=1) != y_lab).astype(np.int64)
        gate_stats = fit_conditional_gaussians(lab_gate, e_flags)

        val_auc = auc_ovr(net.forward_batch(features[parts.val])[0], dataset.labels[parts.val])

        if epoch % al.period == 0 and al.b_frac > 0.0 and unlabelled.any():
            picked, labels = _acquire(
                config, seed, epoch, net, features, np.flatnonzero(unlabelled),
                gate_stats, decision_rng,
            )
            for instance_id, label in zip(picked, labels.tolist()):
                true_label = int(dataset.labels[instance_id])
                asked = label < 0
                if asked:
                    label = oracle.label(instance_id, true_label, oracle_rng)
                assigned[instance_id] = label
                log.acquisitions.append(
                    AcquisitionRecord(
                        epoch=epoch,
                        instance_id=instance_id,
                        source="oracle" if asked else "self",
                        assigned_label=int(label),
                        true_label=true_label,
                    )
                )
            unlabelled[picked] = False
            labelled += picked

        chern = chernoff_bound(gate_stats, config.chernoff_mode)
        log.epochs.append(
            EpochRecord(
                epoch=epoch,
                train_loss=stats_epoch.mean_class_loss,
                gate_loss=stats_epoch.mean_gate_loss,
                val_auc=val_auc,
                d_hellinger=gate_stats.d_hellinger,
                chernoff_bound=chern.bound,
                beta_star=chern.beta_star,
                cum_ask_rate=ask_rate(log) if log.acquisitions else 0.0,
                n_labelled=len(labelled),
                n_unlabelled=int(unlabelled.sum()),
            )
        )
        if not unlabelled.any():
            break

    log.test_auc = auc_ovr(net.forward_batch(features[parts.test])[0], dataset.labels[parts.test])
    return log


def _acquire(
    config: ExperimentConfig,
    seed: int,
    epoch: int,
    net: Network,
    features: np.ndarray,
    candidates: np.ndarray,
    gate_stats: GateStats,
    decision_rng: np.random.Generator,
) -> tuple[list[int], np.ndarray]:
    """One acquisition event: score, select, decide.

    Returns the picked ids, in id order, and per pick the self-label or -1
    where the oracle is asked.
    """
    al = config.active_learning
    # Strategy draws consume the decision stream in instance-id order; the
    # candidates are in id order, so sorted positions give sorted ids.
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

    labels = decide(
        config.strategy, epoch // al.period - 1, gate_stats, gate_values(net, features[picked]),
        probs.mean(axis=1), decision_rng,
    )
    return picked, labels
