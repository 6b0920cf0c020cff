"""The full active-learning procedure for one (config, seed) pair.

Each epoch: train on the labelled pool, refit the gate's conditional
Gaussians from a clean forward pass, and on acquisition epochs (multiples
of the configured period) score the unlabelled pool, take the top slice,
and let the questioning strategy route each pick to the oracle or to a
self-label.  Runs are pure functions of (config, seed): RNG streams for
data, network, strategy draws, and oracle flips are spawned separately so
strategies that consume no randomness leave the shared streams untouched.

A run's mutable state is a `_Run`: the network; the network, decision and
oracle RNG streams; the `labelled` id list, whose append order fixes the
training permutation; the `assigned` training labels by dataset id, -1
where none is assigned (true labels reach evaluation and the oracle, never
training); the `unlabelled` mask over dataset ids; the log; and `pending`,
an epoch trained up to its acquisition event's picks whose decisions are
not yet made.  The dataset, split, standardized features and oracle are
read-only, in `_Data`.  An event runs at every multiple of the period
while the pool is non-empty, so its index comes from the epoch: k - 1 at
epoch k * period.

Nothing before the first event's `decide` reads `config.strategy`, so the
runs of one seed whose configs differ only there agree up to that point,
their prefix.  Inside `shared_prefix`, a group of such runs computes it
once: the first stops there, keeps a deep copy of its `_Run` (sharing its
`_Data`) and goes on; each later run resumes from a copy of that snapshot,
the last from the snapshot itself.  A run without an event is all prefix.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .acquisition import bald_mcd, gate_values, mc_posteriors, predictive_entropy, select_top_b
from .config import ExperimentConfig, StrategyConfig, canonical_lines, validate
from .data import Dataset, SplitIndices, gen_synthetic, load_csv, split, standardize
from .errors import ConfigError
from .gate import GateStats, chernoff_bound, fit_conditional_gaussians
from .metrics import auc_ovr
from .network import EpochStats, Network, train_epoch
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


class _Data(NamedTuple):
    """The read-only part of a run, which its forks share by reference."""

    dataset: Dataset
    parts: SplitIndices
    features: np.ndarray  # standardized
    oracle: Oracle


class _Epoch(NamedTuple):
    """An epoch up to its decisions."""

    stats: EpochStats
    gate_stats: GateStats
    val_auc: float
    # The event's picked ids, in id order, their gate values and mean
    # posteriors; None on an epoch without an event.
    picks: tuple[list[int], np.ndarray, np.ndarray] | None


@dataclass
class _Run:
    """The mutable state of one run (see the module docstring)."""

    data: _Data
    net: Network
    net_rng: np.random.Generator
    decision_rng: np.random.Generator
    oracle_rng: np.random.Generator
    labelled: list[int]
    assigned: np.ndarray
    unlabelled: np.ndarray
    log: ResultLog
    pending: _Epoch | None = None


@dataclass
class _Scope:
    """A `shared_prefix` group: its runs not yet started, and the prefix key
    and snapshot that its first run left for them."""

    runs_left: int
    key: tuple | None = None
    snapshot: _Run | None = None


_SCOPE: ContextVar[_Scope | None] = ContextVar("shared_prefix", default=None)


def prefix_key(config: ExperimentConfig, seed: int) -> tuple:
    """Equal for runs that share their prefix: the seed and every setting but
    the strategy's, as spelled in the `# cfg` lines (0.0 and -0.0 differ)."""
    return int(seed), *canonical_lines(replace(config, strategy=StrategyConfig()))


@contextmanager
def shared_prefix(runs: int) -> Iterator[None]:
    """Scope the next `runs` calls of `run_experiment`, seed-runs of one
    `prefix_key`, so that their prefix runs once; a call of another key runs
    alone.  No snapshot is kept for one run, nor after the last."""
    token = _SCOPE.set(_Scope(runs))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def run_experiment(config: ExperimentConfig, seed: int) -> ResultLog:
    """Run one experiment; deterministic given (config, seed)."""
    validate(config)
    run = _prefix(config, seed)
    if run.pending is not None:  # stopped at its first event's picks
        _advance(config, run, until_picks=False)
    return run.log


def _prefix(config: ExperimentConfig, seed: int) -> _Run:
    """The run up to its first event's picks, or to its end if it has no
    event: computed, or forked from the snapshot of the `shared_prefix` scope."""
    scope = _SCOPE.get()
    if scope is not None:
        scope.runs_left -= 1
        key = prefix_key(config, seed)
        if scope.key == key:
            if scope.runs_left:
                return _fork(scope.snapshot)
            run, scope.key, scope.snapshot = scope.snapshot, None, None
            return run
    run = _start(config, seed)
    _advance(config, run, until_picks=True)
    if scope is not None and scope.runs_left:
        scope.key, scope.snapshot = key, _fork(run)
    return run


def _fork(run: _Run) -> _Run:
    """A deep copy of `run` that shares its read-only `_Data`."""
    return copy.deepcopy(run, {id(run.data): run.data})


def _start(config: ExperimentConfig, seed: int) -> _Run:
    """A run before its first epoch: its data, network, streams and pools."""
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

    assigned = np.full(len(dataset.labels), -1, dtype=np.int64)
    assigned[initial] = dataset.labels[initial]
    unlabelled = np.zeros(len(dataset.labels), dtype=bool)
    unlabelled[parts.train] = True
    unlabelled[initial] = False
    return _Run(_Data(dataset, parts, features, oracle), net, net_rng, decision_rng, oracle_rng,
                initial.tolist(), assigned, unlabelled,
                ResultLog(int(seed), stratified_split=parts.stratified))


def _advance(config: ExperimentConfig, run: _Run, until_picks: bool) -> None:
    """Run the epochs of `run` from where it stands, then its test AUC; with
    `until_picks`, stop at the first event's picks, that epoch in `pending`."""
    dataset, parts, features, oracle = run.data
    al, log = config.active_learning, run.log
    for epoch in range(len(log.epochs) + 1, config.training.epochs + 1):
        current = run.pending or _train_and_pick(config, run, epoch)
        if until_picks and current.picks is not None:
            run.pending = current
            return
        run.pending = None
        if current.picks is not None:
            picked, gate_outputs, mean_probs = current.picks
            labels = decide(config.strategy, epoch // al.period - 1, current.gate_stats,
                            gate_outputs, mean_probs, run.decision_rng)
            for instance_id, label in zip(picked, labels.tolist()):
                true_label = int(dataset.labels[instance_id])
                asked = label < 0
                if asked:
                    label = oracle.label(instance_id, true_label, run.oracle_rng)
                run.assigned[instance_id] = label
                log.acquisitions.append(
                    AcquisitionRecord(
                        epoch=epoch,
                        instance_id=instance_id,
                        source="oracle" if asked else "self",
                        assigned_label=int(label),
                        true_label=true_label,
                    )
                )
            run.unlabelled[picked] = False
            run.labelled += picked

        chern = chernoff_bound(current.gate_stats, config.chernoff_mode)
        log.epochs.append(
            EpochRecord(
                epoch=epoch,
                train_loss=current.stats.mean_class_loss,
                gate_loss=current.stats.mean_gate_loss,
                val_auc=current.val_auc,
                d_hellinger=current.gate_stats.d_hellinger,
                chernoff_bound=chern.bound,
                beta_star=chern.beta_star,
                cum_ask_rate=ask_rate(log) if log.acquisitions else 0.0,
                n_labelled=len(run.labelled),
                n_unlabelled=int(run.unlabelled.sum()),
            )
        )
        if not run.unlabelled.any():
            break

    log.test_auc = auc_ovr(run.net.forward_batch(features[parts.test])[0],
                           dataset.labels[parts.test])


def _train_and_pick(config: ExperimentConfig, run: _Run, epoch: int) -> _Epoch:
    """Train one epoch, refit the gate, score validation and, on an
    acquisition epoch, pick."""
    dataset, parts, features, _ = run.data
    x_lab, y_lab = features[run.labelled], run.assigned[run.labelled]
    stats = train_epoch(
        run.net, x_lab, y_lab, config.training.learning_rate, config.training.batch_size,
        run.net_rng,
    )

    # Drop the forward cache: kept to the next epoch, it raises peak memory.
    lab_probs, lab_gate = run.net.forward_batch(x_lab)[:2]
    if not (np.isfinite(lab_probs).all() and np.isfinite(lab_gate).all()):
        raise ValueError(f"training diverged at epoch {epoch}: the network's outputs are "
                         "not finite; lower training.learning_rate")
    e_flags = (lab_probs.argmax(axis=1) != y_lab).astype(np.int64)
    gate_stats = fit_conditional_gaussians(lab_gate, e_flags)

    val_auc = auc_ovr(run.net.forward_batch(features[parts.val])[0], dataset.labels[parts.val])

    al, picks = config.active_learning, None
    if epoch % al.period == 0 and al.b_frac > 0.0 and run.unlabelled.any():
        picks = _pick(config, run, epoch)
    return _Epoch(stats, gate_stats, val_auc, picks)


def _pick(config: ExperimentConfig, run: _Run,
          epoch: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """One acquisition event up to its decisions: score and select.

    Returns the picked ids, in id order, their deterministic-pass gate
    values and the row means of their posterior samples.
    """
    seed, net, features = run.log.seed, run.net, run.data.features
    candidates = np.flatnonzero(run.unlabelled)
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
    return picked, gate_values(net, features[picked]), probs.mean(axis=1)
