"""The full active-learning procedure for one (config, seed) pair.

Each epoch: train on the labelled pool, refit the gate's conditional
Gaussians from a clean forward pass, and on acquisition epochs (multiples
of the configured period) score the unlabelled pool, take the top slice,
and let the questioning strategy route each pick to the oracle or to a
self-label.  Runs are pure functions of (config, seed): RNG streams for
data, network, strategy draws, and oracle flips are spawned separately so
strategies that consume no randomness leave the shared streams untouched.

A run's mutable state is a `_Run`: the network; the network and oracle RNG
streams; the `labelled` id list, whose append order fixes the training
permutation; the `assigned` training labels by dataset id, -1 where none
is assigned (true labels reach evaluation and the oracle, never training),
so the unlabelled pool is the train ids still at -1; the log; and its
members (below).  The dataset, split, standardized features and oracle are
read-only, in `_Data`.  An event runs at every multiple of the period while
the pool is non-empty, so its index comes from the epoch: k - 1 at k * period.

Only an event's `decide` reads `config.strategy`, and equal decisions (the
returned label arrays) mean equal oracle draws and equal `assigned` labels.
So the runs of one seed whose configs differ only in the strategy stay
equal, but for their decision streams, for as long as their decisions
agree.  `_run_branches` advances such a group in lockstep as branches: a
branch is one `_Run` whose members are the runs whose decisions have agreed
so far, each as its index in the group, its strategy and its own decision
stream.  At each epoch a branch trains and picks once, every member
decides, and the members are grouped by the label arrays they return; each
group after the first moves, as it is, to a deep copy of the branch taken
before the oracle labels it, so no decision stream is ever copied.  A run
that never splits off computes nothing of its own, and a group holds at
most one `_Run` per distinct decision history.  A run alone is a group of one.
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
from .gate import chernoff_bound, fit_conditional_gaussians
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


class _Data(NamedTuple):
    """The read-only part of a run, which its forks share by reference."""

    dataset: Dataset
    parts: SplitIndices
    features: np.ndarray  # standardized
    oracle: Oracle


@dataclass
class _Run:
    """The mutable state of one run (see the module docstring)."""

    data: _Data
    net: Network
    net_rng: np.random.Generator
    oracle_rng: np.random.Generator
    labelled: list[int]
    assigned: np.ndarray
    log: ResultLog
    members: list[tuple[int, StrategyConfig, np.random.Generator]]


# The `shared_runs` scope: each run's `_run_key` mapped to the run, and to
# its log once the first call has computed the group.
_SCOPE: ContextVar[dict | None] = ContextVar("shared_runs", default=None)


def _run_key(config: ExperimentConfig, seed: int) -> tuple:
    """The seed and every setting, as spelled in the `# cfg` lines (0.0 and
    -0.0 differ)."""
    return int(seed), *canonical_lines(config)


def prefix_key(config: ExperimentConfig, seed: int) -> tuple:
    """Equal for runs that `_run_branches` may compute together: the `_run_key`
    of every setting but the strategy's."""
    return _run_key(replace(config, strategy=StrategyConfig()), seed)


@contextmanager
def shared_runs(runs: list[tuple[ExperimentConfig, int]]) -> Iterator[None]:
    """Scope the `run_experiment` calls of `runs`, (config, seed) pairs of
    one `prefix_key`: the first such call computes them all in one group,
    and each returns its own run's log; a call of another run runs alone.

    The CLI keeps one `run_experiment(config, seed)` call per seed-run, as
    perfbench's `SetupProbe` wraps that call to time set-up and to read each
    run's acquisitions (for `label_accuracy` and `ask_rate`), and
    `test_run_experiment_gets_config_and_seed_once_per_seed_run` pins it.
    So this scope can go only with a benchmark change that moves the probe.
    """
    if len({prefix_key(*run) for run in runs}) > 1:
        raise ValueError("shared_runs takes runs of one prefix_key")
    token = _SCOPE.set({_run_key(*run): run for run in runs})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def run_experiment(config: ExperimentConfig, seed: int) -> ResultLog:
    """Run one experiment; deterministic given (config, seed)."""
    scope, key = _SCOPE.get() or {}, _run_key(config, seed)
    if key not in scope:
        return _run_branches([(config, seed)])[0]
    if not isinstance(scope[key], ResultLog):
        scope.update(zip(list(scope), _run_branches(list(scope.values()))))
    return scope[key]


def _fork(run: _Run) -> _Run:
    """A deep copy of `run` that shares its read-only `_Data` and has no members."""
    return copy.deepcopy(run, {id(run.data): run.data, id(run.members): []})


def _start(runs: list[tuple[ExperimentConfig, int]]) -> _Run:
    """The first branch of `runs`, before its first epoch: their shared data,
    network, streams and pools, and every run as a member."""
    config, seed = runs[0]
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
    oracle_rng = np.random.default_rng(oracle_ss)

    assigned = np.full(len(dataset.labels), -1, dtype=np.int64)
    assigned[initial] = dataset.labels[initial]
    log = ResultLog(int(seed), stratified_split=parts.stratified)
    members = [(i, cfg.strategy, np.random.default_rng(decision_ss))
               for i, (cfg, _) in enumerate(runs)]
    return _Run(_Data(dataset, parts, features, oracle), net, net_rng, oracle_rng,
                initial.tolist(), assigned, log, members)


def _run_branches(runs: list[tuple[ExperimentConfig, int]]) -> list[ResultLog]:
    """The logs of `runs`, (config, seed) pairs of one `prefix_key`, advanced
    in lockstep branches (see the module docstring)."""
    for config, _ in runs:
        validate(config)
    config = runs[0][0]
    branches = [_start(runs)]
    for epoch in range(1, config.training.epochs + 1):
        branches = [fork for run in branches for fork in _step(config, run, epoch)]
        if not branches[0].log.epochs[-1].n_unlabelled:  # all branch pools have one size
            break

    logs: list[ResultLog] = [None] * len(runs)
    for run in branches:
        dataset, parts, features, _ = run.data
        run.log.test_auc = auc_ovr(run.net.forward_batch(features[parts.test])[0],
                                   dataset.labels[parts.test])
        for index, _, _ in run.members:
            logs[index] = run.log
    return logs


def _step(config: ExperimentConfig, run: _Run, epoch: int) -> list[_Run]:
    """One epoch of a branch: train, refit the gate, score validation and,
    on an acquisition epoch, pick, let each member decide and label the
    picks once per distinct decision.  `config` gives every setting but the
    strategy, which each member brings.  Returns the branches it ends as."""
    dataset, parts, features, oracle = run.data
    x_lab, y_lab = features[run.labelled], run.assigned[run.labelled]
    stats = train_epoch(run.net, x_lab, y_lab, config.training.learning_rate,
                        config.training.batch_size, run.net_rng)

    # Drop the forward cache: kept to the next epoch, it raises peak memory.
    lab_probs, lab_gate = run.net.forward_batch(x_lab)[:2]
    if not (np.isfinite(lab_probs).all() and np.isfinite(lab_gate).all()):
        raise ValueError(f"training diverged at epoch {epoch}: the network's outputs are "
                         "not finite; lower training.learning_rate")
    e_flags = (lab_probs.argmax(axis=1) != y_lab).astype(np.int64)
    gate_stats = fit_conditional_gaussians(lab_gate, e_flags)

    val_auc = auc_ovr(run.net.forward_batch(features[parts.val])[0], dataset.labels[parts.val])

    al, splits = config.active_learning, {b"": (None, run.members)}
    if epoch % al.period == 0 and al.b_frac > 0.0 and len(run.labelled) < len(parts.train):
        picked, gate_outputs, mean_probs = _pick(config, run, epoch)
        splits = {}
        for index, strategy, rng in run.members:
            labels = decide(strategy, epoch // al.period - 1, gate_stats,
                            gate_outputs, mean_probs, rng)
            splits.setdefault(labels.tobytes(), (labels, []))[1].append((index, strategy, rng))
    # Every copy is taken before the oracle labels the run.
    forks = [run, *(_fork(run) for _ in range(len(splits) - 1))]
    chern = chernoff_bound(gate_stats, config.chernoff_mode)
    for fork, (labels, members) in zip(forks, splits.values()):
        fork.members, log = members, fork.log
        if labels is not None:
            for instance_id, label in zip(picked, labels.tolist()):
                true_label = int(dataset.labels[instance_id])
                asked = label < 0
                if asked:
                    label = oracle.label(instance_id, true_label, fork.oracle_rng)
                fork.assigned[instance_id] = label
                log.acquisitions.append(AcquisitionRecord(
                    epoch=epoch, instance_id=instance_id, source="oracle" if asked else "self",
                    assigned_label=int(label), true_label=true_label))
            fork.labelled += picked

        log.epochs.append(EpochRecord(
            epoch=epoch, train_loss=stats.mean_class_loss, gate_loss=stats.mean_gate_loss,
            val_auc=val_auc, d_hellinger=gate_stats.d_hellinger, chernoff_bound=chern.bound,
            beta_star=chern.beta_star, cum_ask_rate=ask_rate(log) if log.acquisitions else 0.0,
            n_labelled=len(fork.labelled), n_unlabelled=len(parts.train) - len(fork.labelled)))
    return forks


def _pick(config: ExperimentConfig, run: _Run,
          epoch: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """One acquisition event up to its decisions: score and select.

    Returns the picked ids, in id order, their deterministic-pass gate
    values and the row means of their posterior samples.
    """
    seed, net, features = run.log.seed, run.net, run.data.features
    train = run.data.parts.train
    candidates = train[run.assigned[train] < 0]
    al = config.active_learning
    # Strategy draws consume the decision stream in instance-id order; the
    # candidates keep the sorted train ids' order, so sorted positions give
    # sorted ids.
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
