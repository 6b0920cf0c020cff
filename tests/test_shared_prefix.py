"""Seed-runs whose configs differ only in `strategy` share every epoch up to
the event where their decisions first differ: a grid computes such epochs
once per seed and forks its state where the decisions split, and each run
writes the bytes it writes alone."""

import hashlib

import numpy as np
import pytest

import soqal.acquisition
import soqal.cli
import soqal.engine
import soqal.oracle
from soqal.cli import main
from soqal.config import ExperimentConfig, apply_setting, load_config, value_separator
from soqal.engine import prefix_key, run_experiment, shared_runs
from soqal.results import write_result_csv
from soqal.strategy import STRATEGY_NAMES

# epochs 8 with the default period 5: one shared event at epoch 5.
TINY_CONFIG = """
dataset.kind = gaussian-blobs
dataset.n = 120
dataset.separation = 2.5
training.epochs = 8
seeds = 0,1
"""
EPOCHS, PERIOD = 8, 5


def grid_config(tmp_path, settings=""):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG + settings)
    return str(path)


def strategy_args(names):
    return [arg for name in names for arg in ("--strategy", name)]


def alone_bytes(config, seed, path):
    """The result file of (config, seed) run outside any `shared_runs` scope."""
    write_result_csv(run_experiment(config, seed), config, str(path))
    return path.read_bytes()


def counting(monkeypatch, module, name):
    """Wrap `module.name` to count its calls; returns the count list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestSharedPrefixEquality:
    @pytest.mark.parametrize(
        "settings, strategies, jobs",
        [
            ("", STRATEGY_NAMES, "1"),
            ("oracle.kind = random-flip\noracle.gamma = 0.4\n"
             "active_learning.acquisition = entropy\n", STRATEGY_NAMES, "2"),
            ("oracle.kind = nn-flip\noracle.gamma = 0.5\n"
             "active_learning.acquisition = random\n", STRATEGY_NAMES, "1"),
            ("training.epochs = 3\n", ("soqal", "epsilon-greedy", "full-oracle"), "1"),
            ("active_learning.b = 0.0\n", ("soqal", "epsilon-greedy", "full-oracle"), "1"),
            ("active_learning.b = 1.0\n", ("soqal", "epsilon-greedy", "no-oracle"), "1"),
        ],
        ids=["noise-free-bald", "random-flip-entropy-jobs2", "nn-flip-random",
             "epochs-below-period", "b-zero", "b-one"],
    )
    def test_grid_writes_the_bytes_of_each_run_alone(self, tmp_path, settings, strategies, jobs):
        cfg = grid_config(tmp_path, settings)
        grid = tmp_path / "grid"
        assert main(["run", "--config", cfg, *strategy_args(strategies), "--jobs", jobs,
                     "--out", str(grid)]) == 0
        for name in strategies:
            config = apply_setting(load_config(cfg), "strategy.name", name)
            for seed in config.seeds:
                written = (grid / name / f"results_{seed}.csv").read_bytes()
                assert written == alone_bytes(config, seed, tmp_path / f"{name}_{seed}.csv")

    def test_strategy_sweep_writes_the_bytes_of_each_run_alone(self, tmp_path, monkeypatch):
        """A sweep over a strategy setting shares epochs too; here every run
        of a group draws from its own decision stream."""
        cfg = grid_config(tmp_path, "strategy.name = epsilon-greedy\n")
        trained = counting(monkeypatch, soqal.engine, "train_epoch")
        assert main(["sweep", "--config", cfg, "--param", "strategy.epsilon0",
                     "--values", "0.3,0.6,0.9", "--out", str(tmp_path / "sweep")]) == 0
        # The event's two picks split each seed's three runs into two
        # branches: seed 0 asks for both picks at 0.6 and 0.9 and for neither
        # at 0.3; seed 1 asks for both at 0.9 and for the first at 0.3 and 0.6.
        assert len(trained) == 2 * PERIOD + 2 * 2 * (EPOCHS - PERIOD)
        for value in ("0.3", "0.6", "0.9"):
            config = apply_setting(load_config(cfg), "strategy.epsilon0", value)
            for seed in config.seeds:
                written = (tmp_path / "sweep" / f"sweep_strategy.epsilon0_{value}"
                           / f"results_{seed}.csv").read_bytes()
                assert written == alone_bytes(config, seed, tmp_path / f"{value}_{seed}.csv")

    def test_runs_whose_decisions_never_differ_train_once(self, tmp_path, monkeypatch):
        """At S = 1.0 the gate is never trusted, so soqal asks on every pick,
        as full-oracle does: the two runs of a seed are one branch to the end."""
        cfg = grid_config(tmp_path, "training.epochs = 16\n")
        trained = counting(monkeypatch, soqal.engine, "train_epoch")
        forks = counting(monkeypatch, soqal.engine, "_fork")
        strategies = ("full-oracle", "soqal")
        assert main(["run", "--config", cfg, *strategy_args(strategies), "--set", "strategy.S=1.0",
                     "--out", str(tmp_path / "grid")]) == 0
        assert len(trained) == 2 * 16  # one run's epochs per seed
        assert forks == []
        for name in strategies:
            config = apply_setting(apply_setting(load_config(cfg), "strategy.name", name),
                                   "strategy.S", "1.0")
            for seed in config.seeds:
                log = run_experiment(config, seed)
                assert len(log.acquisitions) > 0
                assert all(a.source == "oracle" for a in log.acquisitions)
                written = (tmp_path / "grid" / name / f"results_{seed}.csv").read_bytes()
                assert written == alone_bytes(config, seed, tmp_path / f"{name}_{seed}.csv")

    def test_each_run_keeps_its_own_decision_stream(self, tmp_path, monkeypatch):
        """epsilon-greedy at epsilon0 = 1 asks on every pick of event 0, as
        full-oracle does, but draws one uniform per pick, which full-oracle
        never does; two such runs draw the same uniforms from their own
        streams.  All three share event 0 and split at event 1 as their
        streams and decays say."""
        base = load_config(grid_config(tmp_path, "training.epochs = 12\n"
                                                 "active_learning.b = 0.5\n"))
        variants = [("strategy.name=full-oracle",),
                    ("strategy.name=epsilon-greedy", "strategy.epsilon.d=0.5"),
                    ("strategy.name=epsilon-greedy", "strategy.epsilon.d=0.3")]
        configs = []
        for settings in variants:
            config = base
            for setting in settings:
                config = apply_setting(config, *setting.split("="))
            configs.append(config)
        trained = counting(monkeypatch, soqal.engine, "train_epoch")
        forks = counting(monkeypatch, soqal.engine, "_fork")
        grouped = {}
        for seed in base.seeds:
            runs = [(config, seed) for config in configs]
            with shared_runs(runs):
                for i, (config, _) in enumerate(runs):
                    grouped[i, seed] = alone_bytes(config, seed, tmp_path / f"g{i}_{seed}.csv")
        # Events at epochs 5 and 10.  Seed 0: the two decays decide alike at
        # event 1, so two branches; seed 1: three.
        assert len(trained) == (10 + 2 * 2) + (10 + 3 * 2)
        assert len(forks) == 1 + 2
        monkeypatch.undo()
        for i, config in enumerate(configs):
            for seed in base.seeds:
                assert grouped[i, seed] == alone_bytes(config, seed, tmp_path / f"a{i}_{seed}.csv")
        # An epsilon-greedy run asks on every pick of event 0, then where its
        # own stream's next uniforms fall below epsilon0 * d.
        for config in configs[1:]:
            for seed in base.seeds:
                acquired = run_experiment(config, seed).acquisitions
                n0 = sum(a.epoch == PERIOD for a in acquired)
                stream = np.random.default_rng(np.random.SeedSequence(seed).spawn(5)[3])
                draws = stream.random(len(acquired))
                assert [a.source == "oracle" for a in acquired] == [True] * n0 + list(
                    draws[n0:] < config.strategy.epsilon_decay)

    @pytest.mark.parametrize("acquisition", ["bald-mcd", "random"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_run_of_a_group_forwards_the_ids_it_forwards_alone(
        self, tmp_path, monkeypatch, acquisition, seed
    ):
        """A branch's MC pass forwards the sorted ids that each of its
        members forwards alone, so no row of its calls depends on which other
        runs share the group."""
        cfg = grid_config(tmp_path, "oracle.kind = nn-flip\noracle.gamma = 0.3\n"
                                    "training.epochs = 16\n"
                                    f"active_learning.acquisition = {acquisition}\n")
        base = load_config(cfg)
        configs = [apply_setting(base, "strategy.name", name) for name in STRATEGY_NAMES]
        forwarded = []
        original = soqal.engine._pick

        def recording(config, run, ids, store):
            forwarded.extend((index, store.key[1], ids.tolist()) for index, _, _ in run.members)
            return original(config, run, ids, store)

        monkeypatch.setattr(soqal.engine, "_pick", recording)
        forks = counting(monkeypatch, soqal.engine, "_fork")
        soqal.engine._run_branches([(config, seed) for config in configs])
        assert forks  # the group splits into several branches
        grouped = list(forwarded)
        for i, config in enumerate(configs):
            forwarded.clear()
            soqal.engine._run_branches([(config, seed)])
            alone = [(epoch, ids) for _, epoch, ids in forwarded]
            assert [epoch for epoch, _ in alone] == [5, 10, 15]
            assert [(epoch, ids) for index, epoch, ids in grouped if index == i] == alone

    def test_b_one_empties_the_pool_at_the_shared_event(self, tmp_path):
        config = apply_setting(load_config(grid_config(tmp_path, "active_learning.b = 1.0\n")),
                               "strategy.name", "epsilon-greedy")
        log = run_experiment(config, 0)
        assert [rec.epoch for rec in log.epochs] == [1, 2, 3, 4, 5]
        assert log.epochs[-1].n_unlabelled == 0


class TestSharedPrefixIsolation:
    @pytest.mark.parametrize("param, values", [
        ("oracle.gamma", "0.1,0.3"),
        ("gate.chernoff_mode", "full-bound,exponent-only"),
        ("network.dropout", "0.3,0.2"),
        ("training.learning_rate", "0.0,-0.0"),
        ("seeds", "0;1"),
    ], ids=["gamma", "chernoff-mode", "dropout", "signed-zero-rate", "seed"])
    def test_configs_differing_outside_strategy_share_nothing(
        self, tmp_path, monkeypatch, param, values
    ):
        cfg = grid_config(tmp_path, "oracle.kind = random-flip\nseeds = 0\n")
        runs = []
        for value in values.split(value_separator(param)):
            config = apply_setting(load_config(cfg), param, value)
            runs.append((config, config.seeds[0]))
        assert prefix_key(*runs[0]) != prefix_key(*runs[1])
        with pytest.raises(ValueError, match="one prefix_key"):
            with shared_runs(runs):
                pass
        trained = counting(monkeypatch, soqal.engine, "train_epoch")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", param, "--values", values,
                     "--out", str(out)]) == 0
        assert len(trained) == 2 * EPOCHS  # each run trains every epoch itself
        for value, (config, seed) in zip(values.split(value_separator(param)), runs):
            written = (out / f"sweep_{param}_{value}" / f"results_{seed}.csv").read_bytes()
            assert written == alone_bytes(config, seed, tmp_path / f"{value}.csv")

    def test_prefix_key_ignores_only_strategy_settings(self):
        config = ExperimentConfig()
        varied = config._replace(strategy=config.strategy._replace(name="no-oracle",
                                                                   hellinger_threshold=0.9,
                                                                   epsilon0=0.5))
        assert prefix_key(config, 3) == prefix_key(varied, 3)
        assert prefix_key(config, 3) == prefix_key(config._replace(output_dir="elsewhere"), 3)
        assert prefix_key(config, 3) != prefix_key(config, 4)

    def test_counts_of_a_three_strategy_two_seed_grid(self, tmp_path, monkeypatch):
        cfg = grid_config(tmp_path, "oracle.kind = nn-flip\noracle.gamma = 0.3\n")
        trained = counting(monkeypatch, soqal.engine, "train_epoch")
        tables = counting(monkeypatch, soqal.oracle, "build_neighbor_table")
        forks = counting(monkeypatch, soqal.engine, "_fork")
        strategies = ("soqal", "entropy-response", "epsilon-greedy")
        assert main(["run", "--config", cfg, *strategy_args(strategies),
                     "--out", str(tmp_path / "grid")]) == 0
        # Per seed: soqal self-labels both picks of the one event, the other
        # two ask for both, so two branches train the last three epochs.
        assert len(trained) == 2 * PERIOD + 2 * 2 * (EPOCHS - PERIOD)
        assert len(tables) == 2
        assert len(forks) == 2  # per seed, one for the second branch

    def test_a_grid_seeds_each_mask_stream_once_per_group(self, tmp_path, monkeypatch):
        """After the split at epoch 5 two branches forward nearly the same
        candidates at epochs 10 and 15; each (seed, epoch, id) mask stream
        is seeded, and so drawn, once for both."""
        cfg = grid_config(tmp_path, "oracle.kind = nn-flip\noracle.gamma = 0.3\n"
                                    "training.epochs = 16\n")
        seeded = []
        original = soqal.acquisition.stream_keys

        def recording(seed, epoch, ids):
            seeded.extend((seed, epoch, int(i)) for i in ids)
            return original(seed, epoch, ids)

        monkeypatch.setattr(soqal.acquisition, "stream_keys", recording)
        forks = counting(monkeypatch, soqal.engine, "_fork")
        strategies = ("soqal", "entropy-response", "epsilon-greedy")
        assert main(["run", "--config", cfg, *strategy_args(strategies),
                     "--out", str(tmp_path / "grid")]) == 0
        assert len(forks) >= 2  # each seed's later events have several branches
        assert {(seed, epoch) for seed, epoch, _ in seeded} == {
            (seed, epoch) for seed in (0, 1) for epoch in (5, 10, 15)}
        assert len(seeded) == len(set(seeded))

    def test_one_strategy_grid_forks_nothing(self, tmp_path, monkeypatch):
        trained = counting(monkeypatch, soqal.engine, "train_epoch")
        forks = counting(monkeypatch, soqal.engine, "_fork")
        assert main(["run", "--config", grid_config(tmp_path),
                     "--out", str(tmp_path / "one")]) == 0
        assert forks == []
        assert len(trained) == 2 * EPOCHS

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_run_experiment_gets_config_and_seed_once_per_seed_run(
        self, tmp_path, monkeypatch, jobs
    ):
        """The CLI calls `run_experiment(config, seed)` once per seed-run and
        gets back that run's whole log, in the pool's workers too."""
        record = tmp_path / "calls.txt"
        real = soqal.cli.run_experiment

        def probed(*args, **kwargs):
            log = real(*args, **kwargs)
            with open(record, "a") as fh:
                digest = hashlib.sha256(repr(log).encode()).hexdigest()
                print(len(args), sorted(kwargs), args[0].strategy.name, args[1], digest, file=fh)
            return log

        monkeypatch.setattr(soqal.cli, "run_experiment", probed)
        cfg = grid_config(tmp_path, "oracle.kind = random-flip\noracle.gamma = 0.3\n")
        strategies = ("soqal", "epsilon-greedy", "entropy-response")
        assert main(["run", "--config", cfg, *strategy_args(strategies), "--jobs", jobs,
                     "--out", str(tmp_path / "grid")]) == 0
        expected = []
        for name in strategies:
            config = apply_setting(load_config(cfg), "strategy.name", name)
            for seed in config.seeds:
                digest = hashlib.sha256(repr(real(config, seed)).encode()).hexdigest()
                expected.append(f"2 [] {name} {seed} {digest}")
        assert sorted(record.read_text().splitlines()) == sorted(expected)
