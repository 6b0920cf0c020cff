import math
import re

import numpy as np
import pytest

import soqal.engine
from soqal.config import ExperimentConfig
from soqal.data import split
from soqal.engine import (
    AcquisitionRecord,
    ResultLog,
    ask_rate,
    run_experiment,
)
from soqal.errors import ConfigError
from soqal.oracle import pca_project
from soqal.strategy import decide


def tiny_config(strategy_name="full-oracle", epochs=20, **overrides):
    cfg = ExperimentConfig()
    cfg = cfg._replace(
        dataset=cfg.dataset._replace(n=120, separation=2.5),
        training=cfg.training._replace(epochs=epochs),
        strategy=cfg.strategy._replace(name=strategy_name),
    )
    for section, fields in overrides.items():
        cfg = cfg._replace(**{section: getattr(cfg, section)._replace(**fields)})
    return cfg


def logs_equal(a, b):
    """Field-wise equality that treats nan as equal to nan."""
    if len(a.epochs) != len(b.epochs) or a.acquisitions != b.acquisitions:
        return False
    for rec_a, rec_b in zip(a.epochs, b.epochs):
        for fa, fb in zip(tuple(rec_a), tuple(rec_b)):
            both_nan = (
                isinstance(fa, float) and isinstance(fb, float)
                and math.isnan(fa) and math.isnan(fb)
            )
            if not both_nan and fa != fb:
                return False
    if math.isnan(a.test_auc) and math.isnan(b.test_auc):
        return True
    return a.test_auc == b.test_auc


def fabricated_log(n_oracle, n_self):
    log = ResultLog(seed=0)
    for i in range(n_oracle + n_self):
        log.acquisitions.append(
            AcquisitionRecord(
                epoch=5,
                instance_id=i,
                source="oracle" if i < n_oracle else "self",
                assigned_label=0,
                true_label=0,
            )
        )
    return log


class TestAskRate:
    def test_direct_ratio(self):
        assert ask_rate(fabricated_log(7, 3)) == 0.7

    def test_extremes(self):
        assert ask_rate(fabricated_log(5, 0)) == 1.0
        assert ask_rate(fabricated_log(0, 5)) == 0.0

    def test_zero_acquisitions_is_nan(self):
        assert np.isnan(ask_rate(ResultLog(seed=0)))


class TestRunExperiment:
    def test_full_oracle_noise_free_labels_are_true(self):
        log = run_experiment(tiny_config("full-oracle"), seed=0)
        assert log.acquisitions
        for record in log.acquisitions:
            assert record.source == "oracle"
            assert record.assigned_label == record.true_label
        assert ask_rate(log) == 1.0

    def test_no_oracle_never_asks(self):
        log = run_experiment(tiny_config("no-oracle"), seed=0)
        assert log.acquisitions
        assert all(r.source == "self" for r in log.acquisitions)
        assert ask_rate(log) == 0.0

    def test_acquisition_epochs_are_period_multiples(self, monkeypatch):
        indices = []  # the event index each `decide` call receives

        def recording_decide(strategy, acquisition_index, *rest):
            indices.append(acquisition_index)
            return decide(strategy, acquisition_index, *rest)

        monkeypatch.setattr(soqal.engine, "decide", recording_decide)
        log = run_experiment(tiny_config("full-oracle", epochs=20), seed=1)
        assert sorted({r.epoch for r in log.acquisitions}) == [5, 10, 15, 20]
        assert indices == [0, 1, 2, 3]

    def test_rerun_bit_identical(self):
        cfg = tiny_config("epsilon-greedy", epochs=15)
        a = run_experiment(cfg, seed=2)
        b = run_experiment(cfg, seed=2)
        assert logs_equal(a, b)

    def test_different_seeds_differ(self):
        cfg = tiny_config("full-oracle", epochs=10)
        a = run_experiment(cfg, seed=3)
        b = run_experiment(cfg, seed=4)
        assert [r.train_loss for r in a.epochs] != [r.train_loss for r in b.epochs]

    def test_pool_conservation_and_monotone_growth(self):
        log = run_experiment(tiny_config("soqal"), seed=5)
        totals = {r.n_labelled + r.n_unlabelled for r in log.epochs}
        assert len(totals) == 1  # constant pool size: the train split
        assert totals.pop() == 72  # 60% of 120
        sizes = [r.n_labelled for r in log.epochs]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_acquired_ids_come_from_unlabelled_train_pool(self):
        log = run_experiment(tiny_config("full-oracle"), seed=6)
        ids = [r.instance_id for r in log.acquisitions]
        assert len(ids) == len(set(ids))  # nothing acquired twice
        first = log.epochs[0]
        last = log.epochs[-1]
        assert last.n_labelled == first.n_labelled + len(ids)

    def test_soqal_threshold_one_matches_full_oracle(self):
        base = tiny_config("full-oracle", epochs=20)
        full = run_experiment(base, seed=7)
        soq = run_experiment(
            base._replace(
                strategy=base.strategy._replace(name="soqal", hellinger_threshold=1.0),
            ),
            seed=7,
        )
        assert logs_equal(full, soq)

    def test_no_al_mode_runs_without_acquisitions(self):
        cfg = tiny_config("full-oracle", epochs=12,
                          active_learning={"b_frac": 0.0})
        log = run_experiment(cfg, seed=8)
        assert not log.acquisitions
        assert len(log.epochs) == 12
        assert all(r.cum_ask_rate == 0.0 for r in log.epochs)
        assert np.isnan(ask_rate(log))

    def test_pool_exhaustion_ends_run_early(self):
        cfg = tiny_config(
            "full-oracle",
            epochs=50,
            active_learning={"b_frac": 1.0, "period": 1, "init_labelled_frac": 0.5},
        )
        log = run_experiment(cfg, seed=9)
        assert log.epochs[-1].n_unlabelled == 0
        assert len(log.epochs) < 50

    def test_self_labels_feed_training_not_truth(self):
        log = run_experiment(tiny_config("no-oracle", epochs=30), seed=10)
        wrong = [r for r in log.acquisitions if r.assigned_label != r.true_label]
        assert wrong, "expected at least one incorrect self-label in this setup"

    def test_epsilon_greedy_first_event_asks_everything(self):
        cfg = tiny_config("epsilon-greedy", epochs=5,
                          strategy={"epsilon0": 1.0, "epsilon_decay": 0.001})
        log = run_experiment(cfg, seed=11)
        first = [r for r in log.acquisitions if r.epoch == cfg.active_learning.period]
        assert first and all(r.source == "oracle" for r in first)

    def test_noisy_oracle_flips_recorded_labels(self):
        cfg = tiny_config("full-oracle", epochs=30,
                          oracle={"kind": "random-flip", "gamma": 1.0})
        log = run_experiment(cfg, seed=12)
        assert all(r.assigned_label != r.true_label for r in log.acquisitions)

    def test_nn_flip_oracle_runs(self):
        cfg = tiny_config("full-oracle", epochs=10,
                          dataset={"classes": 3, "features": 3, "separation": 1.0},
                          active_learning={"b_frac": 0.2, "period": 2},
                          oracle={"kind": "nn-flip", "gamma": 1.0})
        log = run_experiment(cfg, seed=13)
        assert log.acquisitions
        assert all(r.assigned_label != r.true_label for r in log.acquisitions)

        # Rebuild the run's data and split, then search the projection of
        # the raw train features by brute force.
        synth_ss, split_ss = np.random.SeedSequence(13).spawn(5)[:2]
        dataset = soqal.engine._build_dataset(cfg, synth_ss)
        d = cfg.dataset
        parts = split(dataset, (d.train_frac, d.val_frac, d.test_frac), split_ss,
                      init_labelled_frac=cfg.active_learning.init_labelled_frac)
        projected = pca_project(dataset.features[parts.train], 2)
        labels = dataset.labels[parts.train]
        for r in log.acquisitions:
            row = int(np.flatnonzero(parts.train == r.instance_id)[0])
            best, best_dist = None, np.inf
            for j in range(len(labels)):
                dist = float(np.sum((projected[row] - projected[j]) ** 2))
                if labels[j] != labels[row] and dist < best_dist:
                    best, best_dist = j, dist
            assert r.assigned_label == labels[best]

    def test_random_and_entropy_acquisition_run(self):
        for name in ("random", "entropy"):
            cfg = tiny_config("soqal", epochs=10,
                              active_learning={"acquisition": name})
            log = run_experiment(cfg, seed=14)
            assert log.acquisitions

    def test_epoch_records_have_finite_core_metrics(self):
        log = run_experiment(tiny_config("soqal"), seed=15)
        for r in log.epochs:
            assert np.isfinite(r.train_loss)
            assert np.isfinite(r.val_auc)
            assert 0.0 <= r.d_hellinger <= 1.0
            assert 0.0 <= r.cum_ask_rate <= 1.0
        assert np.isfinite(log.test_auc)

    def test_chernoff_columns_track_gate_validity(self):
        log = run_experiment(tiny_config("soqal"), seed=16)
        valid_rows = [r for r in log.epochs if not np.isnan(r.chernoff_bound)]
        assert valid_rows, "gate never became valid in this run"
        for r in valid_rows:
            assert 0.0 < r.chernoff_bound <= 1.0
            assert 0.0 <= r.beta_star <= 1.0

    def test_gate_detached_variant_runs(self):
        cfg = tiny_config("soqal", epochs=8, network={"gate_detached": True})
        log = run_experiment(cfg, seed=17)
        assert len(log.epochs) == 8

    def test_stratified_flag_reports_fallback(self, tmp_path):
        rng = np.random.default_rng(18)
        lines = ["x1,x2,label"]
        for i in range(40):
            # class b has a single instance: cannot stratify over 3 splits
            label = "b" if i == 0 else "a" if i % 2 else "c"
            lines.append(f"{rng.normal():.4f},{rng.normal():.4f},{label}")
        path = tmp_path / "skewed.csv"
        path.write_text("\n".join(lines) + "\n")
        cfg = tiny_config("no-oracle", epochs=3)
        cfg = cfg._replace(dataset=cfg.dataset._replace(source="csv",
                                                        csv_path=str(path)))
        log = run_experiment(cfg, seed=18)
        assert log.stratified_split is False

        balanced = run_experiment(tiny_config("no-oracle", epochs=3), seed=18)
        assert balanced.stratified_split is True

    def test_csv_with_empty_train_part_rejected_before_standardizing(self, tmp_path):
        # 20 rows: 0.2, 10.0 and 9.8 round to 0, 10 and 10 rows, so no train
        # row; standardizing over none would warn on an empty mean.
        path = tmp_path / "small.csv"
        path.write_text("x1,label\n" + "".join(f"{i}.5,{'ab'[i % 2]}\n" for i in range(20)))
        cfg = tiny_config(dataset={"source": "csv", "csv_path": str(path), "train_frac": 0.01,
                                   "val_frac": 0.5, "test_frac": 0.49})
        with pytest.raises(ConfigError, match="initial labelled pool is empty"):
            run_experiment(cfg, seed=20)

    @pytest.mark.parametrize(
        "overrides,key",
        [
            ({"oracle": {"kind": "random-flip", "gamma": 1.5}}, "oracle.gamma"),
            ({"network": {"dropout": 1.0}}, "network.dropout"),
            ({"network": {"hidden": ()}}, "network.hidden"),
            ({"dataset": {"classes": 1}}, "dataset.classes"),
            ({"dataset": {"n": 19}}, "dataset.n"),
            ({"dataset": {"kind": "ring-vs-blob", "classes": 3}}, "dataset.classes"),
            ({"dataset": {"features": 0}}, "dataset.features"),
            ({"dataset": {"test_frac": 0.0}}, "dataset.test_frac"),
            ({"dataset": {"train_frac": 0.5}}, "dataset.train_frac/val_frac/test_frac"),
            ({"active_learning": {"init_labelled_frac": 0.0}},
             "active_learning.init_labelled_frac"),
            ({"strategy": {"epsilon0": 1.5}}, "strategy.epsilon0"),
            ({"strategy": {"epsilon_decay": 0.0}}, "strategy.epsilon.d"),
            ({"strategy": {"hellinger_threshold": 1.5}}, "strategy.S"),
            ({"active_learning": {"mc_passes": 0}}, "active_learning.T"),
            ({"active_learning": {"b_frac": 1.5}}, "active_learning.b"),
            ({"oracle": {"embed_dims": 0}}, "oracle.embed_dims"),
        ],
    )
    def test_out_of_range_config_rejected_before_running(self, overrides, key):
        cfg = tiny_config(**overrides)
        with pytest.raises(ConfigError, match=f"invalid value for key: {re.escape(key)}$"):
            run_experiment(cfg, seed=19)


def isolation_config(strategy_name, **overrides):
    """n = 200, 15 epochs, b = 0.1, period 3: five events, 45 acquisitions."""
    cfg = tiny_config(strategy_name, epochs=15, **overrides)
    return cfg._replace(
        dataset=cfg.dataset._replace(n=200),
        active_learning=cfg.active_learning._replace(b_frac=0.1, period=3),
    )


# Each group's configs draw the same streams, so their runs must agree.
ISOLATION_GROUPS = {
    "oracle-noise-at-zero": [
        isolation_config("full-oracle"),
        isolation_config("full-oracle", oracle={"kind": "random-flip", "gamma": 0.0}),
        isolation_config("full-oracle", oracle={"kind": "nn-flip", "gamma": 0.0}),
    ],
    "epsilon-always-asks": [
        isolation_config("epsilon-greedy", strategy={"epsilon0": 1.0, "epsilon_decay": 1.0}),
        isolation_config("full-oracle"),
    ],
    "epsilon-never-asks": [
        isolation_config("epsilon-greedy", strategy={"epsilon0": 0.0}),
        isolation_config("no-oracle"),
    ],
}


class TestStreamIsolation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("group", sorted(ISOLATION_GROUPS))
    def test_configs_drawing_the_same_streams_give_the_same_run(self, group, seed):
        first, *others = [run_experiment(cfg, seed) for cfg in ISOLATION_GROUPS[group]]
        assert len(first.acquisitions) == 45
        for log in others:
            assert logs_equal(first, log)
