"""Property tests for the core math and for whole runs, with a fixed
example sequence (`derandomize=True`) so the suite stays deterministic."""

import csv
import math
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate
from scipy.stats import norm, rankdata

from math_oracles import concordance_auc, is_fraction_count
from soqal.acquisition import bald_mcd, predictive_entropy, select_top_b
from soqal.cli import _run_group, main
from soqal.config import (
    _KNOWN_KEYS,
    ACQUISITION_NAMES,
    TEXT_FORMS,
    ExperimentConfig,
    StrategyConfig,
    apply_setting,
    canonical_lines,
    config_hash,
    parse,
    parse_config_text,
    spell,
)
from soqal.data import SYNTHETIC_KINDS, _largest_remainder, split
from soqal.engine import (
    AcquisitionRecord,
    EpochRecord,
    ResultLog,
    _build_dataset,
    ask_rate,
    run_experiment,
)
from soqal.errors import ConfigError
from soqal.gate import GateStats, chernoff_bound, hellinger
from soqal.metrics import _midranks, auc_binary, sorted_unique
from soqal.network import compute_beta
from soqal.oracle import ORACLE_KINDS, NeighborTable
from soqal.results import read_result_csv, write_result_csv
from soqal.strategy import STRATEGY_NAMES

PROPERTY = settings(derandomize=True, deadline=None)

means = st.floats(-5.0, 5.0)
variances = st.floats(1e-4, 1.0)
priors = st.floats(0.05, 0.95)


def bayes_error_by_quadrature(stats: GateStats) -> float:
    """Integral of min(prior0 * f0, prior1 * f1): the error of the best rule."""
    s0, s1 = math.sqrt(stats.var0), math.sqrt(stats.var1)

    def integrand(x):
        return min(
            stats.prior0 * norm.pdf(x, stats.mu0, s0),
            stats.prior1 * norm.pdf(x, stats.mu1, s1),
        )

    lo = min(stats.mu0 - 40 * s0, stats.mu1 - 40 * s1)
    hi = max(stats.mu0 + 40 * s0, stats.mu1 + 40 * s1)
    error, _ = integrate.quad(
        integrand, lo, hi, points=[stats.mu0, stats.mu1], limit=200, epsabs=1e-12
    )
    return error


@PROPERTY
@given(means, variances, means, variances)
def test_hellinger_in_unit_interval_and_symmetric(mu0, var0, mu1, var1):
    distance = hellinger(mu0, var0, mu1, var1)
    assert 0.0 <= distance <= 1.0
    assert distance == hellinger(mu1, var1, mu0, var0)


@PROPERTY
@given(means, variances, means, variances, priors)
def test_chernoff_bound_dominates_quadrature_bayes_error(mu0, var0, mu1, var1, prior0):
    d_h = hellinger(mu0, var0, mu1, var1)
    stats = GateStats(mu0, var0, mu1, var1, prior0, 1.0 - prior0, d_h, True)
    assert chernoff_bound(stats).bound >= bayes_error_by_quadrature(stats) - 1e-9


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 7), st.booleans()), min_size=2, max_size=60))
def test_auc_binary_equals_concordance_count(pairs):
    scores = np.array([s / 7.0 for s, _ in pairs])  # a coarse grid forces ties
    positives = np.array([p for _, p in pairs])
    positives[0], positives[1] = True, False
    expected = concordance_auc(scores, positives)
    assert math.isclose(auc_binary(scores, positives), expected, abs_tol=1e-12)


@PROPERTY
@given(arrays(np.int64, st.integers(1, 80), elements=st.integers(0, 6)))
def test_midranks_equal_scipy_average_ranks(values):
    values = values.astype(np.float64)  # few distinct values: many ties
    np.testing.assert_array_equal(_midranks(values), rankdata(values, method="average"))


@PROPERTY
@given(
    st.one_of(
        st.sampled_from([np.int64, np.int32, np.float64]).flatmap(
            lambda dtype: arrays(dtype, st.integers(0, 40), elements=st.integers(-3, 3))
        ),
        arrays(np.float64, st.integers(0, 40), elements=st.floats(-1e3, 1e3)),
    )
)
@example(np.array([], dtype=np.float64))
@example(np.array([], dtype=np.int64))
@example(np.array([-2, -2, -2]))
@example(np.array([5]))
def test_sorted_unique_equals_np_unique(values):
    # The arrays soqal passes it are labels and instance ids; also check
    # empty, one-class, negative and float-typed ones.
    expected = np.unique(values)
    found = sorted_unique(values)
    assert found.dtype == expected.dtype
    np.testing.assert_array_equal(found, expected)


@PROPERTY
@given(
    st.lists(st.integers(0, 4), max_size=80),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_select_top_b_is_ceil_sized_with_stable_ties(levels, b_frac):
    scores = [level / 4.0 for level in levels]
    picked = select_top_b(scores, b_frac)
    assert is_fraction_count(len(picked), b_frac, len(scores))
    by_rank = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    assert picked == sorted(by_rank[: len(picked)])


@PROPERTY
@given(
    st.integers(0, 100_000),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(lambda w: sum(w) > 0),
)
def test_largest_remainder_conserves_total(total, weights):
    fractions = [w / sum(weights) for w in weights]
    counts = _largest_remainder(total, fractions)
    assert sum(counts) == total
    assert all(abs(c - total * f) < 1.0 for c, f in zip(counts, fractions))


@PROPERTY
@given(arrays(np.float64, st.integers(1, 300), elements=st.sampled_from([0.0, 1.0])))
@example(np.ones(7))
@example(np.zeros(1))
def test_compute_beta_is_finite_and_nonnegative(errors):
    # loss_terms relies on this: its only beta comes from here, unchecked.
    beta = compute_beta(errors)
    assert math.isfinite(beta) and beta >= 0.0


posterior_stacks = st.tuples(st.integers(1, 12), st.integers(2, 10)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
)


@PROPERTY
@given(posterior_stacks)
def test_bald_nonnegative_and_entropy_within_log_c(raw):
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0  # every row needs some mass
    probs = raw / raw.sum(axis=1, keepdims=True)
    assert bald_mcd(probs) >= 0.0
    assert 0.0 <= predictive_entropy(probs) <= math.log(probs.shape[1]) + 1e-12


neighbor_cases = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        arrays(np.int64, (n, 2), elements=st.integers(-3, 3)),  # exact distances
        arrays(np.int64, n, elements=st.integers(0, 2)),
        st.permutations(range(7, 7 + 3 * n, 3)),  # shuffled, non-contiguous ids
    )
)


@PROPERTY
@given(neighbor_cases)
def test_neighbor_row_is_lowest_row_at_minimum_distance(case):
    coords, labels, ids = case
    labels[0], labels[1] = 0, 1  # at least two classes
    table = NeighborTable(np.array(ids), coords.astype(np.float64), labels)
    for row, instance_id in enumerate(ids):
        dist = ((coords - coords[row]) ** 2).sum(axis=1)
        other = labels != labels[row]
        nearest = dist[other].min()
        expected = min(j for j in range(len(ids)) if other[j] and dist[j] == nearest)
        assert table.neighbor_row(instance_id) == expected


strategy_configs = st.builds(
    StrategyConfig,
    name=st.sampled_from(STRATEGY_NAMES),
    hellinger_threshold=st.floats(0.0, 1.0),
    entropy_threshold=st.floats(0.0, 1.0),
    epsilon0=st.floats(0.0, 1.0),
    epsilon_decay=st.floats(0.1, 1.0),
)


@st.composite
def small_runs(draw):
    """A (config, seed) pair: n <= 200, at most 10 epochs, T <= 5."""
    kind = draw(st.sampled_from(SYNTHETIC_KINDS))
    classes = 2 if kind == "ring-vs-blob" else draw(st.integers(2, 4))
    base = ExperimentConfig()
    config = base._replace(
        dataset=base.dataset._replace(
            kind=kind,
            n=draw(st.integers(60, 200)),
            classes=classes,
            features=draw(st.integers(max(2, classes), 5)),
            separation=draw(st.floats(0.5, 3.0)),
        ),
        network=base.network._replace(hidden=(8,), dropout=draw(st.floats(0.0, 0.6))),
        training=base.training._replace(epochs=draw(st.integers(1, 10))),
        active_learning=base.active_learning._replace(
            mc_passes=draw(st.integers(1, 5)),
            period=draw(st.integers(1, 4)),
            b_frac=draw(st.floats(0.0, 1.0)),
            acquisition=draw(st.sampled_from(ACQUISITION_NAMES)),
        ),
        strategy=draw(strategy_configs),
        oracle=base.oracle._replace(
            kind=draw(st.sampled_from(ORACLE_KINDS)),
            gamma=draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))),
        ),
    )
    return config, draw(st.integers(0, 2**16))


@PROPERTY
@given(small_runs())
def test_run_conserves_the_pool_and_records_provenance(case):
    config, seed = case
    log = run_experiment(config, seed)

    # The run's dataset and split, rebuilt from its own streams.
    synth_ss, split_ss = np.random.SeedSequence(seed).spawn(5)[:2]
    dataset = _build_dataset(config, synth_ss)
    d, al = config.dataset, config.active_learning
    parts = split(dataset, (d.train_frac, d.val_frac, d.test_frac), split_ss,
                  init_labelled_frac=al.init_labelled_frac)
    # The run takes the initial pool as it is: sorted, distinct int64 ids.
    assert parts.init_labelled.dtype == np.int64
    assert np.all(np.diff(parts.init_labelled) > 0)
    train, initial = set(parts.train.tolist()), set(parts.init_labelled.tolist())

    ids = [a.instance_id for a in log.acquisitions]
    assert len(ids) == len(set(ids))
    assert set(ids) <= train - initial

    # Every multiple of the period moves the smallest k ids with
    # k / remaining >= b while the pool is non-empty; the event index counts
    # those events from 0.
    moved = Counter(a.epoch for a in log.acquisitions)
    events, labelled, asked, acquired = [], len(initial), 0, 0
    for row in log.epochs:
        remaining = len(train) - labelled
        if row.epoch % al.period == 0 and al.b_frac > 0.0:
            assert is_fraction_count(moved[row.epoch], al.b_frac, remaining)
            events.append(row.epoch)
        else:
            assert moved[row.epoch] == 0
        labelled += moved[row.epoch]
        asked += sum(a.source == "oracle" for a in log.acquisitions if a.epoch == row.epoch)
        acquired += moved[row.epoch]
        assert (row.n_labelled, row.n_unlabelled) == (labelled, len(train) - labelled)
        assert row.cum_ask_rate == (asked / acquired if acquired else 0.0)
    assert len(log.epochs) == config.training.epochs or log.epochs[-1].n_unlabelled == 0
    assert all(row.n_unlabelled > 0 for row in log.epochs[:-1])
    for a in log.acquisitions:
        assert events.index(a.epoch) == a.epoch // al.period - 1

    oracle, strategy = config.oracle, config.strategy.name
    for a in log.acquisitions:
        assert a.true_label == dataset.labels[a.instance_id]
        assert 0 <= a.assigned_label < dataset.n_classes
        if a.source == "oracle" and (oracle.kind == "noise-free" or oracle.gamma == 0.0):
            assert a.assigned_label == a.true_label
        if a.source == "oracle" and oracle.kind != "noise-free" and oracle.gamma == 1.0:
            assert a.assigned_label != a.true_label  # every answer is a flip
    if strategy == "no-oracle":
        assert all(a.source == "self" for a in log.acquisitions)
    if strategy == "full-oracle":
        assert all(a.source == "oracle" for a in log.acquisitions)


@settings(PROPERTY, max_examples=50)
@given(small_runs(), st.lists(strategy_configs, min_size=2, max_size=4))
def test_runs_sharing_a_prefix_write_the_bytes_they_write_alone(case, strategies):
    """One `_run_grids` group, seed-runs that differ in any strategy setting,
    writes per run the bytes of that run outside any shared-prefix scope."""
    config, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        group = [(config._replace(strategy=strategy), seed, str(Path(tmp, f"grouped{i}.csv")))
                 for i, strategy in enumerate(strategies)]
        _run_group(group)
        for i, (variant, _, path) in enumerate(group):
            alone = str(Path(tmp, f"alone{i}.csv"))
            write_result_csv(run_experiment(variant, seed), variant, alone)
            assert Path(path).read_bytes() == Path(alone).read_bytes()


any_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
counts = st.integers(0, 10**6)


def same_float(a: float, b: float) -> bool:
    """Equal as written values: nan matches nan, and the sign of zero counts."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


epoch_records = st.builds(
    EpochRecord,
    epoch=st.just(0),  # numbered 1, 2, ... by `result_logs`
    train_loss=any_float,
    gate_loss=any_float,
    val_auc=any_float,
    d_hellinger=any_float,
    chernoff_bound=any_float,
    beta_star=any_float,
    cum_ask_rate=any_float,
    n_labelled=counts,
    n_unlabelled=counts,
)
acquisition_records = st.builds(
    AcquisitionRecord,
    epoch=counts,
    instance_id=counts,
    source=st.sampled_from(["oracle", "self"]),
    assigned_label=st.integers(0, 9),
    true_label=st.integers(0, 9),
)
result_logs = st.builds(
    ResultLog,
    seed=st.integers(0, 2**32),
    # A result file's epoch rows run 1, 2, ... without a gap or repeat.
    epochs=st.lists(epoch_records, min_size=1, max_size=6).map(
        lambda recs: [rec._replace(epoch=i) for i, rec in enumerate(recs, start=1)]
    ),
    acquisitions=st.lists(acquisition_records, max_size=6),
    test_auc=any_float,
    stratified_split=st.booleans(),
)


@PROPERTY
@given(result_logs)
def test_result_csv_round_trips_every_field_and_rewrites_the_same_bytes(log):
    config = ExperimentConfig()
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
        write_result_csv(log, config, str(first))
        write_result_csv(log, config, str(second))
        assert first.read_bytes() == second.read_bytes()
        parsed = read_result_csv(str(first))

    assert (parsed.seed, parsed.config_hash) == (log.seed, config_hash(config))
    assert len(parsed.epoch_rows) == len(log.epochs)
    for row, rec in zip(parsed.epoch_rows, log.epochs):
        for name in EpochRecord._fields:
            assert same_float(row[name], getattr(rec, name)), name
    assert same_float(parsed.test_auc, log.test_auc)
    assert same_float(parsed.final_ask_rate, ask_rate(log))


@PROPERTY
@given(result_logs, st.data())
def test_result_csv_with_any_one_line_replaced_is_rejected_naming_a_line(log, data):
    """The reader accepts only the bytes the writer writes for the values it
    parsed.  A replacement holds no ASCII digit, so it is never another
    valid row (every row starts with its seed); the one other valid comment
    is the opposite `stratified_split` flag."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "results_0.csv")
        write_result_csv(log, ExperimentConfig(), str(path))
        lines = path.read_text().splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1), label="line index")
        text = st.text(st.characters(codec="utf-8", exclude_characters="\n0123456789"))
        new = data.draw(text.filter(lambda s: s + "\n" != lines[i]), label="replacement")
        assume(new not in ("# stratified_split = true", "# stratified_split = false"))
        lines[i] = new + "\n"
        path.write_bytes("".join(lines).encode("utf-8"))
        with pytest.raises(ConfigError) as exc:
            read_result_csv(str(path))
    assert str(exc.value).startswith(f"{path} line ")


# A value of each field annotation.  Strings are single-line and unpadded:
# all that a `key = value` line can carry.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
typed_values = {
    "int": st.integers(),
    "float": st.one_of(any_float, st.sampled_from([5e-324, -1e-310])),
    "str": st.text(st.characters(codec="utf-8", exclude_characters=LINE_BREAKS)).map(str.strip),
    "bool": st.booleans(),
    "tuple[int, ...]": st.lists(st.integers(), max_size=4).map(tuple),
}


def with_values(values: dict) -> ExperimentConfig:
    """The default config with each key of `values` set to its typed value."""
    config = ExperimentConfig()
    for key, value in values.items():
        section, attr, _ = _KNOWN_KEYS[key]
        if section is None:
            config = config._replace(**{attr: value})
        else:
            config = config._replace(**{section: getattr(config, section)._replace(**{attr: value})})
    return config


@PROPERTY
@given(st.fixed_dictionaries(
    {key: typed_values[annotation] for key, (_, _, annotation) in _KNOWN_KEYS.items()}
))
def test_every_config_survives_its_own_cfg_lines(values):
    config = with_values(values)
    lines = canonical_lines(config)
    again = parse_config_text("\n".join(lines))
    assert canonical_lines(again) == lines
    assert config_hash(again) == config_hash(config)
    floats = [v for key, v in values.items() if _KNOWN_KEYS[key][2] == "float"]
    if not any(math.isnan(v) for v in floats):
        assert again == config._replace(output_dir=again.output_dir)
    log = ResultLog(seed=0, epochs=[EpochRecord(1, *[0.5] * 7, 1, 1)])
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp, "results_0.csv"))
        write_result_csv(log, config, path)
        assert read_result_csv(path).config_hash == config_hash(config)


@PROPERTY
@given(st.sampled_from(sorted(TEXT_FORMS)).flatmap(
    lambda annotation: st.tuples(st.just(annotation), typed_values[annotation])
))
@example(("float", math.nan))
@example(("float", -math.inf))
@example(("float", -0.0))
@example(("float", 5e-324))
@example(("tuple[int, ...]", ()))
def test_each_text_form_parses_back_to_the_text_it_spells(case):
    assert set(typed_values) == set(TEXT_FORMS)
    annotation, value = case
    text = spell(annotation, value)
    assert spell(annotation, parse(annotation, text)) == text


# Settings in which the result files of one report directory may differ.
REPORT_KEYS = ("strategy.name", "dataset.kind", "strategy.S", "seeds")
report_variants = st.tuples(
    st.sampled_from(["soqal", "full-oracle"]),
    st.sampled_from(SYNTHETIC_KINDS[:2]),
    st.sampled_from(["0.15", "0.4"]),
    st.sampled_from(["0", "0,1", "1,2"]),
).map(lambda values: dict(zip(REPORT_KEYS, values)))
# A run's AUCs lie in [0, 1] or are undefined.
run_logs = st.builds(
    lambda log, auc: replace(log, test_auc=auc,
                             epochs=[rec._replace(val_auc=auc) for rec in log.epochs]),
    result_logs, st.one_of(st.floats(0.0, 1.0), st.just(math.nan)),
)


@PROPERTY
@given(st.lists(report_variants, min_size=1, max_size=4, unique_by=str), st.data())
def test_report_writes_one_summary_row_per_config_hash(variants, data):
    """`report` groups files by config hash alone and names in its own
    columns every setting other than the strategy that differs."""
    rates: dict[str, list[float]] = {}  # final ask rate per file, by config hash
    with tempfile.TemporaryDirectory() as tmp:
        for i, variant in enumerate(variants):
            config = ExperimentConfig()
            for key, value in variant.items():
                config = apply_setting(config, key, value)
            Path(tmp, str(i)).mkdir()
            for seed in config.seeds:
                log = replace(data.draw(run_logs), seed=seed)
                write_result_csv(log, config, str(Path(tmp, str(i), f"results_{seed}.csv")))
                rates.setdefault(config_hash(config), []).append(ask_rate(log))
        assert main(["report", "--in", tmp]) == 0
        with open(Path(tmp, "askrate.csv"), encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    table = list(csv.reader(line for line in lines if not line.startswith("#")))

    differing = sorted(k for k in variants[0] if k != "strategy.name"
                       and any(v[k] != variants[0][k] for v in variants))
    header, rows = table[0], [dict(zip(table[0], row)) for row in table[1:]]
    assert header == ["strategy", *differing, "n_seeds", "mean_test_auc", "std_test_auc",
                      "mean_ask_rate", "std_ask_rate", "config_hash", "artifact_version"]
    # One layout decision: each other key is a header line or a column, not both.
    for key in REPORT_KEYS:
        if key != "strategy.name":
            shared = any(line.startswith(f"# cfg {key} = ") for line in lines)
            assert shared != (key in header), key
    assert sorted(row["config_hash"] for row in rows) == sorted(rates)
    assert sum(int(row["n_seeds"]) for row in rows) == sum(map(len, rates.values()))
    for row in rows:
        defined = [r for r in rates[row["config_hash"]] if not math.isnan(r)]
        expected = sum(defined) / len(defined) if defined else math.nan
        assert float(row["mean_ask_rate"]) == pytest.approx(expected, rel=1e-12, nan_ok=True)
