"""Acceptance gate: end-to-end checks of the package at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion.  Tests execute in definition order; the final criterion
checks the whole suite's wall time (single process, no parallel jobs).
"""

import contextlib
import math
import time
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from soqal.cli import main
from soqal.config import ExperimentConfig, config_hash
from soqal.engine import ask_rate, run_experiment
from soqal.gate import GateStats, chernoff_bound, hellinger
from soqal.acquisition import bald_mcd
from soqal.metrics import auc_binary
from soqal.network import Network, loss_terms

_SUITE_START = time.monotonic()
_RUN_CACHE: dict[tuple[str, int], object] = {}


@contextlib.contextmanager
def criterion(number: int, label: str, limit_s: float | None = None):
    start = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - start
        if limit_s is not None and elapsed >= limit_s:
            raise AssertionError(
                f"criterion {number} runtime {elapsed:.1f}s exceeds {limit_s}s"
            )
        ok = True
    finally:
        elapsed = time.monotonic() - start
        print(
            f"criterion {number}: {'PASS' if ok else 'FAIL'} ({label}, {elapsed:.1f}s)"
        )


def cached_run(config: ExperimentConfig, seed: int):
    key = (config_hash(config), seed)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = run_experiment(config, seed)
    return _RUN_CACHE[key]


def benchmark_config(strategy="soqal", **strategy_fields) -> ExperimentConfig:
    """The ordering benchmark: 2-class blobs, n=1000, separation tuned so the
    full-oracle run lands in the required AUC window."""
    cfg = ExperimentConfig()
    return replace(
        cfg,
        dataset=replace(cfg.dataset, n=1000, classes=2, separation=1.8),
        active_learning=replace(cfg.active_learning, init_labelled_frac=0.05),
        strategy=replace(cfg.strategy, name=strategy, **strategy_fields),
    )


SEEDS = (0, 1, 2, 3, 4)


def seed_mean(config, metric):
    return float(np.mean([metric(cached_run(config, s)) for s in SEEDS]))


# --- criterion 1: math oracle suite -------------------------------------


def hellinger_quadrature(mu0, var0, mu1, var1):
    s0, s1 = math.sqrt(var0), math.sqrt(var1)

    def integrand(x):
        return math.sqrt(norm.pdf(x, mu0, s0) * norm.pdf(x, mu1, s1))

    lo = min(mu0 - 40 * s0, mu1 - 40 * s1)
    hi = max(mu0 + 40 * s0, mu1 + 40 * s1)
    bc, _ = integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12)
    return math.sqrt(max(0.0, 1.0 - bc))


def concordance_auc(scores, positives):
    pos = scores[positives]
    neg = scores[~positives]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_criterion_1_math_oracles():
    with criterion(1, "hellinger/bald/auc vs independent oracles", limit_s=10):
        rng = np.random.default_rng(101)
        for _ in range(50):
            mu0, mu1 = rng.uniform(0, 1, size=2)
            var0, var1 = rng.uniform(1e-4, 0.2, size=2)
            closed = hellinger(mu0, var0, mu1, var1)
            assert abs(closed - hellinger_quadrature(mu0, var0, mu1, var1)) < 1e-6

        for _ in range(50):
            t = int(rng.integers(2, 40))
            c = int(rng.integers(2, 8))
            raw = rng.gamma(1.0, size=(t, c))
            probs = raw / raw.sum(axis=1, keepdims=True)
            direct = -np.sum(
                probs.mean(axis=0) * np.log(probs.mean(axis=0))
            ) - np.mean([-np.sum(row * np.log(row)) for row in probs])
            assert abs(bald_mcd(probs) - direct) < 1e-9

        for _ in range(50):
            n = int(rng.integers(4, 80))
            scores = rng.integers(0, 8, size=n) / 7.0  # coarse grid forces ties
            positives = rng.random(n) < 0.5
            if positives.all() or not positives.any():
                positives[0] = True
                positives[1] = False
            assert abs(
                auc_binary(scores, positives) - concordance_auc(scores, positives)
            ) < 1e-12


# --- criterion 2: gradient check -----------------------------------------


def numeric_grads(net, x, targets, errors, beta, masks, step=1e-5):
    grads = []
    for arr in net.parameters():
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            probs, gate, _ = net.forward_batch(x, masks)
            up = sum(loss_terms(probs, gate, targets, errors, beta))
            arr[idx] = orig - step
            probs, gate, _ = net.forward_batch(x, masks)
            down = sum(loss_terms(probs, gate, targets, errors, beta))
            arr[idx] = orig
            grad[idx] = (up - down) / (2.0 * step)
        grads.append(grad)
    return grads


def test_criterion_2_gradient_check():
    with criterion(2, "analytic gradients vs central differences", limit_s=30):
        rng = np.random.default_rng(202)
        checked = 0
        attempt = 0
        while checked < 20:
            attempt += 1
            net = Network.initialize(4, 3, [6, 5], dropout_rate=0.3, seed=attempt)
            x = rng.standard_normal((3, 4))
            masks = net.make_masks(3, rng)
            _, _, cache = net.forward_batch(x, masks)
            # Central differences are invalid within a step of a relu kink.
            if min(np.abs(z).min() for z in cache["pre_relu"]) <= 1e-4:
                continue
            targets = rng.integers(0, 3, size=3)
            errors = np.array([0.0, 1.0, float(rng.integers(0, 2))])
            beta = float(rng.uniform(0.25, 4.0))
            analytic = net.backward(cache, targets, errors, beta)
            numeric = numeric_grads(net, x, targets, errors, beta, masks)
            for a, n in zip(analytic, numeric):
                rel = np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-8)
                assert rel.max() < 1e-4, f"draw {checked}: rel err {rel.max():.2e}"
            checked += 1


# --- criterion 3: Chernoff validity ---------------------------------------


def monte_carlo_bayes_error(stats, n, rng):
    classes = (rng.random(n) < stats.prior1).astype(int)
    draws = np.where(
        classes == 1,
        rng.normal(stats.mu1, math.sqrt(stats.var1), size=n),
        rng.normal(stats.mu0, math.sqrt(stats.var0), size=n),
    )
    lp1 = math.log(stats.prior1) + norm.logpdf(draws, stats.mu1, math.sqrt(stats.var1))
    lp0 = math.log(stats.prior0) + norm.logpdf(draws, stats.mu0, math.sqrt(stats.var0))
    wrong = (lp1 > lp0).astype(int) != classes
    rate = float(wrong.mean())
    return rate, math.sqrt(rate * (1.0 - rate) / n)


def test_criterion_3_chernoff_validity():
    with criterion(3, "Chernoff bound dominates Monte-Carlo Bayes error", limit_s=60):
        rng = np.random.default_rng(303)
        for draw in range(50):
            prior0 = float(rng.uniform(0.1, 0.9))
            stats = GateStats(
                mu0=float(rng.uniform(0, 1)),
                var0=float(rng.uniform(1e-4, 0.05)),
                mu1=float(rng.uniform(0, 1)),
                var1=float(rng.uniform(1e-4, 0.05)),
                prior0=prior0,
                prior1=1.0 - prior0,
                d_hellinger=0.5,
                valid=True,
            )
            bound = chernoff_bound(stats).bound
            error, se = monte_carlo_bayes_error(stats, 100_000, rng)
            assert bound >= error - 3.0 * se, (
                f"draw {draw}: bound {bound:.4f} < error {error:.4f} - 3*{se:.4f}"
            )
        symmetric = GateStats(0.25, 0.02, 0.75, 0.02, 0.5, 0.5, 0.8, True)
        assert chernoff_bound(symmetric).beta_star == pytest.approx(0.5, abs=1e-3)


# --- criterion 4: strategy extremes ---------------------------------------


def rows_identical(a, b):
    """Dataclass-row equality that treats nan fields as equal to nan."""
    if len(a) != len(b):
        return False
    for rec_a, rec_b in zip(a, b):
        for fa, fb in zip(astuple(rec_a), astuple(rec_b)):
            both_nan = (
                isinstance(fa, float) and isinstance(fb, float)
                and math.isnan(fa) and math.isnan(fb)
            )
            if not both_nan and fa != fb:
                return False
    return True


def test_criterion_4_strategy_extremes():
    with criterion(4, "ask-rate extremes and S=1 identity"):
        base = replace(
            benchmark_config("full-oracle"),
            training=replace(ExperimentConfig().training, epochs=25),
        )
        full = cached_run(base, 0)
        assert ask_rate(full) == 1.0

        none = cached_run(replace(base, strategy=replace(base.strategy, name="no-oracle")), 0)
        assert ask_rate(none) == 0.0

        trusting = replace(
            base, strategy=replace(base.strategy, name="soqal", hellinger_threshold=1.0)
        )
        soq = cached_run(trusting, 0)
        assert rows_identical(soq.epochs, full.epochs), "S=1.0 diverged from full-oracle"
        assert soq.acquisitions == full.acquisitions
        assert soq.test_auc == full.test_auc


# --- criterion 5: strategy ordering on the benchmark ----------------------


def test_criterion_5_strategy_ordering():
    with criterion(5, "full-oracle >= soqal >= no-oracle with a real gap", limit_s=300):
        full = seed_mean(benchmark_config("full-oracle"), lambda r: r.test_auc)
        soq = seed_mean(benchmark_config("soqal"), lambda r: r.test_auc)
        none = seed_mean(benchmark_config("no-oracle"), lambda r: r.test_auc)
        print(f"  mean test AUC: full={full:.4f} soqal={soq:.4f} no-oracle={none:.4f}")
        assert 0.85 <= full <= 0.95, f"benchmark mis-tuned: full-oracle AUC {full:.4f}"
        assert full >= soq >= none, "strategy ordering violated"
        assert full - none >= 0.03, f"oracle value gap too small: {full - none:.4f}"


# --- criterion 6: ask-rate versus the trust threshold ----------------------


def test_criterion_6_ask_rate_vs_threshold():
    with criterion(6, "ask-rate non-decreasing in S"):
        grid = (0.1, 0.15, 0.2, 0.3, 0.4)
        rates = []
        never_exceeded = []
        for threshold in grid:
            cfg = benchmark_config("soqal", hellinger_threshold=threshold)
            per_seed_rates = []
            below = True
            for seed in SEEDS:
                log = cached_run(cfg, seed)
                per_seed_rates.append(ask_rate(log))
                acq_epochs = {a.epoch for a in log.acquisitions}
                top = max(r.d_hellinger for r in log.epochs if r.epoch in acq_epochs)
                below = below and top < threshold
            rates.append(float(np.mean(per_seed_rates)))
            never_exceeded.append(below)
        print("  S grid:", dict(zip(grid, [round(r, 3) for r in rates])))
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 0.02, f"ask-rate dropped more than 2pp: {rates}"
        trusted_always = [s for s, below in zip(grid, never_exceeded) if below]
        if trusted_always:
            top_s = max(trusted_always)
            rate = rates[grid.index(top_s)]
            assert rate == 1.0, f"S={top_s} never trusted yet ask-rate {rate} != 1"
        else:
            print("  (separation exceeded every grid S at some acquisition epoch)")


# --- criterion 7: heavy label noise ----------------------------------------


def test_criterion_7_noise_robustness():
    with criterion(7, "gamma=0.8 noise: fewer asks, no AUC collapse"):
        noisy = replace(
            benchmark_config("soqal"),
            oracle=replace(ExperimentConfig().oracle, kind="random-flip", gamma=0.8),
        )
        noisy_full = replace(noisy, strategy=replace(noisy.strategy, name="full-oracle"))
        soq_rate = seed_mean(noisy, ask_rate)
        soq_auc = seed_mean(noisy, lambda r: r.test_auc)
        full_auc = seed_mean(noisy_full, lambda r: r.test_auc)
        reduction = (1.0 - soq_rate) * 100.0
        print(
            f"  soqal ask-rate={soq_rate:.3f} (reduction {reduction:.0f}% vs "
            f"full-oracle), AUC soqal={soq_auc:.4f} full={full_auc:.4f}"
        )
        assert soq_rate < 0.9
        assert soq_auc >= full_auc - 0.02


# --- criterion 8: byte-level determinism -----------------------------------


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "repeated runs produce byte-identical CSVs"):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "dataset.n = 200\ndataset.separation = 2.0\n"
            "training.epochs = 8\nseeds = 0,1\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_file), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg_file), "--out", str(out_b)]) == 0
        for name in ("results_0.csv", "results_1.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


# --- criterion 9: whole-suite runtime --------------------------------------


def test_criterion_9_suite_runtime():
    with criterion(9, "acceptance suite wall time under 15 minutes"):
        elapsed = time.monotonic() - _SUITE_START
        print(f"  total acceptance wall time: {elapsed:.0f}s (single process)")
        assert elapsed < 900.0
