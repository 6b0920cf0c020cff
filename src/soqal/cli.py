"""Command-line surface: run experiment grids, sweep one parameter, and
condense result directories into plot-ready CSVs.

Exit codes: 0 success, 1 configuration error, 2 runtime error.  The
environment variable ``SOQAL_SEED_BASE`` adds a fixed offset to every seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (
    SWEEPABLE,
    ExperimentConfig,
    apply_setting,
    config_hash,
    load_config,
    validate,
)
from .engine import run_experiment
from .errors import ConfigError, DataLoadError, SoqalError
from .results import (
    ResultFile,
    format_float,
    provenance_comments,
    read_result_csv,
    write_result_csv,
    write_table,
)


def _seed_base() -> int:
    raw = os.environ.get("SOQAL_SEED_BASE", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"SOQAL_SEED_BASE must be an integer, got {raw!r}") from None


def _run_one(config: ExperimentConfig, seed: int, path: str) -> None:
    write_result_csv(run_experiment(config, seed), config, path)


def check_existing(config: ExperimentConfig, out_dir: str) -> None:
    """Reject any existing result file of the grid that was written under
    another config hash or artifact version, naming the file and both."""
    expected = (config_hash(config), __version__)
    for seed in config.seeds:
        path = os.path.join(out_dir, f"results_{seed}.csv")
        if not os.path.exists(path):
            continue
        found = read_result_csv(path)
        if (found.config_hash, found.artifact_version) != expected:
            raise ConfigError(
                f"{path} holds config_hash {found.config_hash} "
                f"(v{found.artifact_version}), not {expected[0]} (v{expected[1]}); "
                "move it away or choose another --out"
            )


def run_seed_grid(config: ExperimentConfig, out_dir: str, jobs: int) -> list[str]:
    """Run every seed whose result file does not exist yet; return all paths.

    Completed files are never overwritten, so an interrupted grid resumes
    where it stopped.  The caller must first reject completed files from
    another config or artifact version with `check_existing`.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, f"results_{seed}.csv") for seed in config.seeds]
    pending = [
        (seed, path)
        for seed, path in zip(config.seeds, paths)
        if not os.path.exists(path)
    ]
    if jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_one, config, seed, path) for seed, path in pending
            ]
            for future in futures:
                future.result()
    else:
        for seed, path in pending:
            _run_one(config, seed, path)
    return paths


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        return float("nan"), float("nan")
    return float(arr.mean()), float(arr.std())


def summarize(files: list[ResultFile]) -> dict[str, float]:
    auc_mean, auc_std = _mean_std([f.test_auc for f in files])
    rate_mean, rate_std = _mean_std([f.final_ask_rate for f in files])
    return {
        "mean_test_auc": auc_mean,
        "std_test_auc": auc_std,
        "mean_ask_rate": rate_mean,
        "std_ask_rate": rate_std,
    }


def _prepare(args: argparse.Namespace, settings: list[str]) -> ExperimentConfig:
    """Load the config, apply `--set` settings, offset the seeds by
    SOQAL_SEED_BASE, apply `--out`, validate, and create the output root."""
    config = load_config(args.config)
    for setting in settings:
        if "=" not in setting:
            raise ConfigError(f"--set expects key=value, got {setting!r}")
        key, _, value = setting.partition("=")
        config = apply_setting(config, key.strip(), value.strip())
    base = _seed_base()
    config = replace(
        config,
        seeds=tuple(s + base for s in config.seeds),
        output_dir=args.out or config.output_dir,
    )
    validate(config)
    os.makedirs(config.output_dir, exist_ok=True)
    return config


def _run_grids(
    variants: list[tuple[list[str], ExperimentConfig, str]],
    columns: list[str],
    jobs: int,
    summary_path: str,
    config: ExperimentConfig,
) -> None:
    """Run each (leading cells, config, directory) variant's seed grid and
    write one summary row per variant.

    Every variant is validated, and its existing result files checked,
    before any runs.  The leading cells fill the first columns; the rest are
    named from the variant's seed grid.
    """
    for _, cfg, out_dir in variants:
        validate(cfg)
        check_existing(cfg, out_dir)
    rows = []
    for lead, cfg, out_dir in variants:
        files = [read_result_csv(p) for p in run_seed_grid(cfg, out_dir, jobs)]
        cells = {k: format_float(v) for k, v in summarize(files).items()}
        cells.update(
            n_seeds=str(len(files)),
            config_hash=config_hash(cfg),
            artifact_version=__version__,
        )
        rows.append(lead + [cells[c] for c in columns[len(lead):]])
    write_table(summary_path, columns, rows, provenance_comments(config))


def cmd_run(args: argparse.Namespace) -> int:
    config = _prepare(args, args.set or [])
    strategies = args.strategy or [config.strategy.name]
    out_root = config.output_dir
    variants = []
    for name in strategies:
        cfg = replace(config, strategy=replace(config.strategy, name=name))
        sub_dir = out_root if len(strategies) == 1 else os.path.join(out_root, name)
        variants.append(([name], cfg, sub_dir))
    columns = ["strategy", "n_seeds", "mean_test_auc", "std_test_auc",
               "mean_ask_rate", "std_ask_rate", "config_hash", "artifact_version"]
    summary_path = os.path.join(out_root, "summary.csv")
    _run_grids(variants, columns, args.jobs, summary_path, config)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in SWEEPABLE:
        raise ConfigError(
            f"parameter {args.param!r} is not sweepable; choose from "
            f"{sorted(SWEEPABLE)}"
        )
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    config = _prepare(args, [])
    variants = [
        (
            [args.param, value],
            apply_setting(config, SWEEPABLE[args.param], value),
            os.path.join(config.output_dir, f"sweep_{args.param}_{value}"),
        )
        for value in values
    ]
    columns = ["param", "value", "mean_test_auc", "mean_ask_rate", "n_seeds",
               "config_hash", "artifact_version"]
    summary_path = os.path.join(config.output_dir, "sweep_summary.csv")
    _run_grids(variants, columns, args.jobs, summary_path, config)
    return 0


def _find_result_files(root: str) -> list[str]:
    found = []
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.startswith("results_") and name.endswith(".csv"):
                found.append(os.path.join(dirpath, name))
    return sorted(found)


def _noise_tag(cfg: dict[str, str]) -> str:
    kind = cfg.get("oracle.kind", "noise-free")
    if kind == "noise-free":
        return "noise-free"
    return f"{kind}@{cfg.get('oracle.gamma', '?')}"


def cmd_report(args: argparse.Namespace) -> int:
    paths = _find_result_files(args.in_dir)
    if not paths:
        raise ConfigError(f"no result files under {args.in_dir}")
    files = [read_result_csv(p) for p in paths]
    out_dir = args.out or args.in_dir
    os.makedirs(out_dir, exist_ok=True)

    by_strategy: dict[str, list[ResultFile]] = {}
    for f in files:
        by_strategy.setdefault(f.cfg.get("strategy.name", "?"), []).append(f)

    def group_hash(group_files: list[ResultFile]) -> str:
        hashes = {f.config_hash for f in group_files}
        return hashes.pop() if len(hashes) == 1 else "mixed"

    curve_rows = []
    for strategy in sorted(by_strategy):
        group = by_strategy[strategy]
        per_epoch: dict[int, list[float]] = {}
        for f in group:
            for row in f.epoch_rows:
                per_epoch.setdefault(int(row["epoch"]), []).append(row["val_auc"])
        for epoch in sorted(per_epoch):
            mean, std = _mean_std(per_epoch[epoch])
            curve_rows.append(
                [str(epoch), strategy, format_float(mean), format_float(std),
                 group_hash(group), __version__]
            )
    write_table(
        os.path.join(out_dir, "curves.csv"),
        ["epoch", "strategy", "mean_val_auc", "std_val_auc", "config_hash",
         "artifact_version"],
        curve_rows,
        [f"# soqal-report v{__version__}"],
    )

    rate_rows = []
    by_group: dict[tuple[str, str], list[ResultFile]] = {}
    for f in files:
        group = (f.cfg.get("strategy.name", "?"), _noise_tag(f.cfg))
        by_group.setdefault(group, []).append(f)
    for (strategy, noise) in sorted(by_group):
        group = by_group[(strategy, noise)]
        mean, _ = _mean_std([f.final_ask_rate for f in group])
        rate_rows.append(
            [strategy, noise, format_float(mean), group_hash(group), __version__]
        )
    write_table(
        os.path.join(out_dir, "askrate.csv"),
        ["strategy", "noise", "mean_ask_rate", "config_hash", "artifact_version"],
        rate_rows,
        [f"# soqal-report v{__version__}"],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soqal", description="Active-learning simulator with a learned ask gate"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the seed grid for one config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE")
    run_p.add_argument(
        "--strategy", action="append", help="repeat to run several strategies"
    )
    run_p.add_argument("--jobs", type=int, default=1)
    run_p.add_argument("--out", help="output directory (overrides the config)")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run the seed grid per parameter value")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--param", required=True)
    sweep_p.add_argument("--values", required=True, metavar="CSVLIST")
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.add_argument("--out")
    sweep_p.set_defaults(func=cmd_sweep)

    report_p = sub.add_parser("report", help="emit plot-ready CSVs from results")
    report_p.add_argument("--in", dest="in_dir", required=True)
    report_p.add_argument("--out")
    report_p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, DataLoadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SoqalError, OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
