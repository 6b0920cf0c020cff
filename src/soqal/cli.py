"""Command-line surface: run experiment grids, sweep one parameter, and
condense result directories into plot-ready CSVs.

Exit codes: 0 success, 1 input error (`ConfigError`), 2 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    apply_setting,
    canonical_lines,
    config_hash,
    load_config,
    settings,
    spell,
    validate,
    value_separator,
)
from .engine import prefix_key, run_experiment, shared_runs
from .errors import ConfigError
from .results import (
    ResultFile,
    provenance_comments,
    read_result_csv,
    write_result_csv,
    write_table,
)


def _run_group(runs: list[tuple[ExperimentConfig, int, str]]) -> None:
    """Run and write the (config, seed, path) runs of one `prefix_key`, which
    compute each epoch once for as long as their decisions agree."""
    with shared_runs([run[:2] for run in runs]):
        for config, seed, path in runs:
            write_result_csv(run_experiment(config, seed), config, path)


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        return float("nan"), float("nan")
    return float(arr.mean()), float(arr.std())


def _spelled(config: ExperimentConfig) -> dict[str, str]:
    """Each canonical key's value, spelled as in the `# cfg` lines."""
    return dict(line.split(" = ", 1) for line in canonical_lines(config))


def _csv_cell(value: str) -> str:
    """`value` as one CSV cell: quoted when it holds a comma or a quote."""
    return '"' + value.replace('"', '""') + '"' if "," in value or '"' in value else value


def _layout(configs: list[ExperimentConfig]) -> tuple[list[str], list[str], list[list[str]]]:
    """The layout of a table with one row per config, from one split of the
    settings into those the configs share and those that differ: the header
    (the provenance lines every config shares, so the config hash only when
    nothing differs), the leading columns (`strategy`, then every other
    setting that differs, spelled as in the `# cfg` lines) and each config's
    cells under them."""
    spelled = [_spelled(cfg) for cfg in configs]
    differ = {k for k in spelled[0] if any(s[k] != spelled[0][k] for s in spelled)}
    version, digest, *cfg_lines = provenance_comments(configs[0])[1]
    header = [version, *([] if differ else [digest]),
              *(line for line, k in zip(cfg_lines, spelled[0]) if k not in differ)]
    keys = [k for k in spelled[0] if k in differ and k != "strategy.name"]
    cells = [[cfg.strategy.name, *(_csv_cell(s[k]) for k in keys)]
             for cfg, s in zip(configs, spelled)]
    return header, ["strategy", *keys], cells


def _groups(files: list[ResultFile]) -> list[list[ResultFile]]:
    """The files grouped by config hash, each group in seed order, the groups
    ordered by strategy, then by each setting's typed value in key order (the
    hash only breaks the tie of 0.0 and -0.0): one order whatever order the
    files were named in, so every table is a function of its files alone."""
    groups: dict[str, list[ResultFile]] = {}
    for f in sorted(files, key=lambda f: f.seed):
        groups.setdefault(f.config_hash, []).append(f)
    return sorted(groups.values(), key=lambda g: (
        g[0].config.strategy.name, *settings(g[0].config).values(), g[0].config_hash))


def _write_summary(path: str, groups: list[list[ResultFile]]) -> None:
    """Write one row per group of `_groups`: the leading cells, then the
    seed count, the mean and standard deviation of test AUC and of ask rate,
    the config hash and the artifact version."""
    header, lead_columns, leads = _layout([files[0].config for files in groups])
    columns = [*lead_columns, "n_seeds", "mean_test_auc", "std_test_auc",
               "mean_ask_rate", "std_ask_rate", "config_hash", "artifact_version"]
    rows = []
    for lead, files in zip(leads, groups):
        stats = (*_mean_std([f.test_auc for f in files]),
                 *_mean_std([f.final_ask_rate for f in files]))
        rows.append([*lead, spell("int", len(files)), *(spell("float", s) for s in stats),
                     files[0].config_hash, __version__])
    write_table(path, columns, rows, header)


def _prepare(args: argparse.Namespace, settings: list[str]) -> ExperimentConfig:
    """Load the config and apply `--set` settings and `--out`; `_run_grids`
    validates the result."""
    config = load_config(args.config)
    for setting in settings:
        if "=" not in setting:
            raise ConfigError(f"--set expects key=value, got {setting!r}")
        key, _, value = setting.partition("=")
        config = apply_setting(config, key.strip(), value.strip())
    return replace(config, output_dir=args.out or config.output_dir)


def _run_grids(config: ExperimentConfig, key: str, values: list[str],
               directory: Callable[[str], str], jobs: int, summary: str) -> int:
    """Run every pending seed of each variant, `config` with `key` set to one
    of `values` in the directory `directory(value)`, and write the `summary`
    table into the output directory, one row per variant in `_groups` order.

    Before anything runs, every variant is validated and checked to differ
    from the others, and each existing `results_<seed>.csv` is read (which
    checks its bytes) and checked to hold that variant's config hash and
    seed; a differing hash names the keys that differ.
    Missing files are run seed by seed, in groups of one `prefix_key` that
    share their epochs while their decisions agree, all groups in one process
    pool when `jobs` > 1; a group's files are written once it is computed
    whole and are never overwritten, so an interrupted grid resumes at the
    first group it did not finish.
    """
    variants = [(apply_setting(config, key, value), directory(value)) for value in values]
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    dirs: dict[str, str] = {}
    files: list[ResultFile] = []
    pending = []
    for cfg, out_dir in variants:
        validate(cfg)
        digest = config_hash(cfg)
        if digest in dirs:
            raise ConfigError(
                f"{dirs[digest]} and {out_dir} would run the same config "
                f"(config_hash {digest})"
            )
        dirs[digest] = out_dir
        for seed in cfg.seeds:
            path = os.path.join(out_dir, f"results_{seed}.csv")
            if not os.path.exists(path):
                pending.append((cfg, seed, path))
                continue
            found = read_result_csv(path)
            files.append(found)
            if (found.config_hash, found.seed) != (digest, seed):
                old, new = _spelled(found.config), _spelled(cfg)
                keys = "".join(f"; {k}: {old[k]} in the file, {new[k]} in this run"
                               for k in old if old[k] != new[k])
                raise ConfigError(
                    f"{path} holds seed {found.seed} under config_hash "
                    f"{found.config_hash}, not seed {seed} under {digest}{keys}; "
                    "move it away or choose another --out"
                )
    for out_dir in dirs.values():
        os.makedirs(out_dir, exist_ok=True)
    prefix_groups: dict[tuple, list] = {}
    for run in sorted(pending, key=lambda run: run[1]):  # seed-major
        prefix_groups.setdefault(prefix_key(*run[:2]), []).append(run)
    workers = min(jobs, len(prefix_groups))  # fork starts every worker at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_group, group) for group in prefix_groups.values()]
            for future in futures:
                future.result()
    else:
        for group in prefix_groups.values():
            _run_group(group)
    files += [read_result_csv(path) for _, _, path in pending]
    _write_summary(os.path.join(config.output_dir, summary), _groups(files))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """`--strategy` spells the sweep over `strategy.name`, into `<out>/<name>`,
    or into `<out>` itself for one strategy, with `summary.csv`."""
    config = _prepare(args, args.set or [])
    names = args.strategy or [config.strategy.name]
    out = config.output_dir
    return _run_grids(config, "strategy.name", names,
                      lambda name: out if len(names) == 1 else os.path.join(out, name),
                      args.jobs, "summary.csv")


def cmd_sweep(args: argparse.Namespace) -> int:
    values = [v.strip() for v in args.values.split(value_separator(args.param)) if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    for value in values:  # each names a directory inside --out
        if os.sep in value or (os.altsep and os.altsep in value):
            raise ConfigError(f"sweep value {value!r} holds a path separator")
    config = _prepare(args, [])
    return _run_grids(config, args.param, values,
                      lambda value: os.path.join(config.output_dir, f"sweep_{args.param}_{value}"),
                      args.jobs, "sweep_summary.csv")


def _find_result_files(root: str) -> list[str]:
    found = []
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name.startswith("results_") and name.endswith(".csv"):
                found.append(os.path.join(dirpath, name))
    return sorted(found)


def cmd_report(args: argparse.Namespace) -> int:
    """Write `askrate.csv` (the grid summary's rows) and `curves.csv` (the mean
    validation AUC per epoch) for each config hash found, in `_groups` order."""
    paths = _find_result_files(args.in_dir)
    if not paths:
        raise ConfigError(f"no result files under {args.in_dir}")
    first: dict[tuple[str, int], str] = {}
    files = []
    for path in paths:
        f = read_result_csv(path)
        seen = first.setdefault((f.config_hash, f.seed), path)
        if seen != path:
            raise ConfigError(
                f"{seen} and {path} both hold seed {f.seed} under config_hash "
                f"{f.config_hash}; remove one so the run counts once"
            )
        files.append(f)
    groups = _groups(files)
    header, lead_columns, leads = _layout([group[0].config for group in groups])
    curve_rows = []
    for lead, group in zip(leads, groups):
        per_epoch: dict[int, list[float]] = {}
        for f in group:
            for row in f.epoch_rows:
                per_epoch.setdefault(row["epoch"], []).append(row["val_auc"])
        for epoch in sorted(per_epoch):
            mean_std = (spell("float", s) for s in _mean_std(per_epoch[epoch]))
            curve_rows.append([spell("int", epoch), *lead, *mean_std,
                               group[0].config_hash, __version__])
    curve_columns = ["epoch", *lead_columns, "mean_val_auc", "std_val_auc",
                     "config_hash", "artifact_version"]
    write_table(os.path.join(args.in_dir, "curves.csv"), curve_columns, curve_rows, header)
    _write_summary(os.path.join(args.in_dir, "askrate.csv"), groups)
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
    sweep_p.add_argument("--values", required=True, metavar="CSVLIST",
                         help="split on ';' for list-valued keys such as network.hidden")
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.add_argument("--out")
    sweep_p.set_defaults(func=cmd_sweep)

    report_p = sub.add_parser("report", help="emit plot-ready CSVs from results")
    report_p.add_argument("--in", dest="in_dir", required=True)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
