"""One repetition of one workload, in a fresh process.

Imports soqal, loads and validates the workload's config, then drives
`soqal.cli.main` (and `report` where the workload asks for it) into an
output directory, checks every result CSV and prints one JSON line with the
timings, peak RSS, per-file digests and, with `--trace 1`, the span summary.

Run from the repository root with `src` on PYTHONPATH; `perfbench/run.py`
does that for each repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback

from spans import Patches, SetupProbe, Tracer
from speed import BlasKernel, Ticker, slice_slowness
from workloads import CONFIG, WORKLOADS, Workload


def check_result(path: str) -> dict:
    """Digest and validate one results CSV; `problems` lists what failed."""
    from soqal.errors import SoqalError
    from soqal.results import read_result_csv

    entry: dict = {"problems": []}
    try:
        with open(path, "rb") as fh:
            entry["sha256"] = hashlib.sha256(fh.read()).hexdigest()
        parsed = read_result_csv(path)
    except (OSError, SoqalError, ValueError, KeyError) as exc:
        entry["problems"].append(f"{path}: {exc!r}")
        return entry
    entry["test_auc"] = parsed.test_auc
    if not 0.0 <= parsed.test_auc <= 1.0:
        entry["problems"].append(f"{path}: test_auc {parsed.test_auc} outside [0, 1]")
    pool_sizes = {row["n_labelled"] + row["n_unlabelled"] for row in parsed.epoch_rows}
    if len(pool_sizes) != 1:
        entry["problems"].append(f"{path}: n_labelled + n_unlabelled not constant: {pool_sizes}")
    return entry


def run(workload: Workload, seeds: tuple[int, ...], out_dir: str, traced: bool) -> dict:
    ticker = Ticker()
    problems = []
    # Ticks inside traced spans would count as the spans' own time.
    with contextlib.nullcontext() if traced else ticker:
        start = time.perf_counter()
        import soqal.cli
        from soqal.config import apply_setting, load_config, validate

        config = load_config(CONFIG)
        for setting in workload.overrides:
            key, _, value = setting.partition("=")
            config = apply_setting(config, key, value)
        validate(config)
        ready = time.perf_counter()
        blas = ticker.blas = BlasKernel()  # untimed: needs numpy, now imported
        resume = time.perf_counter()

        patches = Patches()
        tracer = Tracer(patches) if traced else None
        probe = SetupProbe(patches)
        try:
            rc = soqal.cli.main(workload.run_argv(seeds, out_dir))
            if rc == 0 and workload.report:
                rc = soqal.cli.main(["report", "--in", out_dir])
            if rc != 0:
                problems.append(f"soqal exited with code {rc}")
        except Exception:  # the report must say which seed-runs failed
            problems.append(traceback.format_exc())
        end = time.perf_counter()
    slowness_slices = slice_slowness(blas)
    if not patches.restore():
        problems.append("wrappers did not restore the original functions")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def untimed(a: float, b: float) -> float:
        return b - a - ticker.spent(a, b)

    ready_s = untimed(start, ready)
    seed_setup_s = [untimed(a, b) for a, b in probe.intervals]
    setup_s = ready_s + sum(seed_setup_s)
    total_s = ready_s + untimed(resume, end)

    outputs = ["summary.csv"] + (["curves.csv", "askrate.csv"] if workload.report else [])
    problems += [f"missing {name}" for name in outputs
                 if not os.path.isfile(os.path.join(out_dir, name))]
    files = {rel: check_result(os.path.join(out_dir, rel))
             for rel in workload.expected_results(seeds)}
    acquisitions = [a for log in probe.logs for a in log.acquisitions]

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "ready_s": ready_s,
        "seed_setup_s": seed_setup_s,
        "setup_s": setup_s,
        "total_s": total_s,
        "run_s": total_s - setup_s,
        "rss_mb": rss_mb,
        # Host slowness (speed.py): over the ticks all through an untraced
        # repetition, and over the slices after any repetition.
        "slowness_ticks": ticker.slowness(),
        "slowness_slices": slowness_slices,
        "ticks": len(ticker.ticks),
        "files": files,
        "problems": problems,
        "acquired": len(acquisitions),
        "asked": sum(a.source == "oracle" for a in acquisitions),
        "right_labels": sum(a.assigned_label == a.true_label for a in acquisitions),
        "trace": tracer.summary() if tracer else None,
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated experiment seeds")
    parser.add_argument("--out", required=True, help="output directory for soqal")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seeds = tuple(int(s) for s in args.seeds.split(","))
    result = run(WORKLOADS[args.workload], seeds, args.out, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
