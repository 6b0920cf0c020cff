"""soqal benchmark: one workload, timed in fresh worker processes.

Usage, from the repository root:

    python3 perfbench/run.py --workload pool-bald --seed 0 --seconds 30 --trace 0

Each repetition is a fresh `perfbench/worker.py` process with one BLAS
thread.  A run first executes the workload once on its fixed seed panel
(warm-up; gives the quality metrics), then repeats it on the experiment
seeds derived from `--seed` for about `--seconds` seconds.  With
`--trace 0` it reports the end-to-end metrics as medians over those
repetitions; with `--trace 1` it alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones.  The
last line of standard output is the JSON result; see README.md for every
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import COUNTS, LAYERS, TRACED_NAMES
from speed import combined
from workloads import CONFIG, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REP_TIMEOUT_S = 60
# No repetition starts this long after the run started, so even with a
# repetition that times out the run ends inside 180 s.
LAST_START_S = 100
MIN_PLAIN = 3  # untraced repetitions in a --trace 0 run
MIN_TRACED = 2  # traced repetitions in a --trace 1 run, to compare their counts

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "test_auc": "ratio",
    "label_accuracy": "ratio",
    "ask_rate": "ratio",
}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_rep(workload: Workload, seeds: tuple[int, ...], traced: bool) -> dict:
    """One worker process; a worker that fails yields only `problems`."""
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=work)
    cmd = [sys.executable, str(WORKER), "--workload", workload.name,
           "--seeds", ",".join(map(str, seeds)), "--out", out_dir,
           "--trace", str(int(traced))]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"worker timed out after {REP_TIMEOUT_S} s"],
                "wall_s": time.perf_counter() - started}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    wall_s = time.perf_counter() - started
    try:
        rep = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        rep = {"problems": [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    rep["wall_s"] = wall_s
    return rep


def digest(files: dict) -> str:
    """sha256 over the per-file digests of one repetition, in path order."""
    text = "".join(f"{rel} {files[rel].get('sha256')}\n" for rel in sorted(files))
    return hashlib.sha256(text.encode()).hexdigest()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(rep: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": rep.get("numpy"),
        "blas": rep.get("blas"),
        "threads": {var: worker_env()[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def collect(workload: Workload, args: argparse.Namespace) -> dict:
    """Run the warm-up and the timed repetitions; return them all."""
    run_started = time.perf_counter()
    panel = run_rep(workload, workload.seeds(None), traced=False)
    seeds = workload.seeds(args.seed)
    reps: list[tuple[bool, dict]] = []
    started = time.perf_counter()
    while True:
        plain = [r for t, r in reps if not t]
        traced = [r for t, r in reps if t]
        if args.trace:
            needed = not plain or len(traced) < MIN_TRACED
            next_traced = len(reps) % 3 != 0  # untraced, traced, traced, ...
        else:
            needed = len(plain) < MIN_PLAIN
            next_traced = False
        elapsed = time.perf_counter() - started
        if reps and not needed:
            typical = statistics.median(r["wall_s"] for _, r in reps)
            late = time.perf_counter() - run_started > LAST_START_S
            if elapsed + typical / 2 > args.seconds or late:
                break
        reps.append((next_traced, run_rep(workload, seeds, next_traced)))
    return {"panel": panel, "seeds": seeds, "reps": reps,
            "measured_s": time.perf_counter() - started}


def check(workload: Workload, runs: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every seed-run of every repetition.

    A seed-run fails when its worker failed, its CSV is missing or invalid,
    or its digest differs from the first timed repetition's.
    """
    attempted = failed = 0
    problems: list[str] = []
    reference: dict = {}
    for i, rep in enumerate([runs["panel"]] + [r for _, r in runs["reps"]]):
        seeds = workload.seeds(None) if i == 0 else runs["seeds"]
        expected = workload.expected_results(seeds)
        attempted += len(expected)
        problems += rep["problems"]
        if rep["problems"]:
            failed += len(expected)
            continue
        for rel in expected:
            entry = rep["files"][rel]
            problems += entry["problems"]
            bad = bool(entry["problems"])
            if i > 0 and not bad:
                want = reference.setdefault(rel, entry["sha256"])
                if entry["sha256"] != want:
                    problems.append(f"{rel}: digest differs between repetitions")
                    bad = True
            failed += bad
    return attempted, failed, problems


def scaled(workload: Workload, rep: dict, seconds: float, key: str = "slowness_ticks") -> float:
    """A time of `rep` in reference-host seconds (see speed.py).

    Untraced repetitions are scaled by the ticks sampled all through them;
    traced ones, which run no ticks, by the slices after them.
    """
    return seconds / combined(rep[key] or rep["slowness_slices"], workload.py_weight)


def end_to_end(workload: Workload, runs: dict) -> dict[str, float]:
    plain = [r for t, r in runs["reps"] if not t and not r["problems"]]
    panel = runs["panel"]
    metrics = {}
    if plain:
        metrics["setup_s"] = statistics.median(scaled(workload, r, r["setup_s"]) for r in plain)
        metrics["run_s"] = statistics.median(scaled(workload, r, r["run_s"]) for r in plain)
        metrics["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in plain)
    if (not panel["problems"] and panel["acquired"]
            and not any(f["problems"] for f in panel["files"].values())):
        metrics["test_auc"] = statistics.fmean(f["test_auc"] for f in panel["files"].values())
        metrics["label_accuracy"] = panel["right_labels"] / panel["acquired"]
        metrics["ask_rate"] = panel["asked"] / panel["acquired"]
    return metrics


def per_layer(workload: Workload, runs: dict, problems: list[str]) -> dict[str, float]:
    ok = [(t, r) for t, r in runs["reps"] if not r["problems"]]
    traced = [r for t, r in ok if t]
    plain = [r for t, r in ok if not t]
    if not traced or not plain:
        return {}
    first = traced[0]["trace"]
    for other in traced[1:]:
        if (other["trace"]["calls"], other["trace"]["counts"]) != (first["calls"], first["counts"]):
            problems.append("traced counts differ between traced repetitions")

    def median_over_traces(value) -> float:
        return statistics.median(value(r, r["trace"]) for r in traced)

    metrics: dict[str, float] = {}
    for name in TRACED_NAMES:
        metrics[f"{name}.calls"] = first["calls"][name]
        metrics[f"{name}.share"] = median_over_traces(lambda r, t: t["self_s"][name] / t["wall_s"])
    for layer in LAYERS:
        names = [n for n in TRACED_NAMES if n.split(".")[0] == layer]
        metrics[f"{layer}.self_s"] = median_over_traces(
            lambda r, t: scaled(workload, r, sum(t["self_s"][n] for n in names)))
        metrics[f"{layer}.share"] = median_over_traces(
            lambda r, t: sum(t["self_s"][n] for n in names) / t["wall_s"])
    counts = first["counts"]
    for name in COUNTS:
        if name != "acquisition.picked":
            metrics[name] = counts[name]
    metrics["acquisition.picked_per_scored"] = counts["acquisition.picked"] / counts["acquisition.scored"]
    # Both sides scaled by the slices, which every repetition runs alike.
    traced_total = statistics.median(scaled(workload, r, r["total_s"], "slowness_slices") for r in traced)
    plain_total = statistics.median(scaled(workload, r, r["total_s"], "slowness_slices") for r in plain)
    metrics["trace.overhead_frac"] = traced_total / plain_total - 1.0
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_frac", "_per_scored")):
        return "ratio"
    if name.endswith((".rows", "_forwarded")):
        return "rows"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/soqal/cli.py", CONFIG) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a soqal checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    runs = collect(workload, args)
    attempted, failed, problems = check(workload, runs)
    if args.trace:
        values = per_layer(workload, runs, problems)
    else:
        values = end_to_end(workload, runs)
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}

    ok = [(t, r) for t, r in runs["reps"] if not r["problems"]]
    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "experiment_seeds": runs["seeds"],
        "repetitions": {"untraced": sum(not t for t, _ in runs["reps"]),
                        "traced": sum(t for t, _ in runs["reps"])},
        "measured_s": runs["measured_s"],
        "untraced_wall_medians_s": {
            key: statistics.median(r[key] for t, r in ok if not t) for key in ("setup_s", "run_s")
        } if any(not t for t, _ in ok) else {},
        "fail_frac": failed / attempted,
        "panel_digest": digest(runs["panel"].get("files", {})),
        "untraced_digests": sorted({digest(r["files"]) for t, r in ok if not t}),
        "traced_digests": sorted({digest(r["files"]) for t, r in ok if t}),
        "problems": problems,
    }
    env = environment(runs["panel"])
    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "summary": summary, "result": result,
                                  "panel": runs["panel"], "reps": runs["reps"]}, indent=1))
    for name, metric in metrics.items():
        print(f"{workload.name:12s} {name:40s} {metric['value']!r:>24} {metric['unit']}")
    print(f"{workload.name:12s} {'fail_frac':40s} {summary['fail_frac']!r:>24} ratio")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"summary": summary}))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
