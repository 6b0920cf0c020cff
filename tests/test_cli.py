import concurrent.futures
import csv
import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import soqal
from soqal.cli import main
from soqal.errors import ConfigError
from soqal.results import read_result_csv

REPO = Path(__file__).resolve().parent.parent
EXAMPLE_CONFIG = str(REPO / "configs" / "example.cfg")

TINY_CONFIG = """
dataset.kind = gaussian-blobs
dataset.n = 120
dataset.separation = 2.5
training.epochs = 6
seeds = 0,1
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def subprocess_env(**extra):
    """This process's environment plus the package's import path and `extra`."""
    env = dict(os.environ, **extra)
    src = str(Path(soqal.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def read_table(path):
    """Rows of a CSV as dicts, skipping `#` comment lines; a quoted cell
    such as "16,32" stays one cell."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def comment_lines(path):
    return [line for line in path.read_text().splitlines() if line.startswith("#")]


def cut_result_row(path, cut):
    """Damage a result file in place, one way per name in CUTS: shorten the
    second epoch row to its first four cells or the final row by its last
    two cells; set one cell (a word in the second epoch row's val_auc or the
    first row's seed, or another seed, config_hash or artifact_version in
    the second epoch row); delete the final row or the third epoch row;
    repeat the second epoch row; or give the `# cfg strategy.S`,
    `# config_hash` or version comment another value."""
    lines = path.read_text().splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]  # rows[0]: header
    cells = {"non-numeric-cell": (2, 4, "abc"), "non-numeric-seed": (1, 0, "x"),
             "later-seed": (2, 0, "7"), "later-hash": (2, -2, "deadbeef0000"),
             "later-version": (2, -1, "0.0.9")}
    comments = {"cfg-line": ("# cfg strategy.S = ", "0.2"),
                "hash-comment": ("# config_hash = ", "deadbeef0000"),
                "version-line": ("# soqal-results v", "0.0.9")}
    if cut in ("no-final-row", "epoch-gap", "epoch-repeat"):
        i = {"no-final-row": rows[-1], "epoch-gap": rows[3], "epoch-repeat": rows[2]}[cut]
        lines[i:i + 1] = [lines[i]] * 2 if cut == "epoch-repeat" else []
    elif cut in comments:
        prefix, value = comments[cut]
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        assert lines[i] != prefix + value + "\n"
        lines[i] = prefix + value + "\n"
    else:
        i = rows[-1] if cut == "final-row" else rows[cells[cut][0]] if cut in cells else rows[2]
        row = lines[i].rstrip("\n").split(",")
        if cut in cells:
            row[cells[cut][1]] = cells[cut][2]
        else:
            row = row[:4] if cut == "epoch-row" else row[:-2]
        lines[i] = ",".join(row) + "\n"
    path.write_text("".join(lines))


CUTS = ["epoch-row", "final-row", "non-numeric-cell", "non-numeric-seed", "no-final-row",
        "epoch-gap", "epoch-repeat", "later-seed", "later-hash", "later-version",
        "cfg-line", "hash-comment", "version-line"]


class TestRun:
    def test_produces_result_and_summary_files(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        assert (out / "results_0.csv").exists()
        assert (out / "results_1.csv").exists()
        summary = read_table(out / "summary.csv")
        assert len(summary) == 1
        assert summary[0]["strategy"] == "soqal"
        assert summary[0]["n_seeds"] == "2"

    def test_five_seeds_five_files_one_summary_row(self, config_path, tmp_path):
        out = tmp_path / "five"
        code = main(
            ["run", "--config", config_path, "--set", "seeds=0,1,2,3,4",
             "--out", str(out)]
        )
        assert code == 0
        files = [p for p in os.listdir(out) if p.startswith("results_")]
        assert len(files) == 5
        assert len(read_table(out / "summary.csv")) == 1

    def test_repeated_strategy_expands_grid(self, config_path, tmp_path):
        out = tmp_path / "grid"
        code = main(
            ["run", "--config", config_path, "--strategy", "full-oracle",
             "--strategy", "no-oracle", "--out", str(out)]
        )
        assert code == 0
        rows = read_table(out / "summary.csv")
        assert [r["strategy"] for r in rows] == ["full-oracle", "no-oracle"]
        assert (out / "full-oracle" / "results_0.csv").exists()
        assert (out / "no-oracle" / "results_0.csv").exists()
        assert float(rows[0]["mean_ask_rate"]) == 1.0
        assert float(rows[1]["mean_ask_rate"]) == 0.0

    def test_strategy_order_does_not_change_the_summary(self, config_path, tmp_path):
        summaries = []
        for order in (["no-oracle", "full-oracle"], ["full-oracle", "no-oracle"]):
            out = tmp_path / "-".join(order)
            argv = ["run", "--config", config_path, "--set", "seeds=0", "--out", str(out)]
            assert main(argv + [arg for name in order for arg in ("--strategy", name)]) == 0
            summaries.append((out / "summary.csv").read_bytes())
        assert summaries[0] == summaries[1]

    def test_one_strategy_summary_carries_that_variants_header(self, config_path, tmp_path):
        out = tmp_path / "one"
        argv = ["run", "--config", config_path, "--strategy", "full-oracle", "--out", str(out)]
        assert main(argv) == 0
        header = comment_lines(out / "results_0.csv")
        assert header[-1].startswith("# stratified_split = ")  # per run, not per config
        assert comment_lines(out / "summary.csv") == header[:-1]
        assert "# cfg strategy.name = full-oracle" in header

    def test_grid_summary_header_holds_only_the_shared_settings(self, config_path, tmp_path):
        out = tmp_path / "two"
        argv = ["run", "--config", config_path, "--strategy", "full-oracle",
                "--strategy", "no-oracle", "--out", str(out)]
        assert main(argv) == 0
        summary = comment_lines(out / "summary.csv")
        for name in ("full-oracle", "no-oracle"):
            header = comment_lines(out / name / "results_0.csv")[:-1]
            assert [line for line in header if line in summary] == summary
            dropped = [line.partition(" = ")[0] for line in header if line not in summary]
            assert dropped == ["# config_hash", "# cfg strategy.name"]

    def test_repeated_strategy_exits_one_before_writing(self, config_path, tmp_path, capsys):
        out = tmp_path / "twice"
        code = main(
            ["run", "--config", config_path, "--strategy", "no-oracle",
             "--strategy", "no-oracle", "--out", str(out)]
        )
        assert code == 1
        dup = os.path.join(str(out), "no-oracle")
        assert f"{dup} and {dup} would run the same config" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_set_key_exits_one(self, config_path, tmp_path):
        code = main(
            ["run", "--config", config_path, "--set", "stratgy=soqal",
             "--out", str(tmp_path / "x")]
        )
        assert code == 1

    def test_config_file_error_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("a = 1\n")
        out = tmp_path / "x"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 1: unknown key: a\n"
        assert not out.exists()

    def test_result_file_cfg_error_names_the_file_once(self, config_path, tmp_path, capsys):
        out = tmp_path / "cfgkey"
        argv = ["run", "--config", config_path, "--out", str(out)]
        assert main(argv) == 0
        target = out / "results_0.csv"
        text = target.read_text()
        target.write_text(text.replace("# cfg strategy.S = ", "# cfg strategy.Z = "))
        capsys.readouterr()
        for again in (argv, ["report", "--in", str(out)]):
            assert main(again) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {target} line ") and "unknown key: strategy.Z" in err
            assert err.count(str(target)) == 1

    def test_runtime_error_exits_two(self, config_path, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(
            ["run", "--config", config_path, "--out", str(blocker / "out")]
        )
        assert code == 2

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", config_path, "--out", str(out_a)])
        main(["run", "--config", config_path, "--out", str(out_b)])
        for name in ("results_0.csv", "results_1.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_completed_files_never_overwritten(self, config_path, tmp_path):
        out = tmp_path / "resume"
        argv = ["run", "--config", config_path, "--out", str(out)]
        assert main(argv) == 0
        target = out / "results_0.csv"
        (out / "results_1.csv").unlink()  # so the resume runs one seed
        before = target.stat()
        assert main(argv) == 0
        after = target.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert (out / "results_1.csv").exists()

    def test_stale_results_stop_the_run(self, tmp_path, capsys):
        out = tmp_path / "stale"
        first = ["run", "--config", EXAMPLE_CONFIG, "--set", "training.epochs=6",
                 "--set", "seeds=0", "--out", str(out)]
        assert main(first) == 0
        old_hash = read_result_csv(str(out / "results_0.csv")).config_hash
        summary = (out / "summary.csv").read_bytes()
        capsys.readouterr()
        second = first + ["--set", "strategy.S=0.9", "--set", "training.epochs=3"]
        assert main(second) == 1
        err = capsys.readouterr().err
        assert "results_0.csv" in err
        hashes = set(re.findall(r"\b[0-9a-f]{12}\b", err))
        assert old_hash in hashes and len(hashes) == 2
        assert "; strategy.S: 0.15 in the file, 0.9 in this run" in err
        assert "; training.epochs: 6 in the file, 3 in this run;" in err
        assert (out / "summary.csv").read_bytes() == summary

    def test_stale_variant_stops_the_grid_before_any_run(self, config_path, tmp_path):
        out = tmp_path / "variants"
        grid = ["run", "--config", config_path, "--strategy", "full-oracle",
                "--strategy", "no-oracle", "--out", str(out)]
        assert main(grid + ["--set", "seeds=0"]) == 0
        (out / "full-oracle" / "results_0.csv").unlink()
        assert main(grid) == 1  # no-oracle/results_0.csv is from seeds=0
        assert not list((out / "full-oracle").iterdir())

    def test_results_from_another_artifact_version_stop_the_run(
        self, config_path, tmp_path
    ):
        out = tmp_path / "version"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        target = out / "results_1.csv"
        text = target.read_text()
        target.write_text(text.replace(f",{soqal.__version__}\n", ",0.0.0\n"))
        assert main(["run", "--config", config_path, "--out", str(out)]) == 1

    def test_result_file_of_another_seed_stops_the_run(self, config_path, tmp_path, capsys):
        out = tmp_path / "reseeded"
        argv = ["run", "--config", config_path, "--out", str(out)]
        assert main(argv) == 0
        summary = (out / "summary.csv").read_bytes()
        (out / "results_0.csv").write_bytes((out / "results_1.csv").read_bytes())
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{out / 'results_0.csv'} holds seed 1 " in err
        assert "not seed 0 " in err
        assert (out / "summary.csv").read_bytes() == summary

    @pytest.mark.parametrize("cut", CUTS)
    def test_short_result_row_exits_one_naming_the_file(
        self, config_path, tmp_path, capsys, cut
    ):
        out = tmp_path / "short"
        argv = ["run", "--config", config_path, "--out", str(out)]
        assert main(argv) == 0
        target = out / "results_1.csv"
        cut_result_row(target, cut)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {target} line ")

    def test_unknown_oracle_kind_exits_one_before_writing(self, config_path, tmp_path):
        out = tmp_path / "bogus"
        code = main(["run", "--config", config_path, "--set", "oracle.kind=bogus",
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_csv_source_without_path_exits_one_before_writing(self, config_path, tmp_path):
        out = tmp_path / "nocsv"
        code = main(["run", "--config", config_path, "--set", "dataset.source=csv",
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "text", ["label\na\nb\n", "x1,label\n1.0,a\n2.0,a\n"], ids=["label-only", "one-class"]
    )
    def test_unusable_csv_exits_one_naming_the_file(self, tmp_path, capsys, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(f"dataset.source = csv\ndataset.csv_path = {data}\nseeds = 0\n")
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {data}: ")

    @pytest.mark.parametrize(
        "settings,key",
        [
            (["dataset.train_frac=0.8", "dataset.val_frac=0.2", "dataset.test_frac=0.0"],
             "dataset.test_frac"),
            (["dataset.features=0"], "dataset.features"),
            (["dataset.kind=ring-vs-blob", "dataset.classes=3"], "dataset.classes"),
            (["seeds=3,3"], "seeds"),
            (["seeds=-1"], "seeds"),
            (["dataset.separation=nan"], "dataset.separation"),
            (["dataset.separation=inf"], "dataset.separation"),
            (["training.learning_rate=inf"], "training.learning_rate"),
            (["dataset.n=19"], "dataset.n"),
            (["dataset.train_frac=0.5"], "dataset.train_frac/val_frac/test_frac"),
            (["strategy.epsilon.d=0"], "strategy.epsilon.d"),
            (["active_learning.init_labelled_frac=0"], "active_learning.init_labelled_frac"),
            (["network.hidden="], "network.hidden"),
            (["network.hidden=0"], "network.hidden"),
            (["network.hidden=32,0"], "network.hidden"),
            (["network.hidden=-3"], "network.hidden"),
            (["dataset.train_frac=0.00001", "dataset.val_frac=0.5", "dataset.test_frac=0.49999"],
             "dataset.train_frac"),
            # Finite, but the top class's offset, separation * (classes - 1), is not.
            (["dataset.kind=noisy-sine-classes", "dataset.classes=3", "dataset.separation=1e308"],
             "dataset.separation"),
            (["network.dropout=1.0"], "network.dropout"),
        ],
        ids=["zero-fraction", "no-features", "ring-three-classes", "repeated-seed",
             "negative-seed", "nan-separation", "inf-separation", "inf-learning-rate",
             "too-few-instances", "fractions-not-summing-to-one", "zero-epsilon-decay",
             "zero-init-labelled", "no-hidden-layer", "zero-width-layer",
             "zero-width-second-layer", "negative-width-layer", "zero-row-train-split",
             "sine-offset-overflow", "dropout-one"],
    )
    def test_out_of_range_value_exits_one_before_writing(
        self, config_path, tmp_path, capsys, settings, key
    ):
        out = tmp_path / "bad"
        argv = ["run", "--config", config_path, "--out", str(out)]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == 1
        assert f"invalid value for key: {key}" in capsys.readouterr().err
        assert not out.exists()

    # Every character `str.splitlines` splits on, inside a text value, would
    # split the value's `# cfg` line when the result file is read back.
    @pytest.mark.parametrize("key", ["dataset.label_column", "dataset.csv_path"])
    @pytest.mark.parametrize("char", list("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                             ids=lambda char: f"U+{ord(char):04X}")
    def test_text_value_with_a_line_break_exits_one_before_writing(
        self, config_path, tmp_path, capsys, key, char
    ):
        out = tmp_path / "broken"
        assert main(["run", "--config", config_path, "--set", f"{key}=a{char}b",
                     "--out", str(out)]) == 1
        assert f"invalid value for key: {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_separation_too_large_to_standardize_exits_one(self, config_path, tmp_path, capsys):
        out = tmp_path / "huge"
        code = main(["run", "--config", config_path, "--set", "seeds=0",
                     "--set", "dataset.separation=1e200", "--out", str(out)])
        assert code == 1
        assert "error: feature 0 is too large to standardize" in capsys.readouterr().err
        assert not (out / "results_0.csv").exists()

    def test_csv_column_too_large_to_standardize_exits_one(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,label\n" + "".join(
            f"{i % 7}.5,{i % 5}e200,{'ab'[i % 2]}\n" for i in range(60)))
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(f"dataset.source = csv\ndataset.csv_path = {data}\nseeds = 0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: feature 1 is too large to standardize" in capsys.readouterr().err
        assert not (out / "results_0.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow warns first
    def test_diverged_training_exits_two_naming_the_epoch(self, config_path, tmp_path, capsys):
        out = tmp_path / "diverged"
        code = main(["run", "--config", config_path, "--set", "seeds=0",
                     "--set", "training.learning_rate=1e308", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: training diverged at epoch 1:")
        assert "lower training.learning_rate" in err
        assert not (out / "results_0.csv").exists()

    def test_set_overrides_an_invalid_file_value(self, tmp_path):
        path = tmp_path / "wide.cfg"
        path.write_text(TINY_CONFIG + "strategy.S = 1.5\nseeds = 0\n")
        out = tmp_path / "fixed"
        code = main(["run", "--config", str(path), "--set", "strategy.S=0.2",
                     "--out", str(out)])
        assert code == 0
        assert read_result_csv(str(out / "results_0.csv")).config.strategy.hellinger_threshold == 0.2

    def test_summary_matches_recomputation_from_seed_files(self, config_path, tmp_path):
        out = tmp_path / "sum"
        main(["run", "--config", config_path, "--set", "seeds=0,1,2", "--out", str(out)])
        files = [read_result_csv(str(out / f"results_{s}.csv")) for s in (0, 1, 2)]
        summary = read_table(out / "summary.csv")[0]
        assert float(summary["mean_test_auc"]) == pytest.approx(
            np.mean([f.test_auc for f in files]), abs=1e-12
        )
        assert float(summary["std_test_auc"]) == pytest.approx(
            np.std([f.test_auc for f in files]), abs=1e-12
        )
        assert float(summary["mean_ask_rate"]) == pytest.approx(
            np.mean([f.final_ask_rate for f in files]), abs=1e-12
        )

    def test_parallel_jobs_match_sequential(self, config_path, tmp_path):
        cases = [
            (["run"], 1),
            (["run", "--strategy", "full-oracle", "--strategy", "no-oracle"], 2),
            # A sweep's variant configs cross into the pool's workers by pickle.
            (["sweep", "--param", "oracle.gamma", "--values", "0.1,0.3"], 2),
        ]
        for case, (args, variants) in enumerate(cases):
            argv = [*args, "--config", config_path]
            seq, par = tmp_path / f"seq{case}", tmp_path / f"par{case}"
            assert main(argv + ["--out", str(seq)]) == 0
            assert main(argv + ["--jobs", "2", "--out", str(par)]) == 0
            names = sorted(str(p.relative_to(seq)) for p in seq.rglob("*.csv"))
            assert len(names) == 1 + 2 * variants  # summary + results
            assert names == sorted(str(p.relative_to(par)) for p in par.rglob("*.csv"))
            for name in names:
                assert (seq / name).read_bytes() == (par / name).read_bytes()

    def test_pool_has_no_more_workers_than_pending_seeds(self, config_path, tmp_path, monkeypatch):
        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        # The parallel branch imports the pool from concurrent.futures when it runs.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert main(["run", "--config", config_path, "--jobs", "64",
                     "--out", str(tmp_path / "capped")]) == 0
        assert started == [2]
        started.clear()
        assert main(["run", "--config", config_path, "--jobs", "64",
                     "--strategy", "full-oracle", "--strategy", "no-oracle",
                     "--out", str(tmp_path / "grid")]) == 0
        # One pool for the 2 strategies x 2 seeds, one worker per seed: each
        # seed's strategies share their prefix in one task.
        assert started == [2]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_one_before_writing(self, config_path, tmp_path, capsys, jobs):
        out = tmp_path / "nojobs"
        assert main(["run", "--config", config_path, "--jobs", jobs, "--out", str(out)]) == 1
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_forward_block_size_does_not_change_results(self, tmp_path, monkeypatch):
        """Two block sizes write the same files for one tiny config (120
        rows, hidden 32,32, T = 7, two seeds).

        Another block size moves posterior rows by ulps; this passes because
        those ulps change no pick here.  README claims no independence from
        MC_BLOCK_ROWS in general, and this test checks only this config.
        """
        cfg = tmp_path / "dropout.cfg"
        cfg.write_text(TINY_CONFIG + "network.dropout = 0.4\nactive_learning.T = 7\n")
        digests = []
        for block_rows in (7, 120 * 7 + 1):  # one instance per block; one block per pool
            monkeypatch.setattr(soqal.acquisition, "MC_BLOCK_ROWS", block_rows)
            out = tmp_path / f"rows{block_rows}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            digests.append(
                [hashlib.sha256((out / f"results_{s}.csv").read_bytes()).digest() for s in (0, 1)]
            )
        assert digests[0] == digests[1]

    def test_blas_thread_count_does_not_change_results(self, tmp_path):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(
            "dataset.n = 400\ndataset.classes = 3\ndataset.features = 3\n"
            "network.hidden = 128,128\ntraining.epochs = 10\nseeds = 0\n"
        )
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "soqal.cli", "run", "--config", str(cfg),
                 "--out", str(out)],
                capture_output=True,
                text=True,
                env=subprocess_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert result.returncode == 0, result.stderr
            digests.append(hashlib.sha256((out / "results_0.csv").read_bytes()).digest())
        assert digests[0] == digests[1]


# sha256[:12] of results_<seed>.csv, written on this numpy version.
PINNED_NUMPY = "2.4.6"
PINNED_RESULTS = {
    "bald-soqal": (
        "active_learning.acquisition = bald-mcd\nstrategy.name = soqal\n",
        {0: "d7dde5aaaadf", 1: "a2bfc606fa12"},
    ),
    "nnflip-entropy-epsilon": (
        "active_learning.acquisition = entropy\nstrategy.name = epsilon-greedy\n"
        "oracle.kind = nn-flip\noracle.gamma = 0.5\n",
        {0: "4d078cb9eeb1", 1: "5636423894b1"},
    ),
    # 336 labelled rows: Network.predict's gate refit runs 320 rows and then
    # a 16-row last chunk.  One call over all rows, or PREDICT_ROWS = 256 or
    # 640, writes another last digit of d_hellinger in both files.
    "chunked-pool": (
        "dataset.n = 800\nactive_learning.init_labelled_frac = 0.7\n",
        {0: "946c674eef83", 1: "9a9fdf6088b4"},
    ),
}
# sha256[:12] of every CSV the benchmark's workloads write on their fixed
# seed panel (perfbench/workloads.py), on the same numpy version.
PINNED_PANELS = {
    "pool-bald": {"results_0.csv": "2062b4047407", "summary.csv": "0dee2c146333"},
    "train-wide": {"results_0.csv": "d27646b1c8bb", "summary.csv": "a4d6bdc806af"},
    "grid-nnflip": {
        "askrate.csv": "7b3d5d903903",
        "curves.csv": "108c53876420",
        "summary.csv": "7b3d5d903903",
        "soqal/results_0.csv": "546dd8fda143",
        "soqal/results_1.csv": "95e45eccd4cd",
        "entropy-response/results_0.csv": "ae8971457a04",
        "entropy-response/results_1.csv": "a8471da18196",
        "epsilon-greedy/results_0.csv": "d6783a018167",
        "epsilon-greedy/results_1.csv": "a44649d0d2f5",
    },
}


def benchmark_workloads():
    """perfbench's workload table, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


def csv_digests(directory):
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        for path in directory.rglob("*.csv")
    }


class TestPinnedResults:
    @pytest.mark.skipif(
        np.__version__ != PINNED_NUMPY,
        reason=f"digests are pinned on numpy {PINNED_NUMPY}, whose random streams "
        f"and float rounding they record; this is numpy {np.__version__}",
    )
    def test_result_digests_match_pins(self, tmp_path, monkeypatch):
        found = {}
        for name, (settings, _) in PINNED_RESULTS.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(TINY_CONFIG + "training.epochs = 10\n" + settings)
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            found[name] = {
                seed: hashlib.sha256((out / f"results_{seed}.csv").read_bytes()).hexdigest()[:12]
                for seed in (0, 1)
            }
        pinned = {name: digests for name, (_, digests) in PINNED_RESULTS.items()}
        monkeypatch.chdir(REPO)  # the workloads name the config relative to the root
        for name, workload in benchmark_workloads().items():
            out = tmp_path / "panel" / name
            assert main(workload.run_argv(workload.seeds(None), str(out))) == 0
            if workload.report:
                assert main(["report", "--in", str(out)]) == 0
            found[f"panel {name}"] = csv_digests(out)
            pinned[f"panel {name}"] = PINNED_PANELS[name]
        assert found == pinned, (
            "result bytes changed: if intended, bump artifact_version and update "
            "PINNED_RESULTS and PINNED_PANELS; otherwise a change broke reproducibility"
        )


class TestResultFileSchema:
    def test_per_seed_file_contents(self, config_path, tmp_path):
        out = tmp_path / "schema"
        main(["run", "--config", config_path, "--out", str(out)])
        parsed = read_result_csv(str(out / "results_0.csv"))
        assert parsed.seed == 0
        assert len(parsed.epoch_rows) == 6
        assert np.isfinite(parsed.test_auc)
        assert parsed.config.strategy.name == "soqal"
        assert parsed.config.training.epochs == 6
        rows = read_table(out / "results_0.csv")
        assert all(r["config_hash"] == parsed.config_hash for r in rows)
        assert all(r["artifact_version"] for r in rows)
        assert rows[-1]["epoch"] == "final"

    @pytest.mark.parametrize(
        "edit,past_end,message",
        [
            ("drop", 1, "expected '0,final,"),
            ("repeat", 0, "expected end of file, found '0,final,"),
            ("append-epoch", 0, "expected end of file, found '0,6,"),
        ],
        ids=["drop-1-no final row", "repeat-0-row after the final row",
             "append-epoch-0-row after the final row"],
    )
    def test_final_row_must_close_the_file_once(
        self, config_path, tmp_path, edit, past_end, message
    ):
        """The error names the line after the last row when the final row is
        missing, else the first row after it."""
        out = tmp_path / "final"
        main(["run", "--config", config_path, "--set", "seeds=0", "--out", str(out)])
        path = out / "results_0.csv"
        lines = path.read_text().splitlines(keepends=True)
        final, last_epoch = lines[-1], lines[-2]
        lines = {"drop": lines[:-1], "repeat": lines + [final],
                 "append-epoch": lines + [last_epoch]}[edit]
        path.write_text("".join(lines))
        with pytest.raises(ConfigError) as exc:
            read_result_csv(str(path))
        assert str(exc.value).startswith(f"{path} line {len(lines) + past_end}: {message}")


class TestSweep:
    def test_sweep_over_threshold(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", config_path, "--param", "strategy.S",
             "--values", "0.10,0.4", "--out", str(out)]
        )
        assert code == 0
        assert (out / "sweep_strategy.S_0.10" / "results_0.csv").exists()
        rows = read_table(out / "sweep_summary.csv")
        # The swept setting's column is spelled as in the `# cfg` lines.
        assert list(rows[0])[:2] == ["strategy", "strategy.S"]
        assert [(r["strategy"], r["strategy.S"]) for r in rows] == [
            ("soqal", "0.1"), ("soqal", "0.4")]
        for row in rows:
            assert row["n_seeds"] == "2"
            assert 0.0 <= float(row["mean_ask_rate"]) <= 1.0
        header = comment_lines(out / "sweep_summary.csv")
        assert not any(line.startswith("# cfg strategy.S = ") for line in header)
        assert "# cfg dataset.n = 120" in header

    def test_value_with_a_path_separator_exits_one_before_writing(
        self, config_path, tmp_path, capsys
    ):
        """A value names a directory inside --out, so one holding a separator
        could write its variant outside it."""
        out = tmp_path / "sw" / "out"
        value = os.path.join("x", "..", "..", "..", "escaped")
        assert main(["sweep", "--config", config_path, "--param", "dataset.csv_path",
                     "--values", f"{value},y", "--out", str(out)]) == 1
        assert repr(value) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]

    def test_one_value_sweep_names_the_value_in_its_header(self, config_path, tmp_path):
        out = tmp_path / "one"
        assert main(["sweep", "--config", config_path, "--param", "strategy.S",
                     "--values", "0.10", "--out", str(out)]) == 0
        rows = read_table(out / "sweep_summary.csv")
        assert [list(r)[:2] for r in rows] == [["strategy", "n_seeds"]]
        header = comment_lines(out / "sweep_summary.csv")
        assert "# cfg strategy.S = 0.1" in header
        assert f"# config_hash = {rows[0]['config_hash']}" in header

    def test_threshold_grid_full_width(self, config_path, tmp_path):
        out = tmp_path / "seven"
        code = main(
            ["sweep", "--config", config_path, "--param", "strategy.S",
             "--values", "0.1,0.125,0.15,0.175,0.2,0.3,0.4", "--out", str(out)]
        )
        assert code == 0
        assert len(read_table(out / "sweep_summary.csv")) == 7

    def test_gamma_grid(self, tmp_path):
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text(TINY_CONFIG + "oracle.kind = random-flip\n")
        out = tmp_path / "gamma"
        code = main(
            ["sweep", "--config", str(cfg), "--param", "oracle.gamma",
             "--values", "0.05,0.1,0.2,0.4,0.8", "--out", str(out)]
        )
        assert code == 0
        rows = read_table(out / "sweep_summary.csv")
        assert [r["oracle.gamma"] for r in rows] == ["0.05", "0.1", "0.2", "0.4", "0.8"]

    def test_init_labelled_fraction_sweep(self, config_path, tmp_path):
        out = tmp_path / "init"
        code = main(
            ["sweep", "--config", config_path, "--param", "active_learning.init_labelled_frac",
             "--values", "0.05,0.2", "--out", str(out)]
        )
        assert code == 0
        rows = read_table(out / "sweep_summary.csv")
        assert len(rows) == 2
        assert rows[0]["config_hash"] != rows[1]["config_hash"]

    def test_values_with_the_same_setting_exit_one_before_writing(
        self, config_path, tmp_path, capsys
    ):
        out = tmp_path / "same"
        code = main(
            ["sweep", "--config", config_path, "--param", "strategy.S",
             "--values", "0.1,0.10", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert os.path.join(str(out), "sweep_strategy.S_0.1") + " and " in err
        assert os.path.join(str(out), "sweep_strategy.S_0.10") + " would run the same config" in err
        assert not out.exists()

    def test_unknown_key_exits_one_before_writing(self, config_path, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(
            ["sweep", "--config", config_path, "--param", "S",
             "--values", "0.1,0.2", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: unknown key: S\n"
        assert not out.exists()

    def test_strategy_name_sweep_gives_a_row_per_strategy(self, config_path, tmp_path):
        out = tmp_path / "names"
        assert main(["sweep", "--config", config_path, "--param", "strategy.name",
                     "--values", "full-oracle,no-oracle", "--out", str(out)]) == 0
        assert (out / "sweep_strategy.name_no-oracle" / "results_0.csv").exists()
        rows = read_table(out / "sweep_summary.csv")
        assert [(r["strategy"], float(r["mean_ask_rate"])) for r in rows] == [
            ("full-oracle", 1.0), ("no-oracle", 0.0)]
        # `run --strategy` spells the same sweep: the same bytes in `<out>/<name>`.
        run_out = tmp_path / "run"
        assert main(["run", "--config", config_path, "--strategy", "full-oracle",
                     "--strategy", "no-oracle", "--out", str(run_out)]) == 0
        for name in ("full-oracle", "no-oracle"):
            for seed in (0, 1):
                result = f"results_{seed}.csv"
                assert (run_out / name / result).read_bytes() == (
                    out / f"sweep_strategy.name_{name}" / result).read_bytes()
        assert (run_out / "summary.csv").read_bytes() == (out / "sweep_summary.csv").read_bytes()

    def test_list_valued_key_sweeps_values_separated_by_semicolons(self, config_path, tmp_path):
        out = tmp_path / "hidden"
        assert main(["sweep", "--config", config_path, "--param", "network.hidden",
                     "--values", "32,32; 16,32", "--out", str(out)]) == 0
        assert (out / "sweep_network.hidden_16,32" / "results_0.csv").exists()
        rows = read_table(out / "sweep_summary.csv")
        assert [r["network.hidden"] for r in rows] == ["16,32", "32,32"]

    def test_empty_values_exit_one(self, config_path, tmp_path):
        code = main(
            ["sweep", "--config", config_path, "--param", "strategy.S", "--values", " ",
             "--out", str(tmp_path / "s")]
        )
        assert code == 1


class TestReport:
    def test_curves_and_askrate(self, config_path, tmp_path):
        out = tmp_path / "rep"
        main(["run", "--config", config_path, "--strategy", "full-oracle",
              "--strategy", "no-oracle", "--out", str(out)])
        assert main(["report", "--in", str(out)]) == 0
        curves = read_table(out / "curves.csv")
        assert len(curves) == 12  # 6 epochs x 2 strategies
        assert {r["strategy"] for r in curves} == {"full-oracle", "no-oracle"}
        # One row per config hash, built as the grid summary builds its rows.
        assert (out / "askrate.csv").read_bytes() == (out / "summary.csv").read_bytes()

    def test_two_dataset_kinds_give_two_labelled_rows(self, config_path, tmp_path):
        out = tmp_path / "kinds"
        for kind in ("gaussian-blobs", "noisy-sine-classes"):
            assert main(["run", "--config", config_path, "--set", "seeds=0",
                         "--set", f"dataset.kind={kind}", "--out", str(out / kind)]) == 0
        assert main(["report", "--in", str(out)]) == 0
        rates = read_table(out / "askrate.csv")
        assert [(r["strategy"], r["dataset.kind"], r["n_seeds"]) for r in rates] == [
            ("soqal", "gaussian-blobs", "1"), ("soqal", "noisy-sine-classes", "1")]
        for kind, row in zip(("gaussian-blobs", "noisy-sine-classes"), rates):
            assert row["config_hash"] == read_table(out / kind / "summary.csv")[0]["config_hash"]
        curves = read_table(out / "curves.csv")
        assert [r["dataset.kind"] for r in curves] == ["gaussian-blobs"] * 6 + ["noisy-sine-classes"] * 6
        text = (out / "askrate.csv").read_text() + (out / "curves.csv").read_text()
        assert "mixed" not in text
        assert "# cfg dataset.kind" not in text and "# config_hash" not in text
        assert "# cfg dataset.n = 120" in comment_lines(out / "askrate.csv")

    def test_threshold_sweep_gives_the_sweep_summary_rates(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        # Typed in reverse: rows follow the values, not the command line.
        assert main(["sweep", "--config", config_path, "--param", "strategy.S",
                     "--values", "0.4,0.05", "--out", str(out)]) == 0
        assert main(["report", "--in", str(out)]) == 0
        assert [r["strategy.S"] for r in read_table(out / "askrate.csv")] == ["0.05", "0.4"]
        assert (out / "askrate.csv").read_bytes() == (out / "sweep_summary.csv").read_bytes()

    def test_numeric_sweep_rows_sort_as_numbers_not_as_paths(self, config_path, tmp_path):
        out = tmp_path / "sweep"  # sweep_..._10 sorts before sweep_..._5
        assert main(["sweep", "--config", config_path, "--param", "active_learning.period",
                     "--values", "10,5", "--out", str(out)]) == 0
        assert main(["report", "--in", str(out)]) == 0
        assert [r["active_learning.period"] for r in read_table(out / "askrate.csv")] == ["5", "10"]
        assert (out / "askrate.csv").read_bytes() == (out / "sweep_summary.csv").read_bytes()

    def test_seeds_average_in_one_order_in_run_and_report(self, config_path, tmp_path):
        out = tmp_path / "seeds"  # config order, path order and seed order all differ
        assert main(["run", "--config", config_path, "--set", "seeds=12,2,7,1",
                     "--out", str(out)]) == 0
        assert main(["report", "--in", str(out)]) == 0
        assert (out / "askrate.csv").read_bytes() == (out / "summary.csv").read_bytes()

    @pytest.mark.parametrize("cut", CUTS)
    def test_short_result_row_exits_one_naming_the_file(
        self, config_path, tmp_path, capsys, cut
    ):
        out = tmp_path / "short"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        target = out / "results_0.csv"
        cut_result_row(target, cut)
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {target} line ")

    def test_copied_result_file_exits_one_naming_both(self, config_path, tmp_path, capsys):
        out = tmp_path / "copied"
        assert main(["run", "--config", config_path, "--out", str(out / "a")]) == 0
        (out / "b").mkdir()
        original, copy = out / "a" / "results_0.csv", out / "b" / "results_0.csv"
        copy.write_bytes(original.read_bytes())
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 1
        assert f"error: {original} and {copy} both hold seed 0 " in capsys.readouterr().err
        assert not (out / "curves.csv").exists() and not (out / "askrate.csv").exists()

    def test_empty_directory_exits_one(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["report", "--in", str(empty)]) == 1


class TestEntryPoint:
    def test_module_invocation(self, config_path, tmp_path):
        out = tmp_path / "module"
        result = subprocess.run(
            [sys.executable, "-m", "soqal.cli", "run", "--config", config_path,
             "--out", str(out)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert result.returncode == 0, result.stderr
        assert (out / "summary.csv").exists()

    def test_package_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == soqal.__version__

    def test_bad_usage_exits_one(self):
        assert main(["run"]) == 1  # missing --config

    def test_serial_run_and_report_load_neither_the_pool_nor_masked_arrays(
        self, config_path, tmp_path
    ):
        # Modules that `import numpy, numpy.random` loads itself do not count.
        out = str(tmp_path / "lean")
        script = "\n".join([
            "import sys",
            "import numpy, numpy.random",
            "before = set(sys.modules)",
            "from soqal.cli import main",
            f"assert main(['run', '--config', {config_path!r}, '--out', {out!r},",
            "             '--set', 'oracle.kind=nn-flip', '--set', 'oracle.gamma=0.2']) == 0",
            f"assert main(['report', '--in', {out!r}]) == 0",
            "print(*sorted(set(sys.modules) - before))",
        ])
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=subprocess_env())
        assert result.returncode == 0, result.stderr
        loaded = set(result.stdout.split())
        assert {"soqal.engine", "soqal.oracle"} <= loaded
        unused = {"numpy.ma", "multiprocessing", "concurrent.futures.process", "csv"}
        assert not loaded & unused
