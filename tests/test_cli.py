import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import soqal
from soqal.cli import main
from soqal.results import read_result_csv

EXAMPLE_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "example.cfg")

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
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
            else:
                rows.append(dict(zip(header, cells)))
    return rows


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

    def test_unknown_set_key_exits_one(self, config_path, tmp_path):
        code = main(
            ["run", "--config", config_path, "--set", "stratgy=soqal",
             "--out", str(tmp_path / "x")]
        )
        assert code == 1

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
        main(["run", "--config", config_path, "--out", str(out)])
        target = out / "results_0.csv"
        marked = target.read_text() + "# sentinel\n"
        target.write_text(marked)
        main(["run", "--config", config_path, "--out", str(out)])
        assert target.read_text() == marked

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

    def test_unknown_oracle_kind_exits_one_before_writing(self, config_path, tmp_path):
        out = tmp_path / "bogus"
        code = main(["run", "--config", config_path, "--set", "oracle.kind=bogus",
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()

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

    def test_seed_base_offsets_all_seeds(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SOQAL_SEED_BASE", "100")
        out = tmp_path / "offset"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        assert (out / "results_100.csv").exists()
        assert (out / "results_101.csv").exists()

    def test_parallel_jobs_match_sequential(self, config_path, tmp_path):
        seq, par = tmp_path / "seq", tmp_path / "par"
        main(["run", "--config", config_path, "--out", str(seq)])
        main(["run", "--config", config_path, "--jobs", "2", "--out", str(par)])
        for name in ("results_0.csv", "results_1.csv"):
            assert (seq / name).read_bytes() == (par / name).read_bytes()

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


class TestResultFileSchema:
    def test_per_seed_file_contents(self, config_path, tmp_path):
        out = tmp_path / "schema"
        main(["run", "--config", config_path, "--out", str(out)])
        parsed = read_result_csv(str(out / "results_0.csv"))
        assert parsed.seed == 0
        assert len(parsed.epoch_rows) == 6
        assert np.isfinite(parsed.test_auc)
        assert parsed.cfg["strategy.name"] == "soqal"
        assert parsed.cfg["training.epochs"] == "6"
        rows = read_table(out / "results_0.csv")
        assert all(r["config_hash"] == parsed.config_hash for r in rows)
        assert all(r["artifact_version"] for r in rows)
        assert rows[-1]["epoch"] == "final"


class TestSweep:
    def test_sweep_over_threshold(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", config_path, "--param", "S",
             "--values", "0.1,0.4", "--out", str(out)]
        )
        assert code == 0
        rows = read_table(out / "sweep_summary.csv")
        assert [(r["param"], r["value"]) for r in rows] == [("S", "0.1"), ("S", "0.4")]
        for row in rows:
            assert 0.0 <= float(row["mean_ask_rate"]) <= 1.0

    def test_threshold_grid_full_width(self, config_path, tmp_path):
        out = tmp_path / "seven"
        code = main(
            ["sweep", "--config", config_path, "--param", "S",
             "--values", "0.1,0.125,0.15,0.175,0.2,0.3,0.4", "--out", str(out)]
        )
        assert code == 0
        assert len(read_table(out / "sweep_summary.csv")) == 7

    def test_gamma_grid(self, tmp_path):
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text(TINY_CONFIG + "oracle.kind = random-flip\n")
        out = tmp_path / "gamma"
        code = main(
            ["sweep", "--config", str(cfg), "--param", "gamma",
             "--values", "0.05,0.1,0.2,0.4,0.8", "--out", str(out)]
        )
        assert code == 0
        rows = read_table(out / "sweep_summary.csv")
        assert [r["value"] for r in rows] == ["0.05", "0.1", "0.2", "0.4", "0.8"]

    def test_init_labelled_fraction_sweep(self, config_path, tmp_path):
        out = tmp_path / "init"
        code = main(
            ["sweep", "--config", config_path, "--param", "init_labelled_frac",
             "--values", "0.05,0.2", "--out", str(out)]
        )
        assert code == 0
        rows = read_table(out / "sweep_summary.csv")
        assert len(rows) == 2
        assert rows[0]["config_hash"] != rows[1]["config_hash"]

    def test_non_sweepable_param_exits_one(self, config_path, tmp_path):
        code = main(
            ["sweep", "--config", config_path, "--param", "training.epochs",
             "--values", "1,2", "--out", str(tmp_path / "s")]
        )
        assert code == 1

    def test_empty_values_exit_one(self, config_path, tmp_path):
        code = main(
            ["sweep", "--config", config_path, "--param", "S", "--values", " ",
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
        rates = read_table(out / "askrate.csv")
        assert {r["strategy"] for r in rates} == {"full-oracle", "no-oracle"}
        for row in rates:
            assert 0.0 <= float(row["mean_ask_rate"]) <= 1.0
        assert all(r["noise"] == "noise-free" for r in rates)

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

    def test_bad_usage_exits_one(self):
        assert main(["run"]) == 1  # missing --config
