"""The benchmark's workloads: `--set` overrides on the shipped config.

Plain Python with no third-party imports, so the worker can read it before
its timed region starts.
"""

from __future__ import annotations

from dataclasses import dataclass

CONFIG = "configs/example.cfg"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: tuple[str, ...]
    strategies: tuple[str, ...]  # empty: the config's own strategy
    n_seeds: int  # experiment seeds per repetition
    report: bool  # also run `soqal report` on the output
    # Weight of the Python kernel in the host slowness (speed.py): about the
    # share of the workload's time spent interpreting Python and dispatching
    # small numpy calls rather than in wide BLAS products.
    py_weight: float

    def seeds(self, bench_seed: int | None) -> tuple[int, ...]:
        """Experiment seeds of one repetition.

        `None` gives the fixed panel 0..n_seeds-1, whose outputs (and so the
        quality metrics and CSV digests) are the same on every run.  A
        benchmark seed gives a block of experiment seeds of its own, disjoint
        from the panel and from every other benchmark seed.
        """
        if bench_seed is None:
            return tuple(range(self.n_seeds))
        base = 1000 + bench_seed * self.n_seeds
        return tuple(range(base, base + self.n_seeds))

    def expected_results(self, seeds: tuple[int, ...]) -> list[str]:
        """Result CSV paths, relative to the output directory, one per seed-run."""
        if len(self.strategies) > 1:
            return [f"{s}/results_{seed}.csv" for s in self.strategies for seed in seeds]
        return [f"results_{seed}.csv" for seed in seeds]

    def run_argv(self, seeds: tuple[int, ...], out_dir: str) -> list[str]:
        argv = ["run", "--config", CONFIG, "--out", out_dir]
        for setting in self.overrides + (f"seeds={','.join(map(str, seeds))}",):
            argv += ["--set", setting]
        for strategy in self.strategies:
            argv += ["--strategy", strategy]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pool-bald",
            why="shipped config; MC-dropout BALD acquisition over the pool is most of the wall time",
            overrides=(),
            strategies=(),
            n_seeds=1,
            report=False,
            py_weight=1.0,
        ),
        Workload(
            name="train-wide",
            why="wide net, large labelled pool, random acquisition: training dominates, acquisition is bypassed",
            overrides=(
                "dataset.n=3000",
                "dataset.classes=4",
                "dataset.features=16",
                "network.hidden=256,256",
                "active_learning.acquisition=random",
                "active_learning.init_labelled_frac=0.5",
                "active_learning.period=2",
                "active_learning.b=0.05",
                "training.epochs=40",
            ),
            strategies=(),
            n_seeds=1,
            report=False,
            py_weight=0.5,
        ),
        Workload(
            name="grid-nnflip",
            why="three-strategy grid with the nn-flip oracle, entropy scoring, CSV round trip and report",
            overrides=(
                "dataset.n=1500",
                "dataset.classes=3",
                "dataset.features=8",
                "oracle.kind=nn-flip",
                "oracle.gamma=0.3",
                "active_learning.acquisition=entropy",
                "training.epochs=30",
            ),
            strategies=("soqal", "entropy-response", "epsilon-greedy"),
            n_seeds=2,
            report=True,
            py_weight=1.0,
        ),
    )
}
