"""Function wrappers installed on soqal from outside: the set-up probe and
the span tracer.

`engine` and `cli` bind most callees with from-imports, so a wrapper must
replace every soqal namespace that holds the original, not only the module
that defines it.  Methods are replaced on their class.  `Patches.restore`
puts every original back and reports whether each lookup again yields it.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

# (reported name, defining module, attribute or Class.method).  The layer is
# the part of the name before the first dot.  bald_mcd and
# predictive_entropy are both acquisition scoring, so they share one name.
TRACED = [
    ("acquisition.mc_posteriors", "soqal.acquisition", "mc_posteriors"),
    ("acquisition.score", "soqal.acquisition", "bald_mcd"),
    ("acquisition.score", "soqal.acquisition", "predictive_entropy"),
    ("acquisition.select_top_b", "soqal.acquisition", "select_top_b"),
    ("network.train_epoch", "soqal.network", "train_epoch"),
    ("network.backward", "soqal.network", "Network.backward"),
    ("network.forward_batch", "soqal.network", "Network.forward_batch"),
    ("gate.fit_conditional_gaussians", "soqal.gate", "fit_conditional_gaussians"),
    ("gate.chernoff_bound", "soqal.gate", "chernoff_bound"),
    ("strategy.decide", "soqal.strategy", "decide"),
    ("oracle.build_neighbor_table", "soqal.oracle", "build_neighbor_table"),
    ("oracle.label", "soqal.oracle", "Oracle.label"),
    ("metrics.auc_ovr", "soqal.metrics", "auc_ovr"),
    ("data.gen_synthetic", "soqal.data", "gen_synthetic"),
    ("data.split", "soqal.data", "split"),
    ("data.standardize", "soqal.data", "standardize"),
    ("results.write_result_csv", "soqal.results", "write_result_csv"),
    ("results.read_result_csv", "soqal.results", "read_result_csv"),
    ("config.load_config", "soqal.config", "load_config"),
    ("engine.run_experiment", "soqal.engine", "run_experiment"),
    ("cli.main", "soqal.cli", "main"),
]
TRACED_NAMES = list(dict.fromkeys(name for name, _, _ in TRACED))
LAYERS = list(dict.fromkeys(name.split(".")[0] for name in TRACED_NAMES))
COUNTS = [
    "network.forward_batch.rows",
    "results.write_result_csv.bytes",
    "acquisition.rows_forwarded",
    "acquisition.scored",
    "acquisition.picked",
]


class Patches:
    """Replacements made on soqal namespaces, undone by `restore`."""

    def __init__(self):
        self._done: list[tuple[object, str, object]] = []

    def replace(self, module: str, attr: str, make_wrapper) -> None:
        """Wrap `module.attr` everywhere soqal looks it up."""
        owner = sys.modules[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            holders = [owner]
        else:
            holders = [
                mod
                for name, mod in list(sys.modules.items())
                if name == "soqal" or name.startswith("soqal.")
            ]
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        for holder in holders:
            if vars(holder).get(attr) is original:
                setattr(holder, attr, wrapper)
                self._done.append((holder, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when each lookup yields it again."""
        for holder, attr, original in reversed(self._done):
            setattr(holder, attr, original)
        # A name wrapped twice must end up as the first original.
        first: dict[tuple[int, str], tuple[object, str, object]] = {}
        for holder, attr, original in self._done:
            first.setdefault((id(holder), attr), (holder, attr, original))
        return all(vars(holder)[attr] is original for holder, attr, original in first.values())


class SetupProbe:
    """Records, per run_experiment call, the interval from entry to its
    first train_epoch call.

    The only wrappers in the timed runs: one call per seed-run and one per
    epoch.  Also keeps the returned logs, whose acquisitions give the label
    accuracy and ask rate.
    """

    def __init__(self, patches: Patches):
        self.intervals: list[tuple[float, float]] = []
        self.logs: list = []
        self._entered: float | None = None

        def wrap_run(run_experiment):
            def probed(config, seed):
                self._entered = time.perf_counter()
                log = run_experiment(config, seed)
                self.logs.append(log)
                return log

            return probed

        def wrap_train(train_epoch):
            def probed(*args, **kwargs):
                if self._entered is not None:
                    self.intervals.append((self._entered, time.perf_counter()))
                    self._entered = None
                return train_epoch(*args, **kwargs)

            return probed

        patches.replace("soqal.cli", "run_experiment", wrap_run)
        patches.replace("soqal.engine", "train_epoch", wrap_train)


class Tracer:
    """Records a span (name, start, end, parent) per call of each traced
    function, in memory, plus work counts at the same boundaries."""

    def __init__(self, patches: Patches):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        for name, module, attr in TRACED:
            patches.replace(module, attr, lambda fn, name=name: self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = self._count

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            count(name, index, args, result)
            return result

        return traced

    def _count(self, name: str, index: int, args: tuple, result) -> None:
        if name == "network.forward_batch":
            rows = len(args[1])
            self.counts["network.forward_batch.rows"] += rows
            parent = self.spans[index][3]
            if parent >= 0 and self.spans[parent][0] == "acquisition.mc_posteriors":
                self.counts["acquisition.rows_forwarded"] += rows
        elif name == "acquisition.select_top_b":
            self.counts["acquisition.scored"] += len(args[0])
            self.counts["acquisition.picked"] += len(result)
        elif name == "results.write_result_csv":
            self.counts["results.write_result_csv.bytes"] += os.path.getsize(args[2])

    def summary(self) -> dict:
        """Calls and self time per traced name, and the traced wall time.

        Self time is a span's duration minus the time its child spans cover;
        the traced wall is the duration of the root spans, so the self times
        of all names add up to it.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        wall = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[index]
            if parent < 0:
                wall += end - start
        return {
            "wall_s": wall,
            "calls": {n: calls[n] for n in TRACED_NAMES},
            "self_s": {n: self_s[n] for n in TRACED_NAMES},
            "counts": {n: self.counts[n] for n in COUNTS},
        }
