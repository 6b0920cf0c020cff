"""Host-speed calibration.

On a shared 2-core box the speed of the host drifts by up to 2x within
minutes, while CPU time stays close to wall time, so the drift is not
scheduling and no repetition count averages it away.  Each repetition
therefore also times two fixed kernels, and run.py divides its times by the
measured slowness.  The kernels are the benchmark's own code, so no change
to soqal moves them.

Interpreted Python and BLAS slow down by different amounts, and soqal's
workloads mix the two in different proportions, so the slowness is a
weighted geometric mean of both kernels' time over their reference time,
with the workload's own weight (`Workload.py_weight`).
"""

from __future__ import annotations

import math
import signal
import time

PY_TICK = 8_000  # Python-kernel iterations per tick
BLAS_TICK = 20  # BLAS-kernel products per tick
TICK_INTERVAL_S = 0.05
SLICE = 25  # ticks' worth of each kernel in one slice after a repetition
# Kernel times per unit on the reference host, the 2-core box the bounds
# were measured on, at the faster of its speeds.  A slowness of 1 means
# that speed; reported times read as seconds on that host at that speed.
REF_PY_ITER_S = 250e-9
REF_BLAS_PRODUCT_S = 120e-6


def py_kernel(n: int) -> float:
    """Seconds for n iterations of dict, float and branch work."""
    start = time.perf_counter()
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(n):
        key = i & 1023
        table[key] = table.get(key, 0.0) * 0.5 + math.sqrt(i)
        acc += table[key] if i % 3 else -table[key]
    return time.perf_counter() - start


class BlasKernel:
    """(32, 256) @ (256, 256) float64 products, the shape of a training
    batch through a wide layer.  Built only once numpy is imported, so the
    timed import of soqal is not made cheaper by it."""

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.a = rng.standard_normal((32, 256))
        self.b = rng.standard_normal((256, 256))

    def __call__(self, n: int) -> float:
        start = time.perf_counter()
        for _ in range(n):
            self.a @ self.b
        return time.perf_counter() - start


def slowness(py_iter_s: float, blas_product_s: float) -> dict[str, float]:
    """Each kernel's time over its reference time."""
    return {"py": py_iter_s / REF_PY_ITER_S, "blas": blas_product_s / REF_BLAS_PRODUCT_S}


def combined(slowness: dict[str, float], py_weight: float) -> float:
    """The weighted geometric mean of both kernels' slowness."""
    return slowness["py"] ** py_weight * slowness["blas"] ** (1.0 - py_weight)


class Ticker:
    """Runs a kernel every TICK_INTERVAL_S of wall time (SIGALRM), so the
    speed is sampled all through a repetition: the Python kernel, and once
    `blas` is set, the two kernels in turn.

    Handlers run between bytecodes, so a tick lies wholly inside or wholly
    outside any interval the caller timed; `spent` gives the tick time to
    subtract from one.
    """

    def __init__(self):
        self.ticks: list[tuple[str, float, float]] = []
        self.blas: BlasKernel | None = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        if self.blas is not None and self.ticks and self.ticks[-1][0] == "py":
            kind = "blas"
            self.blas(BLAS_TICK)
        else:
            kind = "py"
            py_kernel(PY_TICK)
        self.ticks.append((kind, start, time.perf_counter()))

    def __enter__(self) -> "Ticker":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, start: float, end: float) -> float:
        return sum(e - s for _, s, e in self.ticks if start <= s and e <= end)

    def slowness(self) -> dict[str, float] | None:
        """Slowness over the ticks; None without ticks of both kernels."""
        py = [e - s for kind, s, e in self.ticks if kind == "py"]
        blas = [e - s for kind, s, e in self.ticks if kind == "blas"]
        if not py or not blas:
            return None
        return slowness(sum(py) / (len(py) * PY_TICK), sum(blas) / (len(blas) * BLAS_TICK))


def slice_slowness(blas: BlasKernel) -> dict[str, float]:
    """Slowness over one slice of each kernel, run back to back."""
    return slowness(py_kernel(SLICE * PY_TICK) / (SLICE * PY_TICK),
                    blas(SLICE * BLAS_TICK) / (SLICE * BLAS_TICK))
