"""Ask-or-self-label decision mathematics.

Gate outputs on the labelled pool are fit to two Gaussians conditioned on
the classifier's zero-one error; their separability (Hellinger distance)
decides whether the gate is trusted at all, and the per-instance density
comparison decides individual ask/self-label calls.  The Chernoff bound
turns the same fit into an analytic ceiling on the gate's decision error.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

VAR_FLOOR = 1e-6  # fitted variances never drop below this
CHERNOFF_MODES = ("full-bound", "exponent-only")
BETA_GRID = np.linspace(0.0, 1.0, 1001)  # chernoff_bound's candidates for b*
BETA_GRID.flags.writeable = False


class GateStats(NamedTuple):
    """Per-epoch Gaussian fit of gate outputs conditioned on the error flag."""

    mu0: float
    var0: float
    mu1: float
    var1: float
    prior0: float
    prior1: float
    d_hellinger: float
    valid: bool  # both error classes had >= 2 samples


class ChernoffResult(NamedTuple):
    bound: float
    beta_star: float


def hellinger(mu0: float, var0: float, mu1: float, var1: float) -> float:
    """Closed-form Hellinger distance between two univariate Gaussians.

        D_H = sqrt(1 - sqrt(2*s0*s1 / (s0^2 + s1^2))
                     * exp(-(mu0 - mu1)^2 / (4*(s0^2 + s1^2))))

    with s the standard deviations.  Zero for identical distributions,
    approaches one as the overlap vanishes; always within [0, 1].
    """
    if var0 < VAR_FLOOR or var1 < VAR_FLOOR:
        raise ValueError(f"variances must be >= {VAR_FLOOR}")
    s0 = math.sqrt(var0)
    s1 = math.sqrt(var1)
    coeff = math.sqrt(2.0 * s0 * s1 / (var0 + var1))
    expo = math.exp(-((mu0 - mu1) ** 2) / (4.0 * (var0 + var1)))
    return math.sqrt(max(0.0, 1.0 - coeff * expo))


def fit_conditional_gaussians(
    o_values: np.ndarray, e_flags: np.ndarray
) -> GateStats:
    """Fit N(mu, var) to gate outputs per error class, with floored variance.

    The fit is valid only when each class has at least two samples; an
    invalid fit reports a Hellinger distance of zero.
    """
    if o_values.shape != e_flags.shape:
        raise ValueError("o_values and e_flags must have the same length")
    mask1 = e_flags == 1
    mask0 = ~mask1
    n0 = int(mask0.sum())
    n1 = int(mask1.sum())
    total = n0 + n1

    def moments(values: np.ndarray) -> tuple[float, float]:
        if values.size == 0:
            return 0.0, VAR_FLOOR
        return float(values.mean()), max(float(values.var()), VAR_FLOOR)

    mu0, var0 = moments(o_values[mask0])
    mu1, var1 = moments(o_values[mask1])
    prior0 = n0 / total if total else 0.5
    prior1 = 1.0 - prior0
    valid = n0 >= 2 and n1 >= 2
    d_h = hellinger(mu0, var0, mu1, var1) if valid else 0.0
    return GateStats(mu0, var0, mu1, var1, prior0, prior1, d_h, valid)


def _log_normal_pdf(x: float, mu: float, var: float) -> float:
    return -0.5 * math.log(2.0 * math.pi * var) - (x - mu) ** 2 / (2.0 * var)


def decide_ask(o: float, stats: GateStats, threshold: float) -> bool:
    """Deterministic ask decision for one acquired instance.

    Always ask while the fit is invalid or its separation is below the trust
    threshold; otherwise ask exactly when the e=1 component is the likelier
    explanation of the observed gate output (compared in log space).
    """
    if not stats.valid or stats.d_hellinger < threshold:
        return True
    log1 = _log_normal_pdf(o, stats.mu1, stats.var1)
    log0 = _log_normal_pdf(o, stats.mu0, stats.var0)
    return log1 > log0


def chernoff_bound(stats: GateStats, mode: str = "full-bound") -> ChernoffResult:
    """Upper bound on the gate's binary decision error from the fitted pair.

    bound(b) = prior0^b * prior1^(1-b) * exp(-k(b)) where exp(-k(b)) is the
    Chernoff coefficient of the two Gaussians,

        k(b) = b*(1-b)*(mu0-mu1)^2 / (2*(b*var1 + (1-b)*var0))
               + 0.5 * ln((b*var1 + (1-b)*var0) / (var0^(1-b) * var1^b)),

    so that bound(b) = integral of (prior0*f0)^b (prior1*f1)^(1-b), an upper
    bound on the Bayes error for every b in [0, 1].  The optimal b* comes
    from a 1001-point grid; mode "full-bound" minimizes bound(b) itself,
    mode "exponent-only" maximizes k(b).  Ties resolve toward b = 0.5.  The
    reported bound is always the full bound evaluated at b*.  While the fit
    is invalid both fields are nan.
    """
    if mode not in CHERNOFF_MODES:
        raise ValueError(f"unknown mode: {mode}")
    if not stats.valid:
        return ChernoffResult(bound=float("nan"), beta_star=float("nan"))
    beta = BETA_GRID
    mixed_var = beta * stats.var1 + (1.0 - beta) * stats.var0
    k = beta * (1.0 - beta) * (stats.mu0 - stats.mu1) ** 2 / (2.0 * mixed_var)
    k += 0.5 * (
        np.log(mixed_var)
        - (1.0 - beta) * math.log(stats.var0)
        - beta * math.log(stats.var1)
    )
    log_bound = (
        beta * math.log(stats.prior0) + (1.0 - beta) * math.log(stats.prior1) - k
    )
    objective = log_bound if mode == "full-bound" else -k
    best = objective.min()
    tied = np.flatnonzero(objective <= best + 1e-12)
    idx = tied[np.argmin(np.abs(beta[tied] - 0.5))]
    return ChernoffResult(bound=float(math.exp(log_bound[idx])), beta_star=float(beta[idx]))
