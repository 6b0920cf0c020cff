"""Independent oracles for the package's math, one definition each.

Each computes its quantity from the definition by another route than the
package takes: numeric quadrature, pairwise counting, central differences
or Monte-Carlo sampling.  Test modules import them from here.
"""

import math

import numpy as np
from scipy import integrate
from scipy.stats import norm

from soqal.gate import GateStats
from soqal.network import loss_terms


def is_fraction_count(k, fraction, n):
    """Whether k is the smallest count with k / n >= fraction (float
    division), by that definition; of no items, no count but 0."""
    if n == 0:
        return k == 0
    return k / n >= fraction and (k == 0 or (k - 1) / n < fraction)


def hellinger_by_quadrature(mu0, var0, mu1, var1):
    """D_H = sqrt(1 - integral of sqrt(f0 * f1)) for two 1-D Gaussians."""
    s0, s1 = math.sqrt(var0), math.sqrt(var1)

    def integrand(x):
        return math.sqrt(norm.pdf(x, mu0, s0) * norm.pdf(x, mu1, s1))

    lo = min(mu0 - 40 * s0, mu1 - 40 * s1)
    hi = max(mu0 + 40 * s0, mu1 + 40 * s1)
    coefficient, _ = integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12)
    return math.sqrt(max(0.0, 1.0 - coefficient))


def concordance_auc(scores, positives):
    """Pairwise concordance count with half credit for ties, over numpy
    arrays of scores and a boolean positive mask."""
    pos = scores[positives]
    neg = scores[~positives]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def numeric_grads(net, x, targets, errors, beta, masks, terms=sum, step=1e-5):
    """Central differences of `terms(loss_terms(...))`, by default the joint
    objective, with respect to every parameter array of `net`."""
    grads = []
    for arr in net.parameters():
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            probs, gate, _ = net.forward_batch(x, masks)
            up = terms(loss_terms(probs, gate, targets, errors, beta))
            arr[idx] = orig - step
            probs, gate, _ = net.forward_batch(x, masks)
            down = terms(loss_terms(probs, gate, targets, errors, beta))
            arr[idx] = orig
            grad[idx] = (up - down) / (2.0 * step)
        grads.append(grad)
    return grads


def monte_carlo_bayes_error(stats: GateStats, n: int, rng) -> tuple[float, float]:
    """Bayes error of the prior-weighted two-Gaussian mixture from `n`
    draws, with its standard error."""
    classes = (rng.random(n) < stats.prior1).astype(int)
    draws = np.where(
        classes == 1,
        rng.normal(stats.mu1, math.sqrt(stats.var1), size=n),
        rng.normal(stats.mu0, math.sqrt(stats.var0), size=n),
    )
    lp1 = math.log(stats.prior1) + norm.logpdf(draws, stats.mu1, math.sqrt(stats.var1))
    lp0 = math.log(stats.prior0) + norm.logpdf(draws, stats.mu0, math.sqrt(stats.var0))
    wrong = (lp1 > lp0).astype(int) != classes
    rate = float(wrong.mean())
    return rate, math.sqrt(rate * (1.0 - rate) / n)
