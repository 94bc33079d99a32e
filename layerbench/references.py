"""Reference prices computed apart from the pricer.

Nothing here imports ``krrdp``: the geometric-basket reduction, the Bermudan
binomial tree and the Black-Scholes formulas are written out again so that a
fault in the package's own oracles cannot hide a fault in the pricer.
"""

import math

import numpy as np


def _norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def black_scholes(s0, strike, r, q, sigma, maturity, kind):
    """European price of a call or put on a GBM with continuous yield q."""
    vol = sigma * math.sqrt(maturity)
    d1 = (math.log(s0 / strike) + (r - q + 0.5 * sigma * sigma) * maturity) / vol
    d2 = d1 - vol
    growth, disc = math.exp(-q * maturity), math.exp(-r * maturity)
    if kind == "call":
        return s0 * growth * _norm_cdf(d1) - strike * disc * _norm_cdf(d2)
    return strike * disc * _norm_cdf(-d2) - s0 * growth * _norm_cdf(-d1)


def geometric_basket(x0, sigma, rho):
    """(s0, sigma_hat, q) of the 1-d GBM followed by the basket's geometric mean.

    log G = mean(log X_k) is Gaussian with per-unit-time variance
    sigma' rho sigma / d^2; matching its drift to r - q - sigma_hat^2 / 2 gives
    the dividend-like yield q.
    """
    x0, sigma, rho = (np.asarray(a, dtype=np.float64) for a in (x0, sigma, rho))
    d = x0.size
    var = float(sigma @ rho @ sigma) / (d * d)
    q = float(np.mean(sigma * sigma)) / 2.0 - var / 2.0
    return float(np.exp(np.mean(np.log(x0)))), math.sqrt(var), q


def bermudan_put_tree(s0, strike, r, q, sigma, maturity, dates, steps_per_date=1000):
    """Bermudan put on a CRR lattice, exercisable at t = 0, dt, ..., maturity.

    Node k at level i has had k up-moves: S = s0 * u^(2k - i).
    """
    levels = dates * steps_per_date
    h = maturity / levels
    up = math.exp(sigma * math.sqrt(h))
    p_up = (math.exp((r - q) * h) - 1.0 / up) / (up - 1.0 / up)
    if not 0.0 < p_up < 1.0:
        raise ValueError(f"up-probability {p_up} outside (0, 1)")
    disc = math.exp(-r * h)
    k = np.arange(levels + 1)
    value = np.maximum(strike - s0 * up ** (2 * k - levels), 0.0)
    for level in range(levels - 1, -1, -1):
        value = disc * (p_up * value[1:] + (1.0 - p_up) * value[:-1])
        if level % steps_per_date == 0:
            k = np.arange(level + 1)
            np.maximum(value, strike - s0 * up ** (2 * k - level), out=value)
    return float(value[0])
