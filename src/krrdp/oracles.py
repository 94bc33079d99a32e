"""Independent reference prices: 1-d reduction, CRR tree, LSMC baseline."""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import gbm_step, geometric_mean_rates
from .payoffs import GEO_BASKET_PUT, payoff_batch


@dataclass(frozen=True)
class Reduced1d:
    """Geometric basket collapsed to a single GBM with dividend-like drift q."""

    s0: float
    sigma_hat: float
    q: float
    r: float
    maturity: float
    steps: int


def geometric_reduction(params, maturity, steps):
    """Reduce the d-asset basket's geometric mean to a 1-d GBM.

    Per step, log of the geometric mean moves by mean (r - q - sigma_hat^2/2) dt
    and variance sigma_hat^2 dt, matching the full simulation in distribution.
    """
    sigma_hat, q = geometric_mean_rates(params)
    s0 = float(np.exp(np.mean(np.log(params.x0))))
    return Reduced1d(s0=s0, sigma_hat=sigma_hat, q=q, r=params.r,
                     maturity=maturity, steps=steps)


def _norm_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))  # standard normal CDF


def bs_price(s0, strike, r, q, sigma, maturity, kind="call"):
    """Black-Scholes European price with continuous dividend yield q."""
    if maturity <= 0 or sigma <= 0:
        fwd = s0 * math.exp(-q * maturity) - strike * math.exp(-r * maturity)
        return max(fwd, 0.0) if kind == "call" else max(-fwd, 0.0)
    sq = sigma * math.sqrt(maturity)
    d1 = (math.log(s0 / strike) + (r - q + 0.5 * sigma**2) * maturity) / sq
    d2 = d1 - sq
    call = (s0 * math.exp(-q * maturity) * _norm_cdf(d1)
            - strike * math.exp(-r * maturity) * _norm_cdf(d2))
    if kind == "call":
        return call
    return call - s0 * math.exp(-q * maturity) + strike * math.exp(-r * maturity)


def crr_binomial_american(red, strike, kind="put", tree_steps=4000, european=False):
    """Recombining CRR tree; Bermudan exercise only at the red.steps dates.

    tree_steps must be a positive multiple of red.steps so exercise dates
    align with tree levels. ``european=True`` exercises only at maturity.
    """
    if tree_steps < red.steps or tree_steps % red.steps != 0:
        raise ValueError("tree_steps must be a multiple of steps, >= steps")
    dt = red.maturity / tree_steps
    u = math.exp(red.sigma_hat * math.sqrt(dt))
    dn = 1.0 / u
    if not u > dn:
        raise ValueError(f"up and down moves coincide at tree step {dt:.3g}; "
                         "lengthen the maturity or reduce tree_steps")
    p = (math.exp((red.r - red.q) * dt) - dn) / (u - dn)
    if not 0.0 < p < 1.0:
        raise ValueError(f"risk-neutral probability {p:.4f} outside (0,1); increase tree_steps")
    disc = math.exp(-red.r * dt)
    stride = tree_steps // red.steps
    j = np.arange(tree_steps + 1)
    s = red.s0 * u ** (tree_steps - j) * dn**j
    sign = -1.0 if kind == "put" else 1.0
    v = np.maximum(sign * (s - strike), 0.0)
    for lev in range(tree_steps - 1, -1, -1):
        v = disc * (p * v[:-1] + (1 - p) * v[1:])
        if not european and lev % stride == 0:
            j = np.arange(lev + 1)
            s = red.s0 * u ** (lev - j) * dn**j
            v = np.maximum(v, np.maximum(sign * (s - strike), 0.0))
    return float(v[0])


def _lsmc_basis(X, payoff, degree):
    """Features: intercept, payoff statistic powers, raw coordinates (d<=5)."""
    if payoff.kind == GEO_BASKET_PUT:
        stat = np.exp(np.mean(np.log(X), axis=1))
    else:
        stat = X.max(axis=1)
    cols = [np.ones(X.shape[0])]
    for k in range(1, degree + 1):
        cols.append((stat / payoff.strike) ** k)
    if X.shape[1] <= 5:
        cols.extend((X / payoff.strike).T)
    return np.column_stack(cols)


def longstaff_schwartz(params, payoff, steps, paths, basis_degree, rng):
    """Classical LSMC price with polynomial continuation regression.

    Returns (price, stderr). The regression is fit on in-the-money paths
    only; a rank-deficient basis (at d = 1 the raw coordinate repeats the
    payoff statistic) still gives the unique least-squares fitted values.
    """
    d, T = params.d, steps
    dim = basis_degree + 1 + (d if d <= 5 else 0)
    if paths < 10 * dim:
        raise ValueError("paths must be at least 10x the basis dimension")
    S = np.empty((T + 1, paths, d))
    S[0] = np.tile(params.x0, (paths, 1))
    for t in range(T):
        S[t + 1] = gbm_step(S[t], params, rng.standard_normal((paths, d)))
    dt, r = params.dt, params.r
    cash = payoff_batch(payoff, S[T])
    tau = np.full(paths, T)
    for t in range(T - 1, 0, -1):
        ex = payoff_batch(payoff, S[t])
        itm = ex > 0
        if itm.sum() >= 10 * dim:
            disc_cf = cash[itm] * np.exp(-r * dt * (tau[itm] - t))
            A = _lsmc_basis(S[t][itm], payoff, basis_degree)
            beta = np.linalg.lstsq(A, disc_cf, rcond=None)[0]
            cont = A @ beta
            stop = ex[itm] >= cont
            idx = np.flatnonzero(itm)[stop]
            cash[idx] = ex[itm][stop]
            tau[idx] = t
    disc_cash = cash * np.exp(-r * dt * tau)
    price = float(disc_cash.mean())
    stderr = float(disc_cash.std(ddof=1) / math.sqrt(paths))
    ex0 = payoff_batch(payoff, S[0][:1])[0]
    return max(price, float(ex0)), stderr
