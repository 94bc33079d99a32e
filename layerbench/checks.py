"""Price checks. Each returns a list of failure messages, empty when it passes.

Gates that compare two noisy estimates use Z_PAIRED standard errors, not
two: every benchmark check runs each workload about 23 times on fresh seeds,
and a two-sided two-standard-error gate fails a correct pricer on about one
run in twenty, so nearly every check would then report a false failure. At
four standard errors a correct pricer fails one run in about 16 000. The put
gate keeps two standard errors on top of its fixed 0.05 allowance, because
that allowance, not the noise, sets its width.
"""

import math

import numpy as np

ORACLE_TOLERANCE = 0.05
Z_ORACLE = 2.0
Z_PAIRED = 4.0


def _se_mean(price_sd, prices):
    return price_sd / math.sqrt(len(prices))


def finite(prices, bound):
    bad = [p for p in (*prices, *bound) if not math.isfinite(p)]
    return [f"non-finite values {bad}"] if bad else []


def put_prices(prices, price_sd, tree, european):
    """Mean within 0.05 + 2 SE of the Bermudan tree; each price above the European put."""
    fails = []
    mean = float(np.mean(prices))
    tol = ORACLE_TOLERANCE + Z_ORACLE * _se_mean(price_sd, prices)
    if not abs(mean - tree) <= tol:
        fails.append(f"mean price {mean:.4f} is {mean - tree:+.4f} from the tree's "
                     f"{tree:.4f}, beyond {tol:.4f}")
    below = [p for p in prices if not p > european]
    if below:
        fails.append(f"prices {below} not above the European put {european:.4f}")
    return fails


def call_prices(prices, price_sd, bs_call, lsmc, lsmc_se):
    """Each price above the one-asset call; mean within Z_PAIRED pooled SE of LSMC."""
    fails = []
    below = [p for p in prices if not p > bs_call]
    if below:
        fails.append(f"prices {below} not above the one-asset call {bs_call:.4f}")
    mean = float(np.mean(prices))
    tol = Z_PAIRED * math.hypot(_se_mean(price_sd, prices), lsmc_se)
    if not abs(mean - lsmc) <= tol:
        fails.append(f"mean price {mean:.4f} is {mean - lsmc:+.4f} from LSMC's "
                     f"{lsmc:.4f}, beyond {tol:.4f}")
    return fails


def lower_bound(prices, price_sd, bound, bound_se):
    """The policy lower bound does not exceed the mean price by more than Z_PAIRED SE."""
    mean = float(np.mean(prices))
    tol = Z_PAIRED * math.hypot(_se_mean(price_sd, prices), bound_se)
    if bound - mean <= tol:
        return []
    return [f"lower bound {bound:.4f} exceeds mean price {mean:.4f} by more than {tol:.4f}"]


def same_reference(own, package, what):
    """The benchmark's reference and the package oracle's agree to rounding."""
    if abs(own - package) <= 1e-9 * abs(own):
        return []
    return [f"{what}: benchmark {own!r} vs krrdp.oracles {package!r}"]


def bitwise_equal(a, b, what):
    """Arrays equal bit for bit, NaN payloads and signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes():
        return []
    return [f"{what} differ"]
