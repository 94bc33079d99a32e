"""Shows that every price check can fail: each passes on a nominal result and
fails once that result is moved just past its tolerance, or, for the --jobs
check, once one bit of a stage-target array is changed.

    python3 layerbench/selftest.py

Exits 0 when every check behaved as expected.
"""

import sys

import numpy as np

import checks
import references
from workloads import DATES, MATURITY, RATE, RHO, SIGMA, STRIKE, WORKLOADS, X0


def expect(label, failures, should_fail):
    ok = bool(failures) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {failures or 'passes'}")
    return ok


def main():
    put, call = WORKLOADS["put_d10"], WORKLOADS["call_d2"]
    rho = np.full((put.d, put.d), RHO)
    np.fill_diagonal(rho, 1.0)
    s0, vol, q = references.geometric_basket(np.full(put.d, X0), np.full(put.d, SIGMA), rho)
    tree = references.bermudan_put_tree(s0, STRIKE, RATE, q, vol, MATURITY, DATES)
    euro = references.black_scholes(s0, STRIKE, RATE, q, vol, MATURITY, "put")
    bs_call = references.black_scholes(X0, STRIKE, RATE, 0.0, SIGMA, MATURITY, "call")
    step = 1e-6

    put_tol = checks.ORACLE_TOLERANCE + checks.Z_ORACLE * put.price_sd
    lsmc, lsmc_se = 16.8, 0.05
    call_tol = checks.Z_PAIRED * np.hypot(call.price_sd, lsmc_se)
    bound_se = 0.06
    bound_tol = checks.Z_PAIRED * np.hypot(put.price_sd, bound_se)
    y = np.linspace(0.0, 20.0, 300)
    y_flip = y.copy()
    y_flip.view(np.uint64)[123] ^= np.uint64(1)

    results = [
        expect("put at the tree price", checks.put_prices([tree], put.price_sd, tree, euro), False),
        expect("put just inside the gate",
               checks.put_prices([tree + put_tol - step], put.price_sd, tree, euro), False),
        expect("put just past the gate",
               checks.put_prices([tree + put_tol + step], put.price_sd, tree, euro), True),
        expect("put just below the gate",
               checks.put_prices([tree - put_tol - step], put.price_sd, tree, euro), True),
        expect("one put at the European price, the mean at the tree",
               checks.put_prices([euro, 2 * tree - euro], put.price_sd, tree, euro), True),
        expect("call at LSMC", checks.call_prices([lsmc], call.price_sd, bs_call, lsmc, lsmc_se),
               False),
        expect("call just past LSMC's gate",
               checks.call_prices([lsmc + call_tol + step], call.price_sd, bs_call, lsmc, lsmc_se),
               True),
        expect("one call at the one-asset call, the mean at LSMC",
               checks.call_prices([bs_call, 2 * lsmc - bs_call], call.price_sd, bs_call,
                                  lsmc, lsmc_se), True),
        expect("bound below the price",
               checks.lower_bound([tree], put.price_sd, tree - 0.05, bound_se), False),
        expect("bound just past the price's gate",
               checks.lower_bound([tree], put.price_sd, tree + bound_tol + step, bound_se), True),
        expect("finite prices", checks.finite([tree], (tree, bound_se)), False),
        expect("a NaN price", checks.finite([tree, float("nan")], ()), True),
        expect("an infinite bound", checks.finite([tree], (float("inf"), bound_se)), True),
        expect("package tree equal", checks.same_reference(tree, tree, "tree"), False),
        expect("package tree off by 1e-6", checks.same_reference(tree, tree + step, "tree"), True),
        expect("stage targets equal", checks.bitwise_equal(y, y.copy(), "y"), False),
        expect("stage targets with one bit changed", checks.bitwise_equal(y, y_flip, "y"), True),
        expect("-0.0 against 0.0", checks.bitwise_equal(np.zeros(3), -np.zeros(3), "y"), True),
    ]
    print(f"{sum(results)} of {len(results)} as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
