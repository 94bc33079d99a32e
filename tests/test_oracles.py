import math
import warnings

import numpy as np
import pytest

from krrdp import oracles
from krrdp.dynamics import GbmParams, substream
from krrdp.oracles import Reduced1d, bs_price, crr_binomial_american, geometric_reduction
from krrdp.payoffs import PayoffSpec


def make_params(d=2, rho_off=0.2, dt=1.0 / 9.0):
    rho = np.full((d, d), rho_off)
    np.fill_diagonal(rho, 1.0)
    return GbmParams(d=d, r=0.05, sigma=np.full(d, 0.2), rho=rho,
                     x0=np.full(d, 100.0), dt=dt)


def test_geometric_reduction_hand_values_d2():
    # sigma_hat^2 = (sigma' rho sigma) / d^2 = 0.04 * 2.4 / 4 = 0.024
    # q = sum(sigma^2) / (2 d) - sigma_hat^2 / 2 = 0.02 - 0.012 = 0.008
    red = geometric_reduction(make_params(), maturity=1.0, steps=9)
    assert red.s0 == pytest.approx(100.0, rel=1e-12)
    assert red.sigma_hat**2 == pytest.approx(0.024, rel=1e-12)
    assert red.q == pytest.approx(0.008, rel=1e-12)
    assert red.r == 0.05
    assert red.maturity == 1.0
    assert red.steps == 9


def test_geometric_reduction_single_asset_is_identity():
    red = geometric_reduction(make_params(d=1, rho_off=0.0), maturity=1.0, steps=9)
    assert red.sigma_hat == pytest.approx(0.2, rel=1e-12)
    assert red.q == pytest.approx(0.0, abs=1e-15)


def test_reduction_matches_simulated_geometric_mean_moments():
    params = make_params()
    red = geometric_reduction(params, maturity=1.0, steps=9)
    rng = substream(0, 42)
    n = 100_000
    X = np.tile(params.x0, (n, 1))
    from krrdp.dynamics import gbm_step

    for _ in range(9):
        X = gbm_step(X, params, rng.standard_normal((n, 2)))
    logg = np.mean(np.log(X), axis=1)
    mean_th = math.log(red.s0) + (red.r - red.q - red.sigma_hat**2 / 2) * 1.0
    var_th = red.sigma_hat**2 * 1.0
    se_mean = logg.std(ddof=1) / math.sqrt(n)
    assert abs(logg.mean() - mean_th) <= 3 * se_mean
    assert abs(logg.var(ddof=1) - var_th) <= 3 * var_th * math.sqrt(2 / (n - 1))


def test_bs_price_known_value_and_parity():
    call = bs_price(100, 100, 0.05, 0.0, 0.2, 1.0, "call")
    put = bs_price(100, 100, 0.05, 0.0, 0.2, 1.0, "put")
    assert call == pytest.approx(10.450583572185565, rel=1e-10)
    # put-call parity: C - P = S - K e^{-rT}
    assert call - put == pytest.approx(100 - 100 * math.exp(-0.05), rel=1e-10)


def test_bs_price_degenerate_maturity():
    assert bs_price(110, 100, 0.05, 0.0, 0.2, 0.0, "call") == 10.0
    assert bs_price(90, 100, 0.05, 0.0, 0.2, 0.0, "put") == 10.0


def test_binomial_european_matches_black_scholes():
    red = Reduced1d(s0=100.0, sigma_hat=math.sqrt(0.024), q=0.008, r=0.05,
                    maturity=1.0, steps=9)
    tree = crr_binomial_american(red, 100.0, kind="put", tree_steps=9999, european=True)
    bs = bs_price(100.0, 100.0, 0.05, 0.008, math.sqrt(0.024), 1.0, "put")
    assert abs(tree - bs) <= 1e-3


def test_binomial_tree_converges():
    red = Reduced1d(s0=100.0, sigma_hat=0.2, q=0.0, r=0.05, maturity=1.0, steps=9)
    coarse = crr_binomial_american(red, 100.0, tree_steps=1800)
    fine = crr_binomial_american(red, 100.0, tree_steps=7200)
    assert abs(coarse - fine) < 5e-3


def test_american_dominates_european_and_more_dates_dominate_fewer():
    red9 = Reduced1d(s0=100.0, sigma_hat=0.2, q=0.0, r=0.05, maturity=1.0, steps=9)
    red1 = Reduced1d(s0=100.0, sigma_hat=0.2, q=0.0, r=0.05, maturity=1.0, steps=1)
    bermudan9 = crr_binomial_american(red9, 100.0, tree_steps=9000)
    european = crr_binomial_american(red9, 100.0, tree_steps=9000, european=True)
    bermudan1 = crr_binomial_american(red1, 100.0, tree_steps=9000)
    assert bermudan9 >= european - 1e-12
    assert bermudan9 >= bermudan1 - 1e-12
    assert bermudan1 >= european - 1e-12


def test_binomial_validation():
    red = Reduced1d(s0=100.0, sigma_hat=0.2, q=0.0, r=0.05, maturity=1.0, steps=9)
    with pytest.raises(ValueError, match="multiple"):
        crr_binomial_american(red, 100.0, tree_steps=100)


def test_binomial_rejects_a_tree_step_too_short_to_move():
    # u = exp(sigma_hat sqrt(dt)) rounds to 1 = 1/u, so u - d would divide by zero
    red = Reduced1d(s0=100.0, sigma_hat=0.2, q=0.0, r=0.05, maturity=1e-300, steps=9)
    with pytest.raises(ValueError, match="up and down moves coincide"):
        crr_binomial_american(red, 100.0, tree_steps=9000)


def test_lsmc_single_date_matches_european():
    # with one exercise date LSMC is plain MC of the European payoff
    params = make_params(d=1, rho_off=0.0, dt=1.0)
    payoff = PayoffSpec(kind="max_call", strike=100.0)
    price, se = oracles.longstaff_schwartz(params, payoff, steps=1, paths=100_000,
                                           basis_degree=2, rng=substream(0, 9))
    bs = bs_price(100, 100, 0.05, 0.0, 0.2, 1.0, "call")
    assert se > 0
    assert abs(price - bs) <= 4 * se


@pytest.mark.parametrize("d", [1, 2])
def test_lsmc_bermudan_put_close_to_binomial_oracle(d):
    # At d = 1 the raw coordinate repeats the payoff statistic: the basis is
    # rank-deficient at every stage, and the fit must neither warn nor drop a degree.
    params = make_params(d=d)
    payoff = PayoffSpec(kind="geo_basket_put", strike=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        price, se = oracles.longstaff_schwartz(params, payoff, steps=9, paths=50_000,
                                               basis_degree=2, rng=substream(1, 9))
    red = geometric_reduction(params, maturity=1.0, steps=9)
    oracle = crr_binomial_american(red, 100.0, kind="put", tree_steps=9000)
    # LSMC uses a suboptimal rule but an in-sample estimate; allow a small band
    assert abs(price - oracle) <= max(4 * se, 0.05)


def test_lsmc_path_count_validation():
    params = make_params()
    payoff = PayoffSpec(kind="geo_basket_put", strike=100.0)
    with pytest.raises(ValueError, match="paths"):
        oracles.longstaff_schwartz(params, payoff, steps=9, paths=10,
                                   basis_degree=2, rng=substream(0, 0))
