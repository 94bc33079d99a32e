import logging
import math

import numpy as np
import pytest

from krrdp import dynamics
from krrdp.dynamics import GbmParams, gbm_step, sample_mu_t, substream


def make_params(d=2, rho_off=0.2, dt=1.0 / 9.0, sigma=0.2):
    rho = np.full((d, d), rho_off)
    np.fill_diagonal(rho, 1.0)
    return GbmParams(d=d, r=0.05, sigma=np.full(d, sigma), rho=rho,
                     x0=np.full(d, 100.0), dt=dt)


def test_cholesky_root_hand_value():
    params = make_params()
    expected = np.array([[1.0, 0.0], [0.2, math.sqrt(0.96)]])
    np.testing.assert_allclose(params.corr_root, expected, atol=1e-12)


def test_params_validation():
    good = make_params()
    with pytest.raises(ValueError):
        GbmParams(d=2, r=0.05, sigma=[0.2], rho=good.rho, x0=good.x0, dt=good.dt)
    with pytest.raises(ValueError):
        GbmParams(d=2, r=0.05, sigma=[-0.2, 0.2], rho=good.rho, x0=good.x0, dt=good.dt)
    with pytest.raises(ValueError):
        GbmParams(d=2, r=0.05, sigma=good.sigma, rho=good.rho, x0=[0.0, 1.0], dt=good.dt)
    with pytest.raises(ValueError):
        GbmParams(d=2, r=0.05, sigma=good.sigma, rho=good.rho, x0=good.x0, dt=0.0)
    bad_rho = np.array([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        GbmParams(d=2, r=0.05, sigma=good.sigma, rho=bad_rho, x0=good.x0, dt=good.dt)
    not_psd = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="positive semidefinite"):
        GbmParams(d=2, r=0.05, sigma=good.sigma, rho=not_psd, x0=good.x0, dt=good.dt)


@pytest.mark.parametrize("rho_off, warns", [(1.0, True), (0.2, False)])
def test_correlation_jitter_is_reported(rho_off, warns, caplog):
    # rho = 1 at d = 2 is singular: its Cholesky factorization needs the jitter
    with caplog.at_level(logging.WARNING, logger="krrdp.dynamics"):
        params = make_params(rho_off=rho_off)
    assert np.all(np.isfinite(params.corr_root))
    messages = [record.getMessage() for record in caplog.records]
    if warns:
        [message] = messages
        assert "not positive definite" in message and "jitter 1e-10" in message
    else:
        assert messages == []


def test_gbm_step_zero_noise_hand_value():
    # dt = 1: x exp((r - sigma^2/2) dt) = 100 exp(0.03) = 103.0454533...
    params = make_params(dt=1.0)
    out = gbm_step(params.x0, params, np.zeros(2))
    np.testing.assert_allclose(out, 103.04545339535168, rtol=1e-12)


def test_gbm_step_broadcasting_shapes():
    params = make_params()
    rng = np.random.default_rng(0)
    assert gbm_step(params.x0, params, rng.standard_normal(2)).shape == (2,)
    assert gbm_step(params.x0, params, rng.standard_normal((7, 2))).shape == (7, 2)
    X = np.tile(params.x0, (5, 1))
    assert gbm_step(X, params, rng.standard_normal((5, 2))).shape == (5, 2)
    assert gbm_step(X[:, None, :], params, rng.standard_normal((5, 3, 2))).shape == (5, 3, 2)


def test_gbm_step_positive():
    params = make_params()
    rng = np.random.default_rng(1)
    out = gbm_step(np.tile(params.x0, (1000, 1)), params, rng.standard_normal((1000, 2)))
    assert np.all(out > 0)


def test_gbm_step_componentwise_when_uncorrelated():
    params = make_params(rho_off=0.0)
    x = np.random.default_rng(2).uniform(50.0, 150.0, size=(10, 2))
    z = np.random.default_rng(3).standard_normal((10, 2))
    drift = (0.05 - 0.5 * 0.2**2) / 9.0
    expected = x * np.exp(drift + 0.2 * math.sqrt(1.0 / 9.0) * z)
    np.testing.assert_allclose(gbm_step(x, params, z), expected, rtol=1e-14, atol=0)


def test_martingale_property():
    # E[e^{-r dt} x'] = x0, checked within 3 standard errors at 1e5 samples
    params = make_params()
    rng = np.random.default_rng(3)
    n = 100_000
    out = gbm_step(np.tile(params.x0, (n, 1)), params, rng.standard_normal((n, 2)))
    disc = math.exp(-params.r * params.dt)
    for k in range(2):
        vals = disc * out[:, k]
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 100.0) <= 3 * se


def test_log_return_moments_and_correlation():
    params = make_params()
    rng = np.random.default_rng(4)
    n = 100_000
    out = gbm_step(np.tile(params.x0, (n, 1)), params, rng.standard_normal((n, 2)))
    logret = np.log(out / 100.0)
    mean_th = (params.r - 0.02) * params.dt
    var_th = 0.04 * params.dt
    for k in range(2):
        se = logret[:, k].std(ddof=1) / math.sqrt(n)
        assert abs(logret[:, k].mean() - mean_th) <= 3 * se
        # variance sampling error for a normal: var * sqrt(2/(n-1))
        assert abs(logret[:, k].var(ddof=1) - var_th) <= 3 * var_th * math.sqrt(2 / (n - 1))
    corr = np.corrcoef(logret.T)[0, 1]
    assert abs(corr - 0.2) <= 3 / math.sqrt(n)


def test_sample_mu_t_shapes_and_t0_point_mass():
    params = make_params()
    X0 = sample_mu_t(params, 0, 5, substream(0, 0))
    np.testing.assert_allclose(X0, np.tile(params.x0, (5, 1)))
    X3 = sample_mu_t(params, 3, 50, substream(0, 0))
    assert X3.shape == (50, 2)
    assert np.ptp(X3) > 0
    with pytest.raises(ValueError):
        sample_mu_t(params, -1, 5, substream(0, 0))
    with pytest.raises(ValueError):
        sample_mu_t(params, 0, 0, substream(0, 0))


def test_substream_determinism_and_independence():
    a = substream(7, 1, 2, 3).standard_normal(4)
    b = substream(7, 1, 2, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = substream(7, 1, 2, 4).standard_normal(4)
    assert not np.array_equal(a, c)
    d = substream(8, 1, 2, 3).standard_normal(4)
    assert not np.array_equal(a, d)


def test_purpose_constants_are_distinct():
    purposes = [dynamics.OUTER, dynamics.INNER, dynamics.EVAL, dynamics.LOWER, dynamics.REP,
                dynamics.NYSTROM]
    assert len(set(purposes)) == len(purposes)
