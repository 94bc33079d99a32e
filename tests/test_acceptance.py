"""End-to-end acceptance suite for the pricing benchmark rows.

Each test is one acceptance criterion; the heavy benchmark rows are computed
once per module and shared. Reference prices are the values this benchmark
suite is expected to reproduce; oracle values come from the independent
pricers in ``krrdp.oracles``.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from krrdp import bellman, kernels, oracles
from krrdp.bellman import backward_pass, generate_stage_data, price_at_origin
from krrdp.config import build_run_config, load_config
from krrdp.dynamics import gbm_step, substream
from krrdp.experiments import convergence_study, run_benchmark
from krrdp.kernels import KernelSpec
from krrdp.payoffs import payoff_batch

pytestmark = pytest.mark.acceptance

SEED = 7
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# (reference mean price, tolerance) per dimension for the standard rows
PUT_ROWS = {2: (4.63, 0.10), 5: (3.46, 0.10), 10: (2.98, 0.12)}
CALL_ROWS = {2: (16.93, 0.20), 5: (27.16, 0.35)}
ORACLE_TOLERANCE = 0.05


def row_config(d, payoff, **extra):
    entries = {
        "market.d": str(d),
        "contract.payoff": payoff,
        "contract.strike": "100",
        "seed": str(SEED),
        "repetitions": "10",
    }
    entries.update(extra)
    return build_run_config(entries)


# The rows priced are the shipped configs/{put,call}_d<d>.cfg files, the ones
# README tells users to run; row_config builds the same rows with keys overridden.
@pytest.fixture(scope="module")
def put_results():
    return {d: run_benchmark(load_config(CONFIGS / f"put_d{d}.cfg")) for d in PUT_ROWS}


@pytest.fixture(scope="module")
def call_results():
    return {d: run_benchmark(load_config(CONFIGS / f"call_d{d}.cfg")) for d in CALL_ROWS}


# -- criterion 1: geometric basket put benchmark rows -------------------------


@pytest.mark.parametrize("d", sorted(PUT_ROWS))
def test_criterion_1_put_rows_match_reference_and_oracle(put_results, d):
    ref, tol = PUT_ROWS[d]
    res = put_results[d]
    assert abs(res.price_mean - ref) <= tol, (
        f"d={d}: mean {res.price_mean:.4f} not within {tol} of reference {ref}"
    )
    assert res.oracle_price is not None
    assert abs(res.price_mean - res.oracle_price) <= ORACLE_TOLERANCE, (
        f"d={d}: mean {res.price_mean:.4f} not within {ORACLE_TOLERANCE} "
        f"of binomial oracle {res.oracle_price:.4f}"
    )
    assert res.seconds <= 60.0, f"d={d}: backward pass took {res.seconds:.1f}s per run"


# -- criterion 2: max-call benchmark rows --------------------------------------


@pytest.mark.parametrize("d", sorted(CALL_ROWS))
def test_criterion_2_call_rows_match_reference_and_lsmc(call_results, d):
    ref, tol = CALL_ROWS[d]
    res = call_results[d]
    assert abs(res.price_mean - ref) <= tol, (
        f"d={d}: mean {res.price_mean:.4f} not within {tol} of reference {ref}"
    )
    cfg = load_config(CONFIGS / f"call_d{d}.cfg")
    lsmc, lsmc_se = oracles.longstaff_schwartz(
        cfg.params, cfg.payoff, cfg.steps, paths=100_000, basis_degree=2,
        rng=substream(SEED, 31),
    )
    krr_se = (res.ci95[1] - res.ci95[0]) / (2 * 1.96)
    pooled = math.hypot(krr_se, lsmc_se)
    assert abs(res.price_mean - lsmc) <= 2 * pooled, (
        f"d={d}: KRR {res.price_mean:.4f} vs LSMC {lsmc:.4f} "
        f"differs by more than 2 pooled stderr ({2 * pooled:.4f})"
    )


# -- criterion 3: oracle chain -------------------------------------------------


def test_criterion_3_binomial_european_matches_closed_form():
    cfg = row_config(2, "geo_basket_put")
    red = oracles.geometric_reduction(cfg.params, maturity=1.0, steps=9)
    tree = oracles.crr_binomial_american(red, 100.0, kind="put",
                                         tree_steps=9999, european=True)
    closed = oracles.bs_price(red.s0, 100.0, red.r, red.q, red.sigma_hat, 1.0, "put")
    assert abs(tree - closed) <= 1e-3


def test_criterion_3_simulated_moments_match_reduction():
    cfg = row_config(2, "geo_basket_put")
    red = oracles.geometric_reduction(cfg.params, maturity=1.0, steps=9)
    n = 100_000
    rng = substream(SEED, 33)
    X = np.tile(cfg.params.x0, (n, 1))
    for _ in range(9):
        X = gbm_step(X, cfg.params, rng.standard_normal((n, 2)))
    logg = np.mean(np.log(X), axis=1)
    mean_th = math.log(red.s0) + (red.r - red.q - red.sigma_hat**2 / 2)
    var_th = red.sigma_hat**2
    assert abs(logg.mean() - mean_th) <= 3 * logg.std(ddof=1) / math.sqrt(n)
    assert abs(logg.var(ddof=1) - var_th) <= 3 * var_th * math.sqrt(2 / (n - 1))


# -- criterion 4: one-step sanity ----------------------------------------------


def test_criterion_4_single_period_atm_call():
    cfg = row_config(1, "max_call", **{"contract.steps": "1"})
    tic = time.perf_counter()
    stack = backward_pass(cfg)
    price = price_at_origin(stack, cfg.eval_M, substream(cfg.seed, 2))
    elapsed = time.perf_counter() - tic
    closed = oracles.bs_price(100.0, 100.0, 0.05, 0.0, 0.2, 1.0, "call")
    assert closed == pytest.approx(10.4506, abs=1e-4)
    assert abs(price - closed) <= 0.15
    assert elapsed < 5.0


# -- criterion 6: error trend in n ----------------------------------------------


def test_criterion_6_error_decreases_with_n():
    cfg = row_config(2, "geo_basket_put")
    rows, rho = convergence_study(cfg, [50, 100, 200, 400])
    errs = [r["mean_abs_err"] for r in rows]
    ses = [r["stderr"] for r in rows]
    for i in range(len(rows) - 1):
        slack = 2 * math.hypot(ses[i], ses[i + 1])
        assert errs[i + 1] <= errs[i] + slack, (
            f"error increased from n={rows[i]['n']} to n={rows[i + 1]['n']} "
            f"by more than 2 pooled stderr"
        )
    assert rho < 0, f"Spearman(n, error) = {rho:.3f} is not negative"


# -- criterion 7: regression property suite -------------------------------------


def test_criterion_7_regression_properties():
    rng = np.random.default_rng(0)
    spec = KernelSpec(lengthscale=1.5)
    X = rng.uniform(-2, 2, size=(30, 2))
    y = rng.normal(size=30)

    interp = kernels.krr_fit(X, y[:, None], 0.0, spec)
    np.testing.assert_allclose(kernels.predict_batch(interp, X), y, atol=1e-8)

    lam = 1e-5
    model = kernels.krr_fit(X, y[:, None], lam, spec)
    G = kernels.gram_matrix(X, X, spec)
    resid = (G + lam * 30 * np.eye(30)) @ model.coefficients[0] - y
    assert np.linalg.norm(resid) / np.linalg.norm(y) <= 1e-8

    # m = n equivalence needs a well-conditioned system: the Nystrom normal
    # equations square the Gram condition number, so use a moderate lambda
    lam_nys = 1e-4
    exact = kernels.krr_fit(X, y[:, None], lam_nys, spec)
    nys = kernels.nystrom_fit(X, y[:, None], lam_nys, spec, m=30, rng=np.random.default_rng(1))
    Xq = rng.uniform(-2, 2, size=(40, 2))
    np.testing.assert_allclose(kernels.predict_batch(nys, Xq),
                               kernels.predict_batch(exact, Xq), atol=1e-6)

    vals = rng.normal(scale=10.0, size=1000)
    clipped = np.clip(vals, -3.0, 3.0)
    np.testing.assert_array_equal(np.clip(clipped, -3.0, 3.0), clipped)
    pairs = rng.normal(scale=10.0, size=(500, 2))
    ca, cb = np.clip(pairs[:, 0], -3, 3), np.clip(pairs[:, 1], -3, 3)
    assert np.all(np.abs(ca - cb) <= np.abs(pairs[:, 0] - pairs[:, 1]) + 1e-12)


# -- criterion 8: dynamics suite -------------------------------------------------


def test_criterion_8_dynamics_moments():
    cfg = row_config(2, "geo_basket_put")
    params = cfg.params
    n = 100_000
    rng = substream(SEED, 34)
    out = gbm_step(np.tile(params.x0, (n, 1)), params, rng.standard_normal((n, 2)))
    disc = math.exp(-params.r * params.dt)
    for k in range(2):
        vals = disc * out[:, k]
        assert abs(vals.mean() - 100.0) <= 3 * vals.std(ddof=1) / math.sqrt(n)
    logret = np.log(out / 100.0)
    var_th = params.sigma[0] ** 2 * params.dt
    for k in range(2):
        se = logret[:, k].std(ddof=1) / math.sqrt(n)
        assert abs(logret[:, k].mean() - (params.r - 0.02) * params.dt) <= 3 * se
        assert abs(logret[:, k].var(ddof=1) - var_th) <= 3 * var_th * math.sqrt(2 / (n - 1))
    corr = np.corrcoef(logret.T)[0, 1]
    assert abs(corr - 0.2) <= 3 / math.sqrt(n)


def test_criterion_8_bitwise_thread_determinism():
    # Each call runs the stage's continuation on a fresh worker thread; two
    # calls with one seed still return bitwise-equal states and targets.
    cfg = row_config(2, "geo_basket_put", **{"stage.n": "64", "stage.M": "32"})
    next_fn = lambda X: payoff_batch(cfg.payoff, X)
    (X1, Y1), (X2, Y2) = (generate_stage_data(4, cfg.stage, next_fn, cfg.params, cfg.payoff, SEED)
                          for _ in range(2))
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(Y1, Y2)


# -- criterion 9: policy lower bound ----------------------------------------------


def test_criterion_9_lower_bound_below_price(put_results, call_results):
    for res in list(put_results.values()) + list(call_results.values()):
        lb, se = res.lower_bound
        assert lb <= res.price_mean + 2 * se, (
            f"d={res.config.params.d} {res.config.payoff.kind}: lower bound {lb:.4f} exceeds "
            f"price {res.price_mean:.4f} + 2 stderr"
        )
    for res in put_results.values():
        lb, se = res.lower_bound
        assert lb <= res.oracle_price + 2 * se, (
            f"d={res.config.params.d}: lower bound {lb:.4f} exceeds oracle "
            f"{res.oracle_price:.4f} + 2 stderr"
        )
