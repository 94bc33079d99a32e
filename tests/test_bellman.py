import functools
import json
import logging
import math
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from krrdp import bellman, kernels, oracles, qmc
from krrdp.bellman import (
    CONTINUATION,
    VALUE,
    StageConfig,
    backward_pass,
    continuation,
    european_baseline,
    generate_stage_data,
    load_stack,
    policy_lower_bound,
    price_at_origin,
    save_stack,
)
from krrdp.config import build_run_config, load_config
from krrdp.dynamics import EVAL, INNER, OUTER, GbmParams, gbm_step, sample_mu_t, substream
from krrdp.kernels import KernelSpec
from krrdp.payoffs import PayoffSpec, payoff_batch


def make_params(d=2):
    rho = np.full((d, d), 0.2)
    np.fill_diagonal(rho, 1.0)
    return GbmParams(d=d, r=0.05, sigma=np.full(d, 0.2), rho=rho,
                     x0=np.full(d, 100.0), dt=1.0 / 9.0)


def small_run(payoff="geo_basket_put", **overrides):
    entries = {
        "market.d": "2",
        "contract.payoff": payoff,
        "contract.strike": "100",
        "contract.steps": "3",
        "stage.n": "40",
        "stage.M": "16",
        "seed": "11",
        "repetitions": "2",
        "eval_M": "2000",
    }
    entries.update(overrides)
    return build_run_config(entries)


def test_stage_config_validation():
    spec = KernelSpec(lengthscale=30.0)
    with pytest.raises(ValueError):
        StageConfig(n=0, M=10, lam=1e-6, kernel=spec)
    with pytest.raises(ValueError):
        StageConfig(n=10, M=0, lam=1e-6, kernel=spec)
    with pytest.raises(ValueError):
        StageConfig(n=10, M=10, lam=-1.0, kernel=spec)


def test_discount():
    # continuation's discount factor is e^{-r dt}: a constant next function
    params = make_params()
    S = continuation(np.tile(params.x0, (2, 1)), lambda Xb: np.ones(len(Xb)),
                     np.zeros((2, 3, 2)), params)
    assert np.all(S == pytest.approx(math.exp(-0.05 / 9.0), rel=1e-14))


def test_continuation_value_matches_manual_mc():
    params = make_params()
    payoff = PayoffSpec(kind="geo_basket_put", strike=100.0)
    X = np.array([[100.0, 100.0], [95.0, 102.0], [120.0, 80.0]])
    Z = substream(3, 0).standard_normal((3, 32, 2))
    seen = []

    def next_fn(Xb):
        seen.append(Xb.copy())
        return payoff_batch(payoff, Xb)

    S = continuation(X, next_fn, Z, params)
    assert S.shape == (3, 64)
    # the pair step gives bitwise the states of a step on the concatenated +-Z
    [states] = seen
    np.testing.assert_array_equal(
        states, gbm_step(X[:, None], params, np.concatenate((Z, -Z), axis=1)).reshape(-1, 2))
    for i in range(3):
        z = np.concatenate([Z[i], -Z[i]])
        manual = math.exp(-0.05 / 9.0) * payoff_batch(payoff, gbm_step(X[i], params, z))
        np.testing.assert_allclose(S[i], manual, rtol=1e-12, atol=1e-12)


def _premium_stage_data(run, stack, t):
    # stage t's (X, Y) as backward_pass makes them: the targets above b_t, from f_{t+1}
    baseline = None if stack.baseline is None else functools.partial(stack.baseline, t)
    return generate_stage_data(t, run.stage, stack.premium_fn(t + 1), run.params, run.payoff,
                               run.seed, 1, baseline)


PUT = PayoffSpec(kind="geo_basket_put", strike=100.0)


def test_baseline_at_maturity_is_the_payoff_and_at_x0_the_european_put():
    params = make_params(d=3)
    baseline = european_baseline(PUT, params, 9)
    X = sample_mu_t(params, 9, 50, substream(4, OUTER, 9))
    np.testing.assert_array_equal(baseline(9, X), payoff_batch(PUT, X))
    red = oracles.geometric_reduction(params, maturity=1.0, steps=9)
    for t in (0, 4, 8):
        tau = (9 - t) / 9.0
        expected = oracles.bs_price(red.s0, 100.0, red.r, red.q, red.sigma_hat, tau, "put")
        assert baseline(t, params.x0[None])[0] == pytest.approx(expected, rel=1e-13)
    assert european_baseline(PayoffSpec(kind="max_call", strike=100.0), params, 9) is None


@pytest.mark.parametrize("t", [0, 4, 8])
def test_discounted_baseline_is_a_martingale(t):
    # e^{-r dt} E[b_{t+1}(X_{t+1}) | x] = b_t(x) at states in, at and out of the
    # money, by 16 independent shifts of 256 Sobol points each; at t = 8 the
    # next function is the payoff, kink and all
    params = make_params(d=3)
    baseline = european_baseline(PUT, params, 9)
    X = np.array([[80.0, 90.0, 85.0], [100.0, 100.0, 100.0], [95.0, 110.0, 102.0],
                  [112.0, 108.0, 110.0]])
    rng = substream(5, INNER, t)
    means = np.array([
        continuation(X, lambda Xb: baseline(t + 1, Xb), qmc.sobol_shocks(rng, 4, 256, 3),
                     params).mean(axis=1)
        for _ in range(16)])
    se = means.std(axis=0, ddof=1) / 4.0
    assert np.all(se > 0.0)
    assert np.all(np.abs(means.mean(axis=0) - baseline(t, X)) <= 4.0 * se)


def test_call_stage_fn_is_the_clipped_value_model_bitwise():
    # b = 0 for the max-call: its stack evaluates and stores what it did before,
    # and its stage T-1 targets are the value function's, through the payoff
    run = small_run("max_call")
    stack = backward_pass(run)
    assert stack.baseline is None
    np.testing.assert_array_equal(
        _premium_stage_data(run, stack, run.steps - 1)[1],
        generate_stage_data(run.steps - 1, run.stage, stack.stage_fn(run.steps), run.params,
                            run.payoff, run.seed)[1])
    X = substream(0, 1).uniform(50.0, 200.0, size=(300, 2))
    for t in range(1, run.steps):
        expected = kernels.clipped_predict_batch(stack.models[t], X, VALUE)
        np.testing.assert_array_equal(stack.stage_fn(t)(X), expected)
        np.testing.assert_array_equal(stack.premium_fn(t)(X), expected)
    np.testing.assert_array_equal(stack.premium_fn(run.steps)(X), payoff_batch(run.payoff, X))


def test_stage_targets_equal_max_of_exercise_and_continuation():
    run = small_run()
    params, payoff, t, M = run.params, run.payoff, 1, run.stage.M
    stack = backward_pass(run)
    next_fn = stack.stage_fn(t + 1)
    X, Y = generate_stage_data(t, run.stage, next_fn, params, payoff, run.seed)
    np.testing.assert_array_equal(X, sample_mu_t(params, t, 40, substream(run.seed, OUTER, t)))
    assert Y.shape == (40, 2)
    # each state's own digital shift of the first M / 2 Sobol points, through the quantile
    shift = substream(run.seed, INNER, t).integers(0, 2**32, (40, 2), dtype=np.uint64)
    half = qmc.normal_quantile(
        ((qmc.sobol_points(M // 2, 2)[None] ^ shift[:, None]) + 0.5) * 2.0**-32)
    for i in (0, 17, 39):
        z = np.concatenate([half[i], -half[i]])
        cont = math.exp(-0.05 / 3.0) * next_fn(gbm_step(X[i], params, z)).mean()
        exercise = payoff_batch(payoff, X[i:i + 1])[0]
        assert Y[i, 0] == pytest.approx(max(exercise, cont), rel=1e-12, abs=1e-12)
        assert Y[i, 1] == pytest.approx(cont, rel=1e-12, abs=1e-12)


def test_backward_pass_fits_both_models_to_the_stage_targets():
    # f_t and c_t are the two outputs of one krr_fit of the stage's (X, Y)
    run = small_run()
    stack = backward_pass(run)
    for t in range(1, run.steps):
        X, Y = _premium_stage_data(run, stack, t)
        fit = kernels.krr_fit(X, Y, run.stage.lam, run.stage.kernel)
        np.testing.assert_array_equal(stack.models[t].coefficients, fit.coefficients)
        np.testing.assert_array_equal(stack.models[t].centers, X)
    # the put's f_T = 0: stage T-1's continuation targets are 0 and its value
    # targets the payoff's excess over the European put, where positive
    X, Y = _premium_stage_data(run, stack, run.steps - 1)
    excess = payoff_batch(run.payoff, X) - stack.baseline(run.steps - 1, X)
    assert not Y[:, CONTINUATION].any() and (excess > 0).any()
    np.testing.assert_array_equal(Y[:, VALUE], np.maximum(excess, 0.0))


def test_odd_m_rounds_up_to_one_more_draw(monkeypatch):
    # stage.M = 7 averages 4 pairs: every continuation matrix has 8 columns
    run = small_run(**{"stage.M": "7"})
    shapes = []

    def recording(*args, **kwargs):
        S = continuation(*args, **kwargs)
        shapes.append(S.shape)
        return S

    monkeypatch.setattr(bellman, "continuation", recording)
    generate_stage_data(2, run.stage, lambda Xb: payoff_batch(run.payoff, Xb),
                        run.params, run.payoff, run.seed)
    assert shapes == [(40, 8)]  # one continuation call for the whole stage


def test_antithetic_continuation_is_exact_on_an_odd_integrand():
    # log x' - log x - (r - sigma^2/2) dt is linear in z, so each pair's mean
    # of sum_k log x'_k is exact.
    params = make_params(d=3)
    X = sample_mu_t(params, 4, 25, substream(9, OUTER, 4))
    Z = substream(9, INNER, 4).standard_normal((25, 8, 3))
    cont = continuation(X, lambda Xb: np.log(Xb).sum(axis=1), Z, params).mean(axis=1)
    drift = (params.r - 0.5 * params.sigma ** 2) * params.dt
    exact = math.exp(-params.r * params.dt) * (np.log(X) + drift).sum(axis=1)
    np.testing.assert_allclose(cont, exact, rtol=1e-12)


def _one_shot_continuation(X, next_fn, Z, params):
    # the untiled formula: every next state stepped, then evaluated, at once
    n, h, d = Z.shape
    xn = gbm_step(X[:, None, :], params, Z, antithetic=True)
    return math.exp(-params.r * params.dt) * next_fn(xn.reshape(-1, d)).reshape(n, 2 * h)


# The tile the cases below are laid out for. Each test pins CONTINUATION_TILE
# to it, so the cases keep their shape when the tuned tile changes.
TILE = 2**13


@pytest.mark.parametrize("n, M", [
    (3 * (TILE // 100) + 5, 99),  # row tiles of 81 rows x 100 states, ragged last tile, odd M
    (2 * (TILE // 128), 128),  # row tiles that fill the tile exactly
    (1, 2 * TILE + 6),  # pair tiles: one row, h = TILE + 3 pairs, ragged last slice
    (3, TILE + 1),  # pair tiles over several rows, odd M, ragged last slice of 1 pair
])
def test_tiled_continuation_matches_one_shot(n, M, monkeypatch):
    # next_fn is the kernel predict, so the tile edges fall in exp2's SIMD tails;
    # positive coefficients keep every value away from cancellation.
    monkeypatch.setattr(bellman, "CONTINUATION_TILE", TILE)
    params = make_params(d=3)
    rng = substream(21, INNER, M)
    X = sample_mu_t(params, 3, n, rng)
    model = kernels.KrrModel(centers=sample_mu_t(params, 4, 37, rng),
                             coefficients=rng.uniform(0.5, 1.5, (1, 37)),
                             kernel=KernelSpec(lengthscale=20.0),
                             clip_bound=np.full(1, math.inf), loo_rms=np.full(1, math.inf))
    Z = rng.standard_normal((n, (M + 1) // 2, 3))
    sizes = []

    def predict(Xb):
        return kernels.clipped_predict_batch(model, Xb)

    def next_fn(Xb):
        sizes.append(len(Xb))
        return predict(Xb)

    tiled = continuation(X, next_fn, Z, params)
    assert len(sizes) > 1 and max(sizes) <= TILE and sum(sizes) == n * 2 * Z.shape[1]
    np.testing.assert_allclose(tiled, _one_shot_continuation(X, predict, Z, params),
                               rtol=1e-12, atol=0.0)


def test_price_at_origin_working_memory_does_not_grow_with_eval_m():
    # At eval_M = 400 000 on a d = 10 stack, what price_at_origin allocates beyond
    # its shocks and its (1, 2h) continuation matrix stays under 8 MB (71 MB untiled).
    run = small_run(**{"market.d": "10"})
    stack = backward_pass(run)
    eval_M, h = 400_000, 200_000
    tracemalloc.start()
    try:
        price_at_origin(stack, eval_M, substream(run.seed, EVAL))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - h * 10 * 8 - 2 * h * 8 < 8e6


def test_generate_stage_data_targets_dominate_exercise():
    run = small_run()
    payoff, params = run.payoff, run.params
    X, Y = generate_stage_data(2, run.stage, lambda Xb: payoff_batch(payoff, Xb),
                               params, payoff, seed=run.seed)
    assert X.shape == (40, 2) and Y.shape == (40, 2)
    assert np.all(Y[:, 0] >= payoff_batch(payoff, X) - 1e-12)


@pytest.mark.parametrize("jobs", [1, 4])
def test_stage_continuation_runs_on_the_calling_thread(jobs):
    # The jobs slot is unused: whatever it holds, every tile of the stage's
    # continuation runs on the caller's thread.
    run = small_run(**{"stage.n": "300", "stage.M": "64"})
    payoff = run.payoff
    idents = []

    def next_fn(Xb):
        idents.append(threading.get_ident())
        return payoff_batch(payoff, Xb)

    generate_stage_data(2, run.stage, next_fn, run.params, payoff, run.seed, jobs)
    assert len(idents) > 1
    assert set(idents) == {threading.get_ident()}


def test_backward_pass_structure_and_determinism():
    run = small_run()
    stack1 = backward_pass(run)
    stack2 = backward_pass(run)
    assert stack1.horizon == 3 and len(stack1.models) == 3
    # stage 0 is the point mass at x0: no model, priced by price_at_origin
    assert stack1.models[0] is None
    for t in range(1, 3):
        model = stack1.models[t]
        # one model per stage, with V_t and C_t as its two outputs
        assert model.coefficients.shape == (2, len(model.centers))
        assert model.clip_bound.shape == model.loo_rms.shape == (2,)
        np.testing.assert_array_equal(model.coefficients, stack2.models[t].coefficients)


def test_backward_pass_fits_stages_above_zero_only(monkeypatch):
    calls = []

    def counting(t, *args, **kwargs):
        calls.append(t)
        return generate_stage_data(t, *args, **kwargs)

    monkeypatch.setattr(bellman, "generate_stage_data", counting)
    backward_pass(small_run(**{"contract.steps": "4"}))
    assert calls == [3, 2, 1]


def test_stack_stage_fn_rejects_stages_outside_one_to_horizon():
    stack = backward_pass(small_run())
    for t in (0, -1, 4):
        with pytest.raises(ValueError, match="stage"):
            stack.stage_fn(t)


def test_stage_models_respect_clip_bound():
    # the premium each stage_fn adds to b_t stays within its model's clip bound
    run = small_run()
    stack = backward_pass(run)
    rng = substream(1, 2)
    X = rng.uniform(1.0, 400.0, size=(500, 2))
    for t in range(1, 3):
        preds = stack.premium_fn(t)(X)
        assert np.all(np.abs(preds) <= stack.models[t].clip_bound[VALUE] + 1e-12)
        np.testing.assert_allclose(stack.stage_fn(t)(X), stack.baseline(t, X) + preds,
                                   rtol=0.0, atol=0.0)


def test_stack_stage_fn_at_terminal_is_payoff():
    run = small_run()
    stack = backward_pass(run)
    assert stack.stage_fn(3)(np.array([[100.0, 81.0]]))[0] == pytest.approx(10.0, rel=1e-12)


def test_price_at_origin_dominates_immediate_exercise_and_is_deterministic():
    run = small_run()
    stack = backward_pass(run)
    p1 = price_at_origin(stack, 2000, substream(run.seed, 2))
    p2 = price_at_origin(stack, 2000, substream(run.seed, 2))
    assert p1 == p2
    assert p1 >= payoff_batch(run.payoff, run.params.x0[None])[0]
    assert 0.0 < p1 < 100.0


@pytest.mark.parametrize("eval_M", [0, -1])
def test_price_at_origin_rejects_fewer_than_one_draw(eval_M):
    stack = backward_pass(small_run())
    with pytest.raises(ValueError, match="eval_M must be at least 1"):
        price_at_origin(stack, eval_M, substream(1, 2))


def test_price_at_origin_averages_antithetic_pairs():
    # sum_k log x'_k is linear in z, so ten draws in five pairs give its mean
    # exactly; the price adds it, as the premium f_1, to the European put b_0(x0)
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "quick.cfg")
    stack = backward_pass(cfg)
    stack.premium_fn = lambda t: lambda X: np.log(X).sum(1)
    params = stack.params
    drift = (params.r - 0.5 * params.sigma ** 2) * params.dt
    exact = math.exp(-params.r * params.dt) * (np.log(params.x0) + drift).sum()
    european = stack.baseline(0, params.x0[None])[0]
    assert price_at_origin(stack, 10, substream(1, 2)) == pytest.approx(european + exact,
                                                                       rel=1e-12)


def test_stages_above_the_old_nystrom_size_fit_exactly(caplog):
    # quick.cfg at n = 2001: every stage fits exact KRR on all 2001 states,
    # and its factorization needs no jitter
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "quick.cfg")
    run = replace(cfg, stage=replace(cfg.stage, n=2001, M=2))
    with caplog.at_level(logging.WARNING, logger="krrdp.kernels"):
        stack = backward_pass(run)
    for t in range(1, run.steps):
        assert stack.models[t].centers.shape == (2001, 2)
    assert not any("jitter" in record.getMessage() for record in caplog.records)


def test_policy_lower_bound_basic_properties():
    run = small_run()
    stack = backward_pass(run)
    lb, se = policy_lower_bound(stack, 500, substream(run.seed, 3))
    assert lb >= 0.0 and se >= 0.0
    for paths in (1, 0):
        with pytest.raises(ValueError, match="a standard error needs two paths"):
            policy_lower_bound(stack, paths, substream(run.seed, 3))


def _nested_lower_bound(stack, paths, rng):
    # Reference rule on policy_lower_bound's draws: the nested continuation on
    # every in-the-money path, once at x0 at t = 0.
    params, payoff, T = stack.params, stack.payoff, stack.horizon
    outer = np.random.Generator(rng.bit_generator.jumped())
    x = np.tile(params.x0, (paths, 1))
    alive = np.arange(paths)
    value = np.zeros(paths)
    for t in range(T):
        C = payoff_batch(payoff, x)
        itm = np.flatnonzero(C > 0)[:1 if t == 0 else None]
        stop = np.zeros(len(C), dtype=bool)
        if itm.size:
            # b_t plus the mean of f_{t+1}, and b_t alone where f_{t+1} = 0
            premium, b = stack.premium_fn(t + 1), None
            if stack.baseline is not None:
                b = stack.baseline(t, x[itm])
            if premium is None:
                cont = b
            else:
                z = qmc.sobol_shocks(rng, itm.size, bellman.LOWER_BOUND_INNER_M, params.d)
                cont = continuation(x[itm], premium, z, params).mean(axis=1)
                if b is not None:
                    cont = b + cont
            stop[itm] = C[itm] >= cont
        if t == 0:
            stop[:] = stop[0]
        value[alive[stop]] = C[stop] * math.exp(-params.r * t * params.dt)
        alive, x = alive[~stop], x[~stop]
        if alive.size == 0:
            break
        x = gbm_step(x, params, outer.standard_normal((paths, params.d))[alive])
    if alive.size:
        value[alive] = payoff_batch(payoff, x) * math.exp(-params.r * T * params.dt)
    return float(value.mean()), float(value.std(ddof=1) / math.sqrt(paths))


def _with_bands(stack, s):
    # the stack with every s_t set to s
    def banded(model):
        loo_rms = model.loo_rms.copy()
        loo_rms[CONTINUATION] = s
        return replace(model, loo_rms=loo_rms)

    stack.models = [None] + [banded(m) for m in stack.models[1:]]
    return stack


def _recording_premium_fns(stack, monkeypatch):
    # (t, states) for each evaluation of a next premium the bound makes
    calls, premium_fn = [], stack.premium_fn

    def recording(t):
        fn = premium_fn(t)
        return fn and (lambda X: calls.append((t, len(X))) or fn(X))

    monkeypatch.setattr(stack, "premium_fn", recording)
    return calls


@pytest.mark.parametrize("payoff", ["geo_basket_put", "max_call"])
def test_policy_lower_bound_with_infinite_bands_equals_nested_rule(payoff):
    run = small_run(payoff, **{"contract.steps": "4"})
    stack = _with_bands(backward_pass(run), math.inf)
    assert (policy_lower_bound(stack, 400, substream(run.seed, 3))
            == _nested_lower_bound(stack, 400, substream(run.seed, 3)))


def test_policy_lower_bound_with_zero_bands_nests_at_t0_only(monkeypatch):
    # x0 is in the money (strike 101) and not exercised there; from t = 1 on,
    # every decision is the regression rule
    run = small_run(**{"contract.strike": "101", "contract.steps": "4"})
    stack = _with_bands(backward_pass(run), 0.0)
    calls = _recording_premium_fns(stack, monkeypatch)
    _, se = policy_lower_bound(stack, 300, substream(run.seed, 3))
    assert calls == [(1, bellman.LOWER_BOUND_INNER_M)] and se > 0.0


def test_policy_lower_bound_evaluates_no_next_state_at_t0_at_the_money(monkeypatch):
    # x0 = strike: nothing is in the money at t = 0, so stage 1 is never evaluated
    run = small_run(**{"contract.steps": "4"})
    stack = backward_pass(run)
    calls = _recording_premium_fns(stack, monkeypatch)
    policy_lower_bound(stack, 300, substream(run.seed, 3))
    assert calls and all(t >= 2 for t, _ in calls)


@pytest.mark.parametrize("strike", ["110", "200"])
def test_policy_lower_bound_decides_t0_once_in_the_money(strike, monkeypatch):
    # x0 is in the money, and one nested estimate at x0 decides for every path;
    # at strike 200 every path stops at t = 0, so the later dates walk no paths
    run = small_run(**{"contract.strike": strike})
    stack = backward_pass(run)
    calls = _recording_premium_fns(stack, monkeypatch)
    value, stderr = policy_lower_bound(stack, 300, substream(run.seed, 3))
    assert [call for call in calls if call[0] == 1] == [(1, bellman.LOWER_BOUND_INNER_M)]
    if strike == "200":
        payoff = payoff_batch(run.payoff, run.params.x0[None])[0]
        assert abs(value - payoff) < 1e-9 and stderr < 1e-9


def _krr_loo_rms(G, y, penalty):
    # refit on the other n - 1 points with the same penalty, predict the left-out one
    n = len(y)
    res = []
    for i in range(n):
        o = np.arange(n) != i
        a = np.linalg.solve(G[np.ix_(o, o)] + penalty * np.eye(n - 1), y[o])
        res.append(y[i] - G[i, o] @ a)
    return math.sqrt(np.mean(np.square(res)))


def _refit_bands(run, stack, jitter=0.0):
    # s_t by brute-force refits of each stage's continuation means, on its centres
    n, lam = run.stage.n, run.stage.lam
    bands = []
    for t in range(1, run.steps):
        X, Y = _premium_stage_data(run, stack, t)
        model = stack.models[t]
        K = kernels.gram_matrix(X, model.centers, model.kernel)
        bands.append(_krr_loo_rms(K, Y[:, 1], n * lam + jitter))
    return bands


def test_continuation_band_is_the_leave_one_out_rms_of_refits():
    run = small_run(**{"stage.n": "25", "stage.lambda": "1e-2"})
    stack = backward_pass(run)
    bands = [stack.models[t].loo_rms[CONTINUATION] for t in range(1, run.steps)]
    assert bands == pytest.approx(_refit_bands(run, stack), rel=1e-8)


def test_continuation_band_comes_from_the_jittered_factor(monkeypatch, caplog):
    # Each stage's first factorization fails and the retry adds 0.5 to the diagonal:
    # s_t is the leave-one-out RMS of that jittered system, from its one factor.
    run = small_run(**{"stage.n": "25", "stage.lambda": "1e-2"})
    factorizations = []
    inverse_factor, solve = kernels._inverse_factor, kernels._solve_spd

    def failing_first(A):
        factorizations.append(len(A))
        if len(factorizations) % 2:
            raise np.linalg.LinAlgError("not positive definite")
        return inverse_factor(A)

    monkeypatch.setattr(kernels, "_inverse_factor", failing_first)
    monkeypatch.setattr(kernels, "_solve_spd", lambda A, b, jitter: solve(A, b, 0.5))
    stack = backward_pass(run)
    assert len(factorizations) == 2 * (run.steps - 1)
    assert sum("jitter 0.5" in r.getMessage() for r in caplog.records) == run.steps - 1
    bands = [stack.models[t].loo_rms[CONTINUATION] for t in range(1, run.steps)]
    assert bands == pytest.approx(_refit_bands(run, stack, jitter=0.5), rel=1e-8)
    assert bands != pytest.approx(_refit_bands(run, stack), rel=1e-3)


def test_all_zero_stage_fits_zero_models():
    # strike 1e6: the call pays nothing, so every target and continuation mean
    # is 0, and each fit solves to alpha = 0 exactly, with clip bound 0
    run = small_run("max_call", **{"contract.strike": "1e6", "stage.n": "25"})
    stack = backward_pass(run)
    X = substream(0, 1).uniform(50.0, 200.0, size=(50, 2))
    for t in range(1, run.steps):
        model = stack.models[t]
        assert not model.coefficients.any()
        assert np.all(model.clip_bound == 0.0) and np.all(model.loo_rms == 0.0)
        for output in (VALUE, CONTINUATION):
            assert not kernels.clipped_predict_batch(model, X, output).any()
    assert policy_lower_bound(stack, 50, substream(run.seed, 3)) == (0.0, 0.0)


def _set_array(path, key, value):
    data = dict(np.load(path))
    data[key] = value
    with open(path, "wb") as f:
        np.savez(f, **data)


def test_stack_serialization_round_trip(tmp_path):
    # the put exercises at some training points, so C_t differs from V_t
    run = small_run()
    stack = backward_pass(run)
    path = tmp_path / "stack.npz"
    save_stack(stack, path)
    loaded = load_stack(path)
    assert loaded.horizon == stack.horizon
    assert loaded.payoff == stack.payoff
    rng = substream(0, 1)
    X = rng.uniform(50.0, 200.0, size=(200, 2))
    assert loaded.models[0] is None
    # format 9 stores the premium models; the baseline is rebuilt from the run's arrays
    with np.load(path) as data:
        assert int(data["version"]) == bellman.STACK_FORMAT_VERSION == 9
    for t in range(stack.horizon + 1):
        np.testing.assert_array_equal(stack.baseline(t, X), loaded.baseline(t, X))
    for t in range(1, stack.horizon + 1):
        np.testing.assert_array_equal(stack.stage_fn(t)(X), loaded.stage_fn(t)(X))
    for t in range(1, stack.horizon):
        model, back = stack.models[t], loaded.models[t]
        np.testing.assert_array_equal(model.coefficients, back.coefficients)
        np.testing.assert_array_equal(model.clip_bound, back.clip_bound)
        np.testing.assert_array_equal(model.loo_rms, back.loo_rms)
        assert model.loo_rms[CONTINUATION] != model.loo_rms[VALUE]
        assert model.loo_rms[CONTINUATION] < math.inf
        np.testing.assert_array_equal(kernels.clipped_predict_batch(model, X, CONTINUATION),
                                      kernels.clipped_predict_batch(back, X, CONTINUATION))
    assert (policy_lower_bound(loaded, 400, substream(run.seed, 3))
            == policy_lower_bound(stack, 400, substream(run.seed, 3)))
    _set_array(path, "version", 5)
    with pytest.raises(ValueError, match="version 5"):
        load_stack(path)


@pytest.mark.parametrize("name", ["lengthscale", "clip_bound", "loo_rms", "centers_3", "coef_1"])
def test_stack_with_stage_arrays_that_disagree_is_rejected(tmp_path, name):
    # A row array one row short would otherwise load a shorter horizon.
    stack = backward_pass(small_run(**{"contract.steps": "4"}))
    path = tmp_path / "stack.npz"
    save_stack(stack, path)
    data = dict(np.load(path))
    if name.startswith(("centers_", "coef_")):
        del data[name]
    else:
        data[name] = data[name][:-1]
    with open(path, "wb") as f:
        np.savez(f, **data)
    with pytest.raises(ValueError, match="stage arrays disagree"):
        load_stack(path)


def test_stack_saves_to_the_exact_path_without_npz_suffix(tmp_path):
    stack = backward_pass(small_run())
    path = tmp_path / "stack"
    save_stack(stack, path)
    assert [p.name for p in tmp_path.iterdir()] == ["stack"]
    loaded = load_stack(path)
    X = substream(0, 1).uniform(50.0, 200.0, size=(50, 2))
    for t in range(1, stack.horizon + 1):
        np.testing.assert_array_equal(stack.stage_fn(t)(X), loaded.stage_fn(t)(X))


def test_stack_files_of_two_fits_are_byte_identical(tmp_path):
    # A stack file holds the fitted models only: no wall-clock timings.
    run = small_run()
    paths = [tmp_path / "first.npz", tmp_path / "second.npz"]
    for path in paths:
        save_stack(backward_pass(run), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_stack_file_stores_each_fact_once(tmp_path):
    # T is the stage count plus one and d the length of x0, so the file holds
    # neither; lambda only says how a stage was fitted, so no model holds it.
    # Each stage is one model: its centres once and one (2, m) coefficient array.
    stack = backward_pass(small_run(**{"contract.steps": "4"}))
    path = tmp_path / "stack.npz"
    save_stack(stack, path)
    data = np.load(path)
    assert set(data.files) == {
        "version", "dt", "r", "sigma", "rho", "x0", "payoff_kind", "strike",
        "lengthscale", "clip_bound", "loo_rms",
        "centers_1", "coef_1", "centers_2", "coef_2", "centers_3", "coef_3"}
    assert data["payoff_kind"].shape == () and data["payoff_kind"].dtype.kind == "U"
    assert data["lengthscale"].shape == (3,)
    assert data["clip_bound"].shape == data["loo_rms"].shape == (3, 2)
    assert data["coef_2"].shape == (2, len(data["centers_2"]))
    assert [f.name for f in fields(kernels.KrrModel)] == [
        "centers", "coefficients", "kernel", "clip_bound", "loo_rms"]
    assert load_stack(path).params.d == stack.params.d


def test_stack_with_no_fitted_stage_round_trips(tmp_path):
    # T = 1: the file holds the run's arrays and empty per-stage ones
    run = small_run(**{"contract.steps": "1"})
    stack = backward_pass(run)
    path = tmp_path / "stack.npz"
    save_stack(stack, path)
    loaded = load_stack(path)
    assert loaded.models == [None] and loaded.payoff == stack.payoff
    assert (price_at_origin(loaded, 500, substream(run.seed, EVAL))
            == price_at_origin(stack, 500, substream(run.seed, EVAL)))


@pytest.mark.parametrize("version", [99, 8, 6], ids=["version", "format_8", "format_6"])
def test_stack_version_check(tmp_path, version):
    stack = backward_pass(small_run())
    path = tmp_path / "stack.npz"
    save_stack(stack, path)
    _set_array(path, "version", version)
    with pytest.raises(ValueError, match=f"unsupported stack format version {version}"):
        load_stack(path)


def test_stack_in_the_format_7_layout_is_rejected(tmp_path):
    # format 7 kept its scalars in a uint8 JSON header and had no version array
    stack = backward_pass(small_run())
    params, models = stack.params, stack.models[1:]
    header = {"version": 7, "dt": params.dt, "r": params.r, "payoff_kind": stack.payoff.kind,
              "strike": stack.payoff.strike,
              "stages": [{"lengthscale": m.kernel.lengthscale,
                          "clip_bound": float(m.clip_bound[VALUE]),
                          "loo_rms": float(m.loo_rms[VALUE]),
                          "continuation": {"clip_bound": float(m.clip_bound[CONTINUATION]),
                                           "loo_rms": float(m.loo_rms[CONTINUATION])}}
                         for m in models]}
    arrays = {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
              "sigma": params.sigma, "rho": params.rho, "x0": params.x0}
    for t, m in enumerate(models, start=1):
        arrays[f"centers_{t}"] = m.centers
        arrays[f"coef_{t}"] = m.coefficients[VALUE]
        arrays[f"cont_coef_{t}"] = m.coefficients[CONTINUATION]
    path = tmp_path / "stack.npz"
    with open(path, "wb") as f:
        np.savez(f, **arrays)
    with pytest.raises(ValueError, match="unsupported stack format version 7 or older"):
        load_stack(path)
