import math

import numpy as np
import pytest

from krrdp import bellman, kernels
from krrdp.bellman import (
    StageConfig,
    backward_pass,
    continuation,
    contraction_check,
    generate_stage_data,
    load_stack,
    policy_lower_bound,
    price_at_origin,
    save_stack,
)
from krrdp.config import build_run_config
from krrdp.dynamics import INNER, OUTER, GbmParams, gbm_step, sample_mu_t, substream
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
    Z = substream(3, 0).standard_normal((3, 64, 2))
    S = continuation(X, lambda Xb: payoff_batch(payoff, Xb), Z, params)
    assert S.shape == (3, 64)
    for i in range(3):
        manual = math.exp(-0.05 / 9.0) * payoff_batch(payoff, gbm_step(X[i], params, Z[i]))
        np.testing.assert_allclose(S[i], manual, rtol=1e-12, atol=1e-12)


def test_stage_targets_equal_max_of_exercise_and_continuation():
    run = small_run()
    params, payoff, t, M = run.params, run.payoff, 1, run.stages[1].M
    stack = backward_pass(run)
    next_fn = stack.stage_fn(t + 1)
    X, y = generate_stage_data(t, run.stages[t], next_fn, params, payoff, run.seed)
    np.testing.assert_array_equal(X, sample_mu_t(params, t, 40, substream(run.seed, OUTER, t)))
    for i in (0, 17, 39):
        half = substream(run.seed, INNER, t, i).standard_normal((M // 2, 2))
        z = np.concatenate([half, -half])
        cont = math.exp(-0.05 / 3.0) * next_fn(gbm_step(X[i], params, z)).mean()
        exercise = payoff_batch(payoff, X[i:i + 1])[0]
        assert y[i] == pytest.approx(max(exercise, cont), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("M", [8, 7])
def test_inner_normals_are_antithetic_pairs_from_each_points_substream(M):
    seed, t, idx, d = 5, 2, [3, 0, 11], 3
    H = (M + 1) // 2
    Z = bellman._inner_normals(seed, t, idx, M, d)
    assert Z.shape == (3, M, d)
    for j, i in enumerate(idx):
        np.testing.assert_array_equal(Z[j, :H],
                                      substream(seed, INNER, t, i).standard_normal((H, d)))
    np.testing.assert_array_equal(Z[:, H:], -Z[:, :M - H])


def test_antithetic_continuation_is_exact_on_an_odd_integrand():
    # log x' - log x - (r - sigma^2/2) dt is linear in z, so each pair's mean
    # of sum_k log x'_k is exact.
    params = make_params(d=3)
    X = sample_mu_t(params, 4, 25, substream(9, OUTER, 4))
    Z = bellman._inner_normals(9, 4, range(25), 16, 3)
    cont = continuation(X, lambda Xb: np.log(Xb).sum(axis=1), Z, params).mean(axis=1)
    drift = (params.r - 0.5 * params.sigma ** 2) * params.dt
    exact = math.exp(-params.r * params.dt) * (np.log(X) + drift).sum(axis=1)
    np.testing.assert_allclose(cont, exact, rtol=1e-12)


def test_generate_stage_data_targets_dominate_exercise():
    run = small_run()
    payoff, params = run.payoff, run.params
    X, y = generate_stage_data(2, run.stages[2], lambda Xb: payoff_batch(payoff, Xb),
                               params, payoff, seed=run.seed)
    assert X.shape == (40, 2) and y.shape == (40,)
    assert np.all(y >= payoff_batch(payoff, X) - 1e-12)


@pytest.mark.parametrize("jobs", [4, 8])
def test_generate_stage_data_bitwise_thread_invariance(jobs):
    run = small_run()
    payoff, params = run.payoff, run.params
    next_fn = lambda Xb: payoff_batch(payoff, Xb)
    X1, y1 = generate_stage_data(2, run.stages[2], next_fn, params, payoff, run.seed, n_jobs=1)
    Xj, yj = generate_stage_data(2, run.stages[2], next_fn, params, payoff, run.seed, n_jobs=jobs)
    np.testing.assert_array_equal(X1, Xj)
    np.testing.assert_array_equal(y1, yj)


def test_generate_stage_data_rejects_zero_jobs():
    run = small_run()
    payoff = run.payoff
    with pytest.raises(ValueError):
        generate_stage_data(2, run.stages[2], lambda Xb: payoff_batch(payoff, Xb),
                            run.params, payoff, run.seed, n_jobs=0)


def test_generate_stage_data_kernel_targets_bitwise_across_jobs():
    # The next function is the fitted stage T-1 model: its predict is where
    # BLAS rounding could follow the thread blocks.
    run = small_run(**{"market.d": "5", "stage.n": "300", "stage.M": "64"})
    stack = backward_pass(run)
    t = 1
    results = [generate_stage_data(t, run.stages[t], stack.stage_fn(t + 1), run.params,
                                   run.payoff, run.seed, n_jobs=jobs) for jobs in (1, 2, 4)]
    for X, y in results[1:]:
        np.testing.assert_array_equal(results[0][0], X)
        np.testing.assert_array_equal(results[0][1], y)


def test_backward_pass_structure_and_determinism():
    run = small_run()
    stack1 = backward_pass(run)
    stack2 = backward_pass(run)
    assert stack1.horizon == 3 and len(stack1.models) == 3
    # stage 0 is the point mass at x0: no model, priced by price_at_origin
    assert stack1.models[0] is None
    for t in range(1, 3):
        assert stack1.models[t].clip_bound is not None
        if stack1.models[t].constant is None:
            np.testing.assert_array_equal(stack1.models[t].coefficients,
                                          stack2.models[t].coefficients)
        else:
            assert stack1.models[t].constant == stack2.models[t].constant


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
    run = small_run()
    stack = backward_pass(run)
    rng = substream(1, 2)
    X = rng.uniform(1.0, 400.0, size=(500, 2))
    for t in range(1, 3):
        preds = stack.stage_fn(t)(X)
        assert np.all(np.abs(preds) <= stack.models[t].clip_bound + 1e-12)


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


def test_nystrom_stage_fit_uses_fewer_centers(monkeypatch):
    # n = 40 is above the threshold, so each stage fits Nystrom with 15 centres
    monkeypatch.setattr(bellman, "NYSTROM_AUTO_THRESHOLD", 15)
    run = small_run()
    stack = backward_pass(run)
    for t in range(1, 3):
        assert stack.models[t].centers.shape[0] == 15


def test_policy_lower_bound_basic_properties():
    run = small_run()
    stack = backward_pass(run)
    lb, se = policy_lower_bound(stack, 500, substream(run.seed, 3))
    assert lb >= 0.0 and se >= 0.0
    lb1, se1 = policy_lower_bound(stack, 1, substream(run.seed, 3))
    assert se1 == 0.0
    with pytest.raises(ValueError):
        policy_lower_bound(stack, 0, substream(run.seed, 3))


def _all_paths_lower_bound(stack, paths, rng):
    # Reference rule: the continuation on every alive path, in the money or not.
    params, payoff, T = stack.params, stack.payoff, stack.horizon
    x = np.tile(params.x0, (paths, 1))
    alive = np.arange(paths)
    value = np.zeros(paths)
    for t in range(T):
        if alive.size == 0:
            break
        C = payoff_batch(payoff, x)
        z = rng.standard_normal((x.shape[0], bellman.LOWER_BOUND_INNER_M, params.d))
        cont = continuation(x, stack.stage_fn(t + 1), z, params).mean(axis=1)
        stop = (C > 0) & (C >= cont)
        value[alive[stop]] = C[stop] * math.exp(-params.r * t * params.dt)
        alive, x = alive[~stop], x[~stop]
        if alive.size:
            x = gbm_step(x, params, rng.standard_normal((alive.size, params.d)))
    if alive.size:
        value[alive] = payoff_batch(payoff, x) * math.exp(-params.r * T * params.dt)
    return float(value.mean()), float(value.std(ddof=1) / math.sqrt(paths))


@pytest.mark.parametrize("payoff", ["geo_basket_put", "max_call"])
def test_policy_lower_bound_equals_all_paths_rule(payoff):
    run = small_run(payoff, **{"contract.steps": "4"})
    stack = backward_pass(run)
    assert (policy_lower_bound(stack, 400, substream(run.seed, 3))
            == _all_paths_lower_bound(stack, 400, substream(run.seed, 3)))


def test_policy_lower_bound_skips_continuation_out_of_the_money(monkeypatch):
    # x0 = strike: nothing is in the money at t = 0, so no next state is evaluated
    states = []

    def counting(X, next_fn, Z, params):
        states.append(Z.shape[0] * Z.shape[1])
        return continuation(X, next_fn, Z, params)

    run = small_run()
    stack = backward_pass(run)
    monkeypatch.setattr(bellman, "continuation", counting)
    policy_lower_bound(stack, 300, substream(run.seed, 3))
    assert len(states) == run.steps and states[0] == 0


def test_contraction_check_holds_on_sample_triples():
    params = make_params()
    payoff = PayoffSpec(kind="geo_basket_put", strike=100.0)
    f = lambda X: np.minimum(payoff_batch(payoff, X) * 1.1, 40.0)
    g = lambda X: payoff_batch(payoff, X)
    for seed in range(5):
        lhs, rhs = contraction_check(f, g, t=3, n_eval=64, M=16,
                                     params=params, payoff=payoff,
                                     rng=substream(seed, 0))
        assert lhs <= rhs + 1e-12


def test_stack_serialization_round_trip(tmp_path):
    run = small_run(payoff="max_call")
    stack = backward_pass(run)
    path = tmp_path / "stack.npz"
    save_stack(stack, path)
    loaded = load_stack(path)
    assert loaded.horizon == stack.horizon
    assert loaded.payoff == stack.payoff
    rng = substream(0, 1)
    X = rng.uniform(50.0, 200.0, size=(200, 2))
    assert loaded.models[0] is None
    for t in range(1, stack.horizon + 1):
        np.testing.assert_array_equal(stack.stage_fn(t)(X), loaded.stage_fn(t)(X))


def test_stack_round_trip_keeps_a_constant_stage(tmp_path):
    stack = backward_pass(small_run())
    stack.models[1] = kernels.constant_model(3.25, KernelSpec(lengthscale=20.0), 1e-6,
                                             clip_bound=2.5)
    path = tmp_path / "stack.npz"
    save_stack(stack, path)
    loaded = load_stack(path)
    assert loaded.models[1].constant == 3.25 and loaded.models[1].clip_bound == 2.5
    assert loaded.models[2].constant is None
    X = substream(0, 1).uniform(50.0, 200.0, size=(50, 2))
    for t in range(1, stack.horizon + 1):
        np.testing.assert_array_equal(stack.stage_fn(t)(X), loaded.stage_fn(t)(X))


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


def test_stack_version_check(tmp_path):
    run = small_run()
    stack = backward_pass(run)
    path = tmp_path / "stack.npz"
    save_stack(stack, path)
    import json

    data = dict(np.load(path))
    header = json.loads(bytes(data["header"]).decode())
    header["version"] = 99
    data["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(path, **data)
    with pytest.raises(ValueError, match="version"):
        load_stack(path)
