import csv
import logging
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from krrdp import bellman, experiments, oracles
from krrdp.config import ConfigError, build_run_config, config_hash, load_config
from krrdp.dynamics import EVAL, substream
from krrdp.experiments import (
    emit_results,
    mc_error_diagnostic,
    oracle_price,
    run_benchmark,
)
from krrdp.kernels import FitError
from krrdp.payoffs import PAYOFF_KINDS, payoff_batch


def tiny_config(payoff="geo_basket_put", **overrides):
    entries = {
        "market.d": "2",
        "contract.payoff": payoff,
        "contract.strike": "100",
        "contract.steps": "3",
        "stage.n": "40",
        "stage.M": "16",
        "seed": "11",
        "repetitions": "3",
        "eval_M": "2000",
    }
    entries.update(overrides)
    return build_run_config(entries)


def test_run_benchmark_populates_result():
    cfg = tiny_config()
    res = run_benchmark(cfg)
    assert res.config is cfg
    assert res.config.params.d == 2 and res.config.payoff.kind == "geo_basket_put"
    assert len(res.per_rep_prices) == 3
    assert res.ci95[0] <= res.price_mean <= res.ci95[1]
    assert res.seconds > 0
    assert res.oracle_price is not None and 0 < res.oracle_price < 100


def test_run_benchmark_is_deterministic():
    r1 = run_benchmark(tiny_config())
    r2 = run_benchmark(tiny_config())
    assert r1.per_rep_prices == r2.per_rep_prices
    assert config_hash(r1.config) == config_hash(r2.config)


def test_repetitions_use_distinct_seeds():
    cfg = tiny_config()
    res = run_benchmark(cfg)
    assert len(set(res.per_rep_prices)) == len(res.per_rep_prices)
    runs = [experiments.repetition(cfg, rep) for rep in range(cfg.repetitions)]
    assert len({cfg.seed, *(run.seed for run in runs)}) == cfg.repetitions + 1
    assert all(replace(run, seed=cfg.seed) == cfg for run in runs)
    # run_benchmark prices repetition rep on the run repetition(cfg, rep) gives
    for run, price in zip(runs, res.per_rep_prices):
        stack = bellman.backward_pass(run)
        assert bellman.price_at_origin(stack, cfg.eval_M, substream(run.seed, EVAL)) == price


def test_lower_bound_always_attached():
    res = run_benchmark(tiny_config(lb_paths="400"))
    lb, se = res.lower_bound
    assert lb >= 0 and se > 0


def test_run_benchmark_prices_the_oracle_before_any_repetition(monkeypatch):
    # at maturity 1e-300 the binomial tree's up and down moves coincide: the run
    # fails on the oracle before it fits a single stack
    passes = []
    backward_pass = bellman.backward_pass
    monkeypatch.setattr(bellman, "backward_pass",
                        lambda run: passes.append(run) or backward_pass(run))
    with pytest.raises(ValueError, match="up and down moves coincide"):
        run_benchmark(tiny_config(**{"contract.maturity": "1e-300"}))
    assert passes == []


def test_oracle_only_for_geometric_put():
    assert oracle_price(tiny_config("max_call")) is None
    put_oracle = oracle_price(tiny_config())
    assert put_oracle is not None


EXTREMES = ["0", "1e200", "-1e200", "1e300", "-1e300", "1e-200", "-1e-200",
            "1e-300", "-1e-300", "inf", "-inf", "nan"]


def mostly(valid):
    """A valid value three times in four, else an extreme one."""
    return st.integers(0, 3).flatmap(
        lambda k: st.sampled_from(EXTREMES) if k == 0 else valid.map(repr))


STAGE_SETTINGS = st.fixed_dictionaries(
    {"contract.payoff": st.sampled_from(PAYOFF_KINDS)},
    optional={
        "stage.n": mostly(st.integers(1, 40)),
        "stage.M": mostly(st.integers(1, 16)),
        "stage.lambda": mostly(st.floats(1e-8, 1.0)),
        "stage.lengthscale": mostly(st.floats(0.5, 200.0)),
    },
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(STAGE_SETTINGS)
@example({"contract.payoff": "geo_basket_put", "stage.lengthscale": "1e300"})
def test_config_that_builds_prices_finitely(stage_settings):
    # quick.cfg's sizes: 3 dates, two repetitions
    try:
        cfg = tiny_config(**{"repetitions": "2", **stage_settings})
    except ConfigError:
        return
    try:
        res = run_benchmark(cfg)
    except FitError:
        return
    assert np.all(np.isfinite(res.per_rep_prices)) and math.isfinite(res.price_mean)


def test_convergence_study_requires_reference_for_call():
    cfg = tiny_config("max_call")
    with pytest.raises(ValueError, match="reference"):
        experiments.convergence_study(cfg, [20, 40])


def test_schedule_hyperparams_hand_values():
    lam, M = experiments.schedule_hyperparams(100)
    assert lam == pytest.approx(0.01, rel=1e-12)
    assert M == 100
    with pytest.raises(ValueError):
        experiments.schedule_hyperparams(0)


@pytest.mark.parametrize("n_grid", [[], [40], [40, 40], [20, 40, 20]])
def test_convergence_study_needs_two_distinct_sizes(n_grid):
    with pytest.raises(ValueError, match="two distinct sample sizes"):
        experiments.convergence_study(tiny_config(), n_grid)


def test_convergence_study_row_shape():
    cfg = tiny_config(repetitions="2")
    rows, rho = experiments.convergence_study(cfg, [20, 40])
    assert [r["n"] for r in rows] == [20, 40]
    assert all(r["mean_abs_err"] >= 0 for r in rows)
    assert rows[1]["lam"] < rows[0]["lam"]
    assert rows[1]["M"] > rows[0]["M"]
    assert -1.0 <= rho <= 1.0


def test_convergence_study_rho_is_spearmans(monkeypatch):
    # synthetic per-repetition prices over 5-point grids; scipy's spearmanr is the reference
    from scipy.stats import spearmanr

    rng = np.random.default_rng(5)
    fake = lambda cfg: SimpleNamespace(per_rep_prices=list(4.0 + rng.normal(0, 0.1, 3)),
                                       oracle_price=4.0)
    monkeypatch.setattr(experiments, "run_benchmark", fake)
    for _ in range(200):
        n_grid = [int(n) for n in rng.choice(np.arange(10, 1000), 5, replace=False)]
        rows, rho = experiments.convergence_study(tiny_config(), n_grid)
        reference = spearmanr(n_grid, [r["mean_abs_err"] for r in rows]).statistic
        assert rho == pytest.approx(reference, abs=1e-12)


def test_run_config_derives_maturity_and_views_one_stage_per_date():
    # contract.maturity sets dt; the oracle prices the pricer's horizon, steps * dt
    cfg = tiny_config(**{"contract.maturity": "2"})
    assert cfg.stages == (cfg.stage,) * cfg.steps  # the per-date view the benchmark reads
    assert cfg.maturity == cfg.steps * cfg.params.dt == 2.0
    red = oracles.geometric_reduction(cfg.params, maturity=2.0, steps=cfg.steps)
    assert oracle_price(cfg) == oracles.crr_binomial_american(
        red, 100.0, kind="put", tree_steps=cfg.steps * experiments.ORACLE_TREE_STEPS_PER_DATE)
    with pytest.raises(TypeError):
        replace(cfg, maturity=5.0)


def test_mc_diagnostic_measures_the_stage_targets_draws(monkeypatch):
    # The diagnostic's first continuation matrix is the one behind stage T-1's
    # targets in repetition 0, whose stack gives run_benchmark's lower bound.
    cfg = tiny_config()
    t, stage = cfg.steps - 1, cfg.stage
    calls = []
    continuation = bellman.continuation

    def recording(X, next_fn, Z, params):
        S = continuation(X, next_fn, Z, params)
        calls.append((X, S))
        return S

    monkeypatch.setattr(bellman, "continuation", recording)
    se = mc_error_diagnostic(cfg)
    monkeypatch.undo()
    assert len(calls) == experiments.MC_DIAG_REPLICATES
    X, S = calls[0]
    payoff_fn = lambda Xb: payoff_batch(cfg.payoff, Xb)
    X_run, Y_run = bellman.generate_stage_data(t, stage, payoff_fn, cfg.params, cfg.payoff,
                                               experiments.repetition(cfg, 0).seed)
    np.testing.assert_array_equal(X, X_run)
    np.testing.assert_array_equal(S.mean(axis=1), Y_run[:, 1])
    np.testing.assert_array_equal(np.maximum(payoff_fn(X), S.mean(axis=1)), Y_run[:, 0])
    assert S.shape == (stage.n, stage.M)
    # every replicate averages the same states on its own shifts; the standard
    # error is the RMS over rows of each row mean's sd across the replicates
    assert all(Xr is X and Sr.shape == S.shape and not np.array_equal(Sr, S)
               for Xr, Sr in calls[1:])
    means = np.array([Sr.mean(axis=1) for _, Sr in calls])
    assert se == math.sqrt(np.mean(means.var(axis=0, ddof=1)))


def test_mc_diagnostic_clt_scaling():
    small = mc_error_diagnostic(tiny_config(**{"stage.n": "200", "stage.M": "64"}))
    large = mc_error_diagnostic(tiny_config(**{"stage.n": "200", "stage.M": "256"}))
    # Shifted Sobol points beat 1/sqrt(M), the pseudo-random rate (a ratio of
    # sqrt(4) = 2), on the payoff's kink, but not 1/M (a ratio of 4)
    assert 2.0 <= small / large <= 4.0


def test_mc_diagnostic_measures_a_single_pair():
    # the error is read across shift replicates, so one pair per row suffices
    one, two = (mc_error_diagnostic(tiny_config(**{"stage.M": M})) for M in ("1", "2"))
    assert one == two and 0.0 < one < math.inf


def test_mc_diagnostic_rejects_a_contract_with_no_fitted_stage():
    # one date: backward_pass fits no stage, so there are no inner draws to measure
    with pytest.raises(ValueError, match="contract.steps >= 2"):
        mc_error_diagnostic(tiny_config(**{"contract.steps": "1"}))


QUICK_CFG = Path(__file__).resolve().parents[1] / "configs" / "quick.cfg"


def test_price_below_lower_bound_warns(caplog, tmp_path):
    # lambda = 1e300 shrinks every stage model to 0, so the price reads 0.0
    # against a policy lower bound near 3.8.
    path = tmp_path / "degenerate.cfg"
    path.write_text(QUICK_CFG.read_text() + "stage.lambda = 1e300\n")
    with caplog.at_level(logging.WARNING, logger="krrdp.experiments"):
        res = run_benchmark(load_config(path))
    # each of the 2 x 2 stage fits also reports its zero degrees of freedom
    fits = [r for r in caplog.records if r.name == "krrdp.kernels"]
    [record] = [r for r in caplog.records if r.name != "krrdp.kernels"]
    assert len(fits) == 4 and all("effective degrees of freedom" in r.getMessage() for r in fits)
    assert res.price_mean < 1e-6 < res.lower_bound[0]
    assert "below the policy lower bound" in record.getMessage()
    assert "stage.lambda" in record.getMessage()


@pytest.mark.parametrize("override, warns", [
    ("", False),  # 15.6 effective degrees of freedom or more at each stage
    ("stage.lengthscale = 1e6\n", True),  # a Gram matrix of ones: 1.0
    ("stage.lambda = 1e300\n", True),  # 0.0
    ("stage.lambda = 1\n", True),  # 0.6
])
def test_degenerate_stage_fits_warn(override, warns, tmp_path, caplog):
    path = tmp_path / "quick.cfg"
    path.write_text(QUICK_CFG.read_text() + override)
    with caplog.at_level(logging.WARNING, logger="krrdp.kernels"):
        bellman.backward_pass(experiments.repetition(load_config(path), 0))
    messages = [record.getMessage() for record in caplog.records]
    assert len(messages) == (2 if warns else 0)  # one per fitted stage, t = 2 and 1
    assert all("effective degrees of freedom" in message for message in messages)


def test_shipped_quick_config_does_not_warn(caplog):
    with caplog.at_level(logging.WARNING, logger="krrdp.experiments"):
        run_benchmark(load_config(QUICK_CFG))
    assert caplog.records == []


def test_emit_results_csv_round_trip(tmp_path):
    cfg = tiny_config(lb_paths="200")
    res = run_benchmark(cfg)
    path = tmp_path / "rows.csv"
    emit_results(res, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert float(row["price"]) == res.price_mean  # %.17g round-trips exactly
    assert float(row["ci_low"]) == res.ci95[0]
    assert float(row["oracle"]) == res.oracle_price
    assert float(row["lower_bound"]) == res.lower_bound[0]
    assert (int(row["d"]), row["payoff"]) == (2, "geo_basket_put")
    assert int(row["seed"]) == cfg.seed
    assert row["config_hash"] == config_hash(cfg)


def test_emit_results_leaves_a_missing_oracle_empty(tmp_path):
    res = run_benchmark(tiny_config("max_call", lb_paths="200"))
    path = tmp_path / "rows.csv"
    emit_results(res, path)
    with open(path) as fh:
        [row] = list(csv.DictReader(fh))
    assert (row["d"], row["payoff"], row["oracle"]) == ("2", "max_call", "")
    assert float(row["lower_bound"]) == res.lower_bound[0] > 0
