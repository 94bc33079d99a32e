import csv
import math

import numpy as np
import pytest

from krrdp import experiments
from krrdp.config import build_run_config
from krrdp.dynamics import REP
from krrdp.experiments import (
    emit_results,
    mc_error_diagnostic,
    oracle_price,
    run_benchmark,
    select_lengthscale,
)


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
    assert res.d == 2 and res.payoff_kind == "geo_basket_put"
    assert len(res.per_rep_prices) == 3
    assert res.ci95[0] <= res.price_mean <= res.ci95[1]
    assert len(res.stage_timings) == 3 and res.seconds > 0
    assert res.oracle_price is not None and 0 < res.oracle_price < 100
    assert len(res.config_hash) == 16


def test_run_benchmark_is_deterministic():
    r1 = run_benchmark(tiny_config())
    r2 = run_benchmark(tiny_config())
    assert r1.per_rep_prices == r2.per_rep_prices
    assert r1.config_hash == r2.config_hash


def test_repetitions_use_distinct_seeds():
    cfg = tiny_config()
    res = run_benchmark(cfg)
    assert len(set(res.per_rep_prices)) == len(res.per_rep_prices)
    assert experiments._child_seed(11, REP, 0) != experiments._child_seed(11, REP, 1)


def test_lower_bound_attached_when_requested():
    res = run_benchmark(tiny_config(lower_bound="true", lb_paths="400"))
    lb, se = res.lower_bound
    assert lb >= 0 and se > 0


def test_oracle_only_for_geometric_put():
    assert oracle_price(tiny_config("max_call")) is None
    put_oracle = oracle_price(tiny_config())
    assert put_oracle is not None


def test_select_lengthscale_returns_grid_member_deterministically():
    cfg = tiny_config(**{"stage.lengthscale": "10,30,60"})
    a = select_lengthscale(cfg, cfg.lengthscale_grid)
    b = select_lengthscale(cfg, cfg.lengthscale_grid)
    assert a == b and a in (10.0, 30.0, 60.0)


def test_convergence_study_requires_reference_for_call():
    cfg = tiny_config("max_call")
    with pytest.raises(ValueError, match="reference"):
        experiments.convergence_study(cfg, [20, 40])


def test_convergence_study_row_shape():
    cfg = tiny_config(repetitions="2")
    rows, rho = experiments.convergence_study(cfg, [20, 40])
    assert [r["n"] for r in rows] == [20, 40]
    assert all(r["mean_abs_err"] >= 0 for r in rows)
    assert rows[1]["lam"] < rows[0]["lam"]
    assert rows[1]["M"] > rows[0]["M"]
    assert -1.0 <= rho <= 1.0


def test_mc_diagnostic_zero_at_equal_m_and_clt_scaling():
    cfg = tiny_config(**{"stage.n": "200"})
    assert mc_error_diagnostic(cfg, (64, 64)) == 0.0
    wide = mc_error_diagnostic(cfg, (25, 400))
    narrow = mc_error_diagnostic(cfg, (100, 400))
    # gaps scale like sqrt(1/M_small - 1/M_large): ratio sqrt(5) ~ 2.24
    assert 1.6 <= wide / narrow <= 2.6
    with pytest.raises(ValueError):
        mc_error_diagnostic(cfg, (400, 25))


def test_emit_results_csv_round_trip(tmp_path):
    res = run_benchmark(tiny_config(lower_bound="true", lb_paths="200"))
    path = tmp_path / "rows.csv"
    emit_results([res], "csv", path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert float(row["price"]) == res.price_mean  # %.17g round-trips exactly
    assert float(row["ci_low"]) == res.ci95[0]
    assert float(row["oracle"]) == res.oracle_price
    assert float(row["lower_bound"]) == res.lower_bound[0]
    assert int(row["seed"]) == res.seed
    assert row["config_hash"] == res.config_hash


def test_emit_results_markdown_and_empty_oracle(tmp_path):
    res = run_benchmark(tiny_config("max_call", oracle="false"))
    path = tmp_path / "rows.md"
    emit_results([res], "markdown", path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("| d |")
    assert lines[1].startswith("|---")
    assert lines[2].startswith("| 2 | max_call |")


def test_emit_results_validation(tmp_path):
    with pytest.raises(ValueError):
        emit_results([], "csv", tmp_path / "x.csv")
    res = run_benchmark(tiny_config())
    with pytest.raises(ValueError, match="format"):
        emit_results([res], "json", tmp_path / "x.json")
