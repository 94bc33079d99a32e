import numpy as np
import pytest

from krrdp.config import (
    ConfigError,
    DEFAULT_LAMBDA,
    DEFAULT_LENGTHSCALE_GRID,
    build_run_config,
    config_hash,
    default_lengthscale,
    default_sample_sizes,
    load_config,
)


BASE = {
    "market.d": "2",
    "contract.payoff": "geo_basket_put",
    "contract.strike": "100",
}


def test_default_settings():
    cfg = build_run_config(BASE)
    assert cfg.params.d == 2
    assert cfg.params.r == 0.05
    np.testing.assert_allclose(cfg.params.sigma, 0.2)
    np.testing.assert_allclose(cfg.params.x0, 100.0)
    assert cfg.params.rho[0, 1] == 0.2 and cfg.params.rho[0, 0] == 1.0
    assert cfg.maturity == 1.0 and cfg.steps == 9
    assert cfg.params.dt == pytest.approx(1.0 / 9.0)
    assert len(cfg.stages) == 9
    assert cfg.stages[0].n == 200
    assert cfg.stages[0].lam == DEFAULT_LAMBDA
    assert cfg.repetitions == 10


def test_default_sample_sizes_interpolation():
    assert default_sample_sizes(2)[0] == 200
    assert default_sample_sizes(20)[0] == 800
    n10, m10 = default_sample_sizes(10)
    assert 200 < n10 < 800
    # inner count scales with the multiplier on top of the 50..100 base
    assert default_sample_sizes(2)[1] % 50 == 0


def test_default_lengthscale_payoff_aware():
    assert default_lengthscale(2, "geo_basket_put") == pytest.approx(
        DEFAULT_LENGTHSCALE_GRID[0]
    )
    assert default_lengthscale(10, "geo_basket_put") > default_lengthscale(2, "geo_basket_put")
    assert default_lengthscale(2, "max_call") == default_lengthscale(10, "max_call")
    assert default_lengthscale(2, "max_call") > default_lengthscale(2, "geo_basket_put")


def test_scalar_broadcast_and_full_rho():
    entries = dict(BASE)
    entries["market.sigma"] = "0.1,0.3"
    entries["market.rho"] = "1,0.5,0.5,1"
    entries["market.x0"] = "90"
    cfg = build_run_config(entries)
    np.testing.assert_allclose(cfg.params.sigma, [0.1, 0.3])
    np.testing.assert_allclose(cfg.params.rho, [[1, 0.5], [0.5, 1]])
    np.testing.assert_allclose(cfg.params.x0, [90.0, 90.0])


def test_per_stage_override():
    entries = dict(BASE)
    entries["stage.n"] = "50"
    entries["stage.3.n"] = "99"
    entries["stage.3.lambda"] = "0.01"
    entries["stage.3.lengthscale"] = "12.5"
    cfg = build_run_config(entries)
    assert cfg.stages[2].n == 50
    assert cfg.stages[3].n == 99
    assert cfg.stages[3].lam == 0.01
    assert cfg.stages[3].kernel.lengthscale == 12.5
    assert cfg.stages[4].lam == DEFAULT_LAMBDA


def test_multi_value_lengthscale_becomes_grid():
    entries = dict(BASE)
    entries["stage.lengthscale"] = "30, 60"
    cfg = build_run_config(entries)
    assert cfg.lengthscale_grid == (30.0, 60.0)
    single = dict(BASE)
    single["stage.lengthscale"] = "45"
    assert build_run_config(single).lengthscale_grid is None


def test_with_lengthscale_fixes_all_stages():
    cfg = build_run_config({**BASE, "stage.lengthscale": "30,60"})
    fixed = cfg.with_lengthscale(42.0)
    assert fixed.lengthscale_grid is None
    assert all(s.kernel.lengthscale == 42.0 for s in fixed.stages)


@pytest.mark.parametrize(
    "entries,match",
    [
        ({}, "market.d"),
        ({"market.d": "2", "contract.payoff": "geo_basket_put"}, "contract.strike"),
        ({**BASE, "contract.payoff": "lookback"}, "payoff"),
        ({**BASE, "market.rho": "1,0.2,0.2"}, "rho"),
        ({**BASE, "oracle": "maybe"}, "boolean"),
        ({**BASE, "typo.key": "1"}, "unknown field"),
        ({**BASE, "contract.steps": "0"}, "steps"),
        ({**BASE, "market.d": "two"}, "market.d"),
        ({**BASE, "market.d": "0"}, "market.d"),
        ({**BASE, "eval_M": "0"}, "eval_M"),
        ({**BASE, "lb_paths": "0"}, "lb_paths"),
        ({**BASE, "market.x0": "inf"}, "x0"),
        ({**BASE, "market.r": "inf"}, "r must be finite"),
        ({**BASE, "market.sigma": "nan"}, "sigma"),
        ({**BASE, "contract.strike": "inf"}, "strike"),
        ({**BASE, "contract.maturity": "inf"}, "maturity"),
        ({**BASE, "stage.lambda": "nan"}, "lambda"),
        ({**BASE, "stage.clip": "0"}, "clip"),
        ({**BASE, "stage.clip": "-1"}, "clip"),
        ({**BASE, "stage.clip": "nan"}, "clip"),
        ({**BASE, "stage.clip": "x"}, "stage.clip"),
        ({**BASE, "stage.nystrom_m": "0"}, "nystrom_m"),
        ({**BASE, "stage.nystrom_m": "abc"}, "stage.nystrom_m"),
        ({**BASE, "stage.1.n": "x"}, "stage.1.n"),
        ({**BASE, "stage.2.clip": "0"}, "stage 2: clip"),
        ({**BASE, "stage.0.n": "5"}, "unknown field 'stage.0.n'"),
    ],
)
def test_invalid_configs_raise(entries, match):
    with pytest.raises(ConfigError, match=match):
        build_run_config(dict(entries))


def test_build_does_not_mutate_input():
    entries = dict(BASE)
    build_run_config(entries)
    assert entries == BASE


def test_config_hash_stability_and_sensitivity():
    h1 = config_hash(build_run_config(BASE))
    h2 = config_hash(build_run_config(dict(BASE)))
    assert h1 == h2 and len(h1) == 16
    h3 = config_hash(build_run_config({**BASE, "seed": "999"}))
    assert h3 != h1


def test_load_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "market.d = 2\n"
        "contract.payoff = geo_basket_put  # inline comment\n"
        "contract.strike = 100\n"
        "\n"
        "seed = 42\n"
    )
    cfg = load_config(path)
    assert cfg.seed == 42
    assert cfg.payoff.kind == "geo_basket_put"


def test_load_config_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("market.d = 2\nthis line has no equals\n")
    with pytest.raises(ConfigError, match="2"):
        load_config(path)
    path.write_text("market.d =\n")
    with pytest.raises(ConfigError, match="empty"):
        load_config(path)
