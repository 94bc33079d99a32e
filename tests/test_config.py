import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import krrdp
from krrdp.config import (
    ConfigError,
    DEFAULT_LAMBDA,
    PUT_LENGTHSCALE_BASE,
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
    assert cfg.stage.n == 200
    assert cfg.stage.lam == DEFAULT_LAMBDA
    assert cfg.repetitions == 10


def test_default_sample_sizes_interpolation():
    assert default_sample_sizes(2)[0] == 200
    assert default_sample_sizes(20)[0] == 800
    n10, m10 = default_sample_sizes(10)
    assert 200 < n10 < 800
    # the inner count is one power of two, so its Sobol points stay balanced
    assert m10 & (m10 - 1) == 0


def test_default_inner_sample_sizes():
    assert [default_sample_sizes(d)[1] for d in (2, 5, 10, 20)] == [64, 64, 64, 64]


def test_default_lengthscale_payoff_aware():
    assert default_lengthscale(2, "geo_basket_put") == pytest.approx(PUT_LENGTHSCALE_BASE)
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
    # One stage.<field> setting reaches every date; stage.<t>.<field> is not a key.
    entries = {**BASE, "stage.n": "50", "stage.M": "30", "stage.lambda": "0.01",
               "stage.lengthscale": "12.5"}
    cfg = build_run_config(entries)
    s = cfg.stage
    assert (s.n, s.M, s.lam, s.kernel.lengthscale) == (50, 30, 0.01, 12.5)
    with pytest.raises(ConfigError, match="unknown field 'stage.3.n'"):
        build_run_config({**BASE, "stage.3.n": "99"})


@pytest.mark.parametrize(
    "entries,match",
    [
        ({}, "market.d"),
        ({"market.d": "2", "contract.payoff": "geo_basket_put"}, "contract.strike"),
        ({**BASE, "contract.payoff": "lookback"}, "payoff"),
        ({**BASE, "market.rho": "1,0.2,0.2"}, "rho"),
        ({**BASE, "lower_bound": "true"}, "unknown field 'lower_bound'"),
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
        ({**BASE, "stage.2.clip": "0"}, "unknown field 'stage.2.clip'"),
        ({**BASE, "stage.0.n": "5"}, "unknown field 'stage.0.n'"),
        ({**BASE, "stage.lengthscale": "30,60"}, "stage.lengthscale"),
        ({**BASE, "stage.lengthscale": "0"}, "stage.lengthscale"),
        ({**BASE, "stage.lengthscale": ","}, "stage.lengthscale"),
        ({**BASE, "stage.lengthscale": "30,-5"}, "stage.lengthscale"),
        ({**BASE, "stage.lengthscale": "-1"}, "stage.lengthscale"),
        ({**BASE, "stage.lengthscale": "nan"}, "stage.lengthscale"),
        ({**BASE, "stage.lengthscale": "inf"}, "stage.lengthscale"),
        ({**BASE, "stage.lengthscale": "1e200"}, "stage.lengthscale"),
        ({**BASE, "stage.lengthscale": "1e-200"}, "stage.lengthscale"),
        ({**BASE, "stage.beta": "0.5"}, "unknown field 'stage.beta'"),
        ({**BASE, "oracle": "true"}, "unknown field 'oracle'"),
        ({**BASE, "seed": "-1"}, "seed"),
        ({**BASE, "lb_paths": "1"}, "a standard error needs two paths"),
        ({**BASE, "repetitions": "1"}, "a standard error needs two repetitions"),
        ({**BASE, "market.d": "22"}, "'market.d': at most 21 assets"),
        ({**BASE, "market.d": "1000"}, "'market.d': at most 21 assets"),
    ],
)
def test_invalid_configs_raise(entries, match):
    with pytest.raises(ConfigError, match=match):
        build_run_config(dict(entries))


def test_build_does_not_mutate_input():
    entries = dict(BASE)
    build_run_config(entries)
    assert entries == BASE


def test_mapping_values_are_read_as_their_text():
    # a library caller's numbers set the same fields as a file's text
    typed = {"market.d": 3, "contract.payoff": "max_call", "contract.strike": 110,
             "market.sigma": 0.25, "stage.n": 50, "stage.lambda": 0.01}
    text = {"market.d": "3", "contract.payoff": "max_call", "contract.strike": "110",
            "market.sigma": "0.25", "stage.n": "50", "stage.lambda": "0.01"}
    assert config_hash(build_run_config(typed)) == config_hash(build_run_config(text))
    with pytest.raises(ConfigError, match=r"field 'stage\.n'"):
        build_run_config({**BASE, "stage.n": 40.7})


# One changed value for every settable key, each away from BASE's value or default.
CHANGED = {
    "market.d": "3",
    "market.r": "0.04",
    "market.sigma": "0.25",
    "market.rho": "0.3",
    "market.x0": "90",
    "contract.payoff": "max_call",
    "contract.strike": "110",
    "contract.maturity": "2",
    "contract.steps": "5",
    "stage.n": "50",
    "stage.M": "30",
    "stage.lambda": "0.01",
    "stage.lengthscale": "12.5",
    "seed": "999",
    "repetitions": "3",
    "eval_M": "500",
    "lb_paths": "100",
}


def test_config_hash_stability_and_sensitivity():
    h1 = config_hash(build_run_config(BASE))
    h2 = config_hash(build_run_config(dict(BASE)))
    assert h1 == h2 and len(h1) == 16
    hashes = {key: config_hash(build_run_config({**BASE, key: value}))
              for key, value in CHANGED.items()}
    assert [key for key, h in hashes.items() if h == h1] == []
    assert len(set(hashes.values())) == len(CHANGED)


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


def test_load_config_rejects_a_duplicated_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("seed = 1\nmarket.d = 2\ncontract.payoff = geo_basket_put\n"
                    "contract.strike = 100\nseed = 2\n")
    with pytest.raises(ConfigError, match=r"dup.cfg:5: duplicate key 'seed', first set on line 1"):
        load_config(path)


def test_import_config_loads_neither_experiments_nor_oracles():
    # The package root re-exports nothing, so building a config imports only
    # the modules the config is made of: no experiments, oracles or scipy.stats.
    src = str(Path(krrdp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, krrdp.config; "
            "print(','.join(m for m in ('krrdp.experiments', 'krrdp.oracles', 'scipy.stats') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == ""
