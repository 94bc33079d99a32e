import csv
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import krrdp
from krrdp import bellman, oracles
from krrdp.cli import main
from krrdp.config import config_hash, load_config
from krrdp.dynamics import LOWER, substream
from krrdp.experiments import run_benchmark


CFG_TEXT = (
    "market.d = 2\n"
    "contract.payoff = geo_basket_put\n"
    "contract.strike = 100\n"
    "contract.steps = 3\n"
    "stage.n = 40\n"
    "stage.M = 16\n"
    "repetitions = 2\n"
    "eval_M = 2000\n"
    "seed = 11\n"
)

QUICK_CFG = Path(__file__).resolve().parents[1] / "configs" / "quick.cfg"


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CFG_TEXT)
    return str(path)


def test_price_command(cfg_path, capsys):
    assert main(["price", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "price" in out and "ci95" in out and "oracle" in out


def test_price_writes_csv(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(CFG_TEXT)
    out_file = tmp_path / "row.csv"
    assert main(["price", "--config", str(path), "--out", str(out_file)]) == 0
    assert out_file.read_text().startswith("d,payoff,price,")
    with open(out_file) as fh:
        [row] = list(csv.DictReader(fh))
    assert row["payoff"] == "geo_basket_put"
    assert float(row["lower_bound"]) > 0
    # The row's provenance key is the hash of the file given, with no override.
    assert row["config_hash"] == config_hash(load_config(path))


def test_price_prints_the_bound_and_warns_when_the_price_lies_below_it(tmp_path, capsys, caplog):
    # lambda = 1e300 shrinks every premium model to 0, so the price reads the
    # European put b_0(x0); the config sets no bound key, and the bound and its
    # check run all the same.
    path = tmp_path / "degenerate.cfg"
    path.write_text(CFG_TEXT + "stage.lambda = 1e300\n")
    with caplog.at_level(logging.WARNING, logger="krrdp.experiments"):
        assert main(["price", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    cfg = load_config(path)
    red = oracles.geometric_reduction(cfg.params, maturity=cfg.maturity, steps=cfg.steps)
    european = oracles.bs_price(red.s0, 100.0, red.r, red.q, red.sigma_hat, cfg.maturity, "put")
    assert lines[0].startswith(f"price {european:.4f} ")
    assert any(line.startswith("lower_bound ") for line in lines)
    # each of the 2 x 2 stage fits also reports its zero degrees of freedom
    fits = [r for r in caplog.records if r.name == "krrdp.kernels"]
    [record] = [r for r in caplog.records if r.name != "krrdp.kernels"]
    assert "below the policy lower bound" in record.getMessage()
    assert len(fits) == 4 and all("effective degrees of freedom" in r.getMessage() for r in fits)


def test_price_seed_override_changes_result(tmp_path, capsys):
    outs = []
    for seed in (11, 99):
        path = tmp_path / f"seed{seed}.cfg"
        path.write_text(CFG_TEXT.replace("seed = 11\n", f"seed = {seed}\n"))
        assert main(["price", "--config", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] != outs[1]


def test_converge_command(cfg_path, capsys):
    assert main(["converge", "--config", cfg_path, "--n-grid", "20,40"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,lambda,M,")
    assert "spearman" in out


def test_mc_diag_command(cfg_path, capsys):
    assert main(["mc-diag", "--config", cfg_path]) == 0
    assert capsys.readouterr().out.startswith("inner_mc_se ")


def test_mc_diag_rejects_a_single_date(tmp_path, capsys):
    path = tmp_path / "one.cfg"
    path.write_text(CFG_TEXT.replace("contract.steps = 3", "contract.steps = 1"))
    assert main(["mc-diag", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "contract.steps" in err


def test_price_reports_an_oracle_tree_too_fine_to_move(tmp_path, capsys):
    # at maturity 1e-300 the binomial tree's up and down moves round to one
    path = tmp_path / "short.cfg"
    path.write_text(CFG_TEXT + "contract.maturity = 1e-300\n")
    assert main(["price", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "up and down moves coincide" in err


@pytest.mark.parametrize("command, flag, value", [
    ("converge", "--n-grid", "x"),
], ids=["n-grid-not-int"])
def test_malformed_list_argument_names_its_flag(command, flag, value, cfg_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_dump_stack_command(cfg_path, tmp_path, capsys):
    out_file = tmp_path / "stack.npz"
    assert main(["dump-stack", "--config", cfg_path, "--out", str(out_file)]) == 0
    stack = bellman.load_stack(out_file)
    assert stack.horizon == 3


def test_dumped_stack_is_the_one_behind_the_printed_lower_bound(tmp_path, capsys):
    # dump-stack writes repetition 0's stack, the one run_benchmark bounds
    out_file = tmp_path / "stack.npz"
    assert main(["dump-stack", "--config", str(QUICK_CFG), "--out", str(out_file)]) == 0
    cfg = load_config(QUICK_CFG)
    bound = bellman.policy_lower_bound(bellman.load_stack(out_file), cfg.lb_paths,
                                       substream(cfg.seed, LOWER))
    assert bound == run_benchmark(cfg).lower_bound


def test_missing_config_file_errors(capsys):
    assert main(["price", "--config", "/nonexistent/path.cfg"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_config_contents_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("market.d = 2\n")  # missing required fields
    assert main(["price", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "contract.payoff" in err


REQUIRED_ARGS = {"price": [], "converge": ["--n-grid", "20,40"], "dump-stack": ["--out", "s.npz"]}


@pytest.mark.parametrize("command, flag", [
    pytest.param("price", ["--oracle"], id="--oracle"),
    pytest.param("price", ["--seed", "99"], id="--seed"),
    pytest.param("price", ["--reps", "1"], id="--reps"),
    pytest.param("price", ["--lower-bound"], id="--lower-bound"),
    pytest.param("price", ["--jobs", "2"], id="price--jobs"),
    pytest.param("converge", ["--jobs", "2"], id="converge--jobs"),
    pytest.param("dump-stack", ["--jobs", "2"], id="dump-stack--jobs"),
])
def test_price_has_no_oracle_option(command, flag, cfg_path, capsys):
    # Every setting comes from the config file, and a command runs without one
    # that has a single value in use: the oracle is always printed for the put,
    # the lower bound always runs, no command takes a thread count, and seed
    # and repetitions are config keys.
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path, *REQUIRED_ARGS[command], *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_missing_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0


def test_import_cli_leaves_out_scipy_stats():
    # scipy.stats takes over a second to import; neither the oracles nor the
    # experiments load it at import time, so the console script starts without it
    src = str(Path(krrdp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, krrdp.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
