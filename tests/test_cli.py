import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import krrdp
from krrdp import bellman
from krrdp.cli import main
from krrdp.config import config_hash, load_config


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
    path.write_text(CFG_TEXT.replace("repetitions = 2\n", "repetitions = 1\nlower_bound = true\n"))
    out_file = tmp_path / "row.csv"
    assert main(["price", "--config", str(path), "--out", str(out_file)]) == 0
    assert out_file.read_text().startswith("d,payoff,price,")
    with open(out_file) as fh:
        [row] = list(csv.DictReader(fh))
    assert row["payoff"] == "geo_basket_put"
    assert float(row["lower_bound"]) > 0
    # The row's provenance key is the hash of the file given, with no override.
    assert row["config_hash"] == config_hash(load_config(path))


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


@pytest.mark.parametrize("command, flag, value", [
    ("converge", "--n-grid", "x"),
    ("price", "--jobs", "0"),
    ("price", "--jobs", "-3"),
], ids=["n-grid-not-int", "jobs-zero", "jobs-negative"])
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


def test_missing_config_file_errors(capsys):
    assert main(["price", "--config", "/nonexistent/path.cfg"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_config_contents_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("market.d = 2\n")  # missing required fields
    assert main(["price", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "contract.payoff" in err


@pytest.mark.parametrize("flag", [["--oracle"], ["--seed", "99"], ["--reps", "1"], ["--lower-bound"]],
                         ids=lambda flag: flag[0])
def test_price_has_no_oracle_option(flag, cfg_path, capsys):
    # Every setting comes from the config file: the oracle is always printed for
    # the put, and seed, repetitions and lower_bound are config keys.
    with pytest.raises(SystemExit) as exc:
        main(["price", "--config", cfg_path, *flag])
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
