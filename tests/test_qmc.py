import math
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from krrdp import bellman, qmc
from krrdp.bellman import backward_pass, continuation, price_at_origin
from krrdp.config import load_config
from krrdp.dynamics import EVAL, substream

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def quick():
    """configs/quick.cfg and its fitted stack."""
    run = load_config(CONFIGS / "quick.cfg")
    return run, backward_pass(run)


@pytest.mark.parametrize("d", [1, 2, 5, 10, qmc.MAX_DIM])
@pytest.mark.parametrize("count", [1, 2, 16, 64, 4096])
def test_sobol_points_match_scipy_bitwise(d, count):
    from scipy.stats import qmc as scipy_qmc  # test-only: the package never imports scipy.stats

    reference = scipy_qmc.Sobol(d, scramble=False, bits=32).random(count) * 2.0**32
    np.testing.assert_array_equal(qmc.sobol_points(count, d), reference.astype(np.uint64))


def test_point_at_any_index_is_that_sobol_point():
    # the blocks past the first start from point i of the sequence
    points = qmc.sobol_points(5000, 7)
    for i in (1, 2, 3, 2047, 2048, 4096, 4097, 4999):
        np.testing.assert_array_equal(qmc._point(i, 7), points[i])


def test_normal_quantile_matches_the_standard_library():
    # the midpoints of a 2^32 grid, as the shocks use them, down to 2^-33 in
    # either tail, and a far tail (r > 5) that the shocks never reach
    k = np.concatenate([np.arange(0, 2**32, 2**32 // 40_000, dtype=np.uint64),
                        [1, 2**31 - 1, 2**32 - 1]])
    u = np.concatenate([(k + 0.5) * 2.0**-32, [1e-300, 1e-20, 1.0 - 1e-15]])
    dist = statistics.NormalDist()
    expected = np.array([dist.inv_cdf(v) for v in u])
    np.testing.assert_allclose(qmc.normal_quantile(u), expected, rtol=0, atol=4e-15)
    np.testing.assert_array_equal(qmc.normal_quantile(u[:6].reshape(2, 3)),
                                  qmc.normal_quantile(u[:6]).reshape(2, 3))


@pytest.mark.parametrize("n, M, d", [
    (1, 8192, 10),  # the x0 evaluation: runs of one row's 4096 points, 1024 a run
    (700, 32, 10),  # nested estimates: whole rows of 16 points, 102 rows a block
    (3, 20_000, qmc.MAX_DIM),  # 10 000 points in runs of 512, the last one short
    (4, 7, 2),  # a non-power-of-two count: 4 points
    (0, 32, 3),
])
def test_sobol_shocks_are_the_shifted_points_through_the_quantile(n, M, d):
    Z = qmc.sobol_shocks(np.random.default_rng(5), n, M, d)
    shift = np.random.default_rng(5).integers(0, 2**32, (n, d), dtype=np.uint64)
    u = ((qmc.sobol_points((M + 1) // 2, d)[None] ^ shift[:, None]) + 0.5) * 2.0**-32
    np.testing.assert_array_equal(Z, qmc.normal_quantile(u))


def test_rows_get_their_own_shifts_and_a_seed_gives_bitwise_equal_prices(quick):
    Z = qmc.sobol_shocks(substream(3, EVAL), 2, 64, 3)
    assert not np.any(Z[0] == Z[1])
    run, stack = quick
    prices = {price_at_origin(stack, 1024, substream(run.seed, EVAL)) for _ in range(2)}
    assert len(prices) == 1


def test_sobol_shocks_reject_dimensions_beyond_the_table():
    with pytest.raises(ValueError, match=f"at most {qmc.MAX_DIM} dimensions"):
        qmc.sobol_shocks(np.random.default_rng(0), 1, 32, qmc.MAX_DIM + 1)


def test_rqmc_x0_spread_is_below_the_pseudo_random_one_at_equal_m(quick):
    # 20 randomizations of the x0 continuation at 1024 points or draws each,
    # both averaging the stage-1 premium above the same b_0(x0)
    run, stack = quick
    x0, M = run.params.x0[None], 1024
    rqmc, pseudo = [], []
    for k in range(20):
        rqmc.append(bellman._nested(stack, 0, x0, M, substream(k, EVAL))[0])
        Z = substream(k, EVAL).standard_normal((1, M // 2, run.params.d))
        pseudo.append(continuation(x0, stack.premium_fn(1), Z, run.params).mean())
    assert np.std(rqmc) < 0.5 * np.std(pseudo)


def test_normal_cdf_matches_the_standard_library_erfc_within_a_few_ulps():
    # 0.5 erfc(-x / sqrt(2)) over [-38, 9]: from 1e-316, deep in the subnormals,
    # to 1.0. 7 ulps is the largest difference seen, in the Gaussian tail.
    x = np.concatenate([np.linspace(-38.0, 9.0, 20001), [-4.0 * math.sqrt(2.0), 0.0]])
    expected = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    np.testing.assert_array_max_ulp(qmc.normal_cdf(x), expected, maxulp=8)
    # each of erfc's three regions, on both sides of 0, and its edges
    z = np.concatenate([np.linspace(-6.0, 27.0, 20001), [-4.0, -0.46875, 0.46875, 4.0]])
    np.testing.assert_array_max_ulp(qmc._erfc(z), [math.erfc(v) for v in z], maxulp=8)
    assert qmc._erfc(np.array([np.inf, -np.inf, 30.0])).tolist() == [0.0, 2.0, 0.0]
    assert np.isnan(qmc._erfc(np.array([np.nan]))).all()


def test_package_imports_neither_scipy_stats_nor_special():
    # either would add import time and resident memory to every run's set-up
    code = ("import sys, krrdp.config, krrdp.bellman, krrdp.experiments; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
