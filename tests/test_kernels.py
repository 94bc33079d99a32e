import logging
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from krrdp import kernels
from krrdp.kernels import FitError, KernelSpec, KrrModel


SPEC = KernelSpec(lengthscale=5.0)


def test_rbf_gram_hand_value():
    # ||(0,0)-(3,4)|| = 5, lengthscale 5 -> exp(-25 / 50) = exp(-1/2)
    G = kernels.gram_matrix([[0.0, 0.0]], [[3.0, 4.0]], SPEC)
    assert G[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_rbf_gram_symmetry_and_bounds():
    rng = np.random.default_rng(0)
    X, Y = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
    G = kernels.gram_matrix(X, Y, SPEC)
    np.testing.assert_allclose(G, kernels.gram_matrix(Y, X, SPEC).T, rtol=1e-14)
    assert np.all((G > 0.0) & (G <= 1.0))


def test_gram_matrix_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernels.gram_matrix([[1.0]], [[1.0, 2.0]], SPEC)


def test_gram_accepts_non_contiguous_input():
    big = np.random.default_rng(3).normal(size=(20, 8))
    X = big[::2, ::2]  # non-contiguous view
    np.testing.assert_allclose(np.diag(kernels.gram_matrix(X, X, SPEC)), 1.0)


def test_predict_chunking_consistent():
    # 5000 rows against 1000 centres: 65-row blocks of 2**16 kernel values,
    # 76 whole blocks and a ragged 60-row tail
    rng = np.random.default_rng(2)
    model = kernels.krr_fit(rng.normal(size=(1000, 2)), rng.normal(size=(1000, 1)), 1e-3, SPEC)
    X = rng.normal(size=(5000, 2))
    direct = kernels.gram_matrix(X, model.centers, SPEC) @ model.coefficients[0]
    np.testing.assert_allclose(kernels.predict_batch(model, X), direct, rtol=1e-12, atol=1e-12)


def test_predict_takes_empty_batches_and_rejects_1d_ones():
    model = kernels.krr_fit([[0.0], [1.0], [3.0]], [[1.0], [2.0], [0.5]], 1e-3, SPEC)
    assert kernels.predict_batch(model, np.empty((0, 1))).shape == (0,)
    with pytest.raises(ValueError, match=r"\(n, d\)"):
        kernels.predict_batch(model, np.array([0.5, 2.0, -4.0]))


def test_predict_with_more_centers_than_a_block_holds():
    # 2**16 + 5 centres: each block is a single row
    rng = np.random.default_rng(6)
    centers = rng.normal(size=(2**16 + 5, 2))
    model = KrrModel(centers=centers, coefficients=rng.normal(size=(1, len(centers))),
                     kernel=SPEC, clip_bound=np.full(1, math.inf), loo_rms=np.full(1, math.inf))
    X = rng.normal(size=(3, 2))
    direct = kernels.gram_matrix(X, centers, SPEC) @ model.coefficients[0]
    np.testing.assert_allclose(kernels.predict_batch(model, X), direct, rtol=1e-12, atol=1e-12)


def test_rbf_gram_fills_out_as_gram_matrix_allocates():
    rng = np.random.default_rng(7)
    X, Y = rng.normal(size=(30, 3)), rng.normal(size=(20, 3))
    buf = np.full((40, 20), np.nan)
    G = kernels._rbf_gram(*kernels._lifted(X, Y, SPEC.lengthscale), out=buf[:30])
    assert np.shares_memory(G, buf) and G.shape == (30, 20)
    np.testing.assert_array_equal(G, kernels.gram_matrix(X, Y, SPEC))
    assert np.isnan(buf[30:]).all()


def _price_scale_points(rng, n, d):
    return 100.0 * np.exp(0.2 * rng.normal(size=(n, d)))


def _direct_gram(X, Y, lengthscale):
    return np.exp(-((X[:, None] - Y[None]) ** 2).sum(-1) / (2 * lengthscale**2))


# Max absolute error against the direct pairwise formula on price-scale points
# (x ~ 100). Each bound is below what unshifted norms (||x||^2 + ||y||^2 - 2 x.y)
# reach on this data, and at least twice the error of the shifted lift.
PRICE_SCALE_TOL = {  # lengthscale: (gram, diagonal, predict)
    1.0: (1e-12, 5e-12, 1e-12),
    5.0: (1e-13, 2e-13, 1e-13),
    42.0: (3e-15, 3e-15, 2e-14),
}


@pytest.mark.parametrize("lengthscale", sorted(PRICE_SCALE_TOL))
@pytest.mark.parametrize("d", [2, 10])
def test_kernel_matches_direct_formula_at_price_scale(d, lengthscale):
    gram_tol, diag_tol, predict_tol = PRICE_SCALE_TOL[lengthscale]
    rng = np.random.default_rng([11, d])
    X, Y = _price_scale_points(rng, 800, d), _price_scale_points(rng, 200, d)
    spec = KernelSpec(lengthscale=lengthscale)
    direct = _direct_gram(X, Y, lengthscale)
    assert np.abs(kernels.gram_matrix(X, Y, spec) - direct).max() <= gram_tol
    assert np.abs(np.diag(kernels.gram_matrix(Y, Y, spec)) - 1.0).max() <= diag_tol
    model = KrrModel(centers=Y, coefficients=rng.normal(size=(1, len(Y))), kernel=spec,
                     clip_bound=np.full(1, math.inf), loo_rms=np.full(1, math.inf))
    assert np.abs(kernels.predict_batch(model, X) - direct @ model.coefficients[0]).max() <= predict_tol


def test_smallest_lengthscale_gives_identity_gram_without_overflow_warning():
    # l^2 is just above the smallest normal float: the 1/l^2 scale overflows to -inf,
    # whose exp is the exact limit 0
    X = _price_scale_points(np.random.default_rng(6), 5, 2)
    spec = KernelSpec(lengthscale=1.4918e-154)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        G = kernels.gram_matrix(X, X, spec)
        model = kernels.krr_fit(X, X[:, :1], 0.0, spec)
    np.testing.assert_array_equal(G[~np.eye(5, dtype=bool)], 0.0)
    np.testing.assert_array_equal(model.coefficients[0], X[:, 0])  # the fitted Gram is I


@pytest.mark.parametrize("lengthscale", [1.4918e-154, 1e-150, 1e-8, 1e-6])
def test_predict_at_tiny_lengthscale_is_finite_and_within_unit_bounds(lengthscale):
    # Far below the points' spacing every off-diagonal kernel value is 0, so a
    # unit-coefficient model predicts within [0, 1], at its own centres too,
    # where cancellation can make the exponent positive; near the floor the
    # folded scale is capped so that the GEMM stays finite.
    rng = np.random.default_rng(13)
    centers = _price_scale_points(rng, 50, 10)
    model = KrrModel(centers=centers, coefficients=np.ones((1, 50)),
                     kernel=KernelSpec(lengthscale=lengthscale),
                     clip_bound=np.full(1, math.inf), loo_rms=np.full(1, math.inf))
    for X in (centers, _price_scale_points(rng, 200, 10)):
        values = kernels.predict_batch(model, X)
        assert np.all(np.isfinite(values) & (values >= 0.0) & (values <= 1.0))


@pytest.mark.parametrize("lengthscale", [1e-6, 1e-150])
@pytest.mark.parametrize("d", [2, 10])
def test_fitted_gram_diagonal_is_exactly_one(d, lengthscale, monkeypatch, caplog):
    # The lifted GEMM loses ||x - x||^2 = 0 to cancellation on price-scale points;
    # far below their spacing the fitted Gram matrix and Kmm are the identity.
    rng = np.random.default_rng([12, d])
    X, y = _price_scale_points(rng, 400, d), rng.normal(size=(400, 1))
    spec = KernelSpec(lengthscale=lengthscale)
    systems = []
    solve = kernels._solve_spd

    def recording(system, b, jitter_scale):
        systems.append(system())
        return solve(system, b, jitter_scale)

    monkeypatch.setattr(kernels, "_solve_spd", recording)
    with caplog.at_level(logging.WARNING, logger="krrdp.kernels"):
        kernels.krr_fit(X, y, 0.0, spec)
        kernels.nystrom_fit(X, y, 1e-3, spec, 50, np.random.default_rng(0))
    exact, nystrom = systems
    assert np.all(np.diag(exact) == 1.0)  # lambda = 0: the system is the Gram matrix
    assert np.all(np.diag(nystrom) == 1.0 + 1e-3 * 400)  # Knm'Knm + lambda n Kmm
    assert caplog.records == []
    assert np.all(np.diag(kernels.gram_matrix(X, X, spec)) == 1.0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(lengthscale=0.0)
    with pytest.raises(TypeError):  # the RBF is the only kernel; there is no kind to pick
        KernelSpec(lengthscale=1.0, kind="matern")


def test_gram_matrix_is_psd_and_unit_diagonal():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 3))
    G = kernels.gram_matrix(X, X, SPEC)
    assert np.allclose(np.diag(G), 1.0)
    assert np.allclose(G, G.T)
    assert np.linalg.eigvalsh(G).min() >= -1e-10


def test_gram_matrix_rejects_1d_inputs():
    # [0, 5] is one 2-d state or two 1-d ones: only the (n, d) layout says which
    for X, Y in (([0.0, 5.0], [[0.0]]), ([[0.0], [5.0]], [0.0])):
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            kernels.gram_matrix(np.array(X), np.array(Y), SPEC)
    G = kernels.gram_matrix(np.array([[0.0], [5.0]]), np.array([[0.0]]), SPEC)
    assert G[1, 0] == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_krr_single_point_hand_solution():
    # G = [[1]]; (1 + lam*1) alpha = y  ->  alpha = 3 / 1.5 = 2
    model = kernels.krr_fit([[2.0]], [[3.0]], 0.5, SPEC)
    assert model.coefficients[0, 0] == pytest.approx(2.0, rel=1e-12)
    near, far = kernels.predict_batch(model, [[2.0], [200.0]])
    assert near == pytest.approx(2.0, rel=1e-12)
    # far from the single center the prediction decays toward 0
    assert abs(far) < 1e-10


def test_krr_interpolation_limit():
    rng = np.random.default_rng(2)
    X = rng.uniform(-3, 3, size=(8, 2))
    y = rng.normal(size=8)
    model = kernels.krr_fit(X, y[:, None], 0.0, KernelSpec(lengthscale=1.0))
    np.testing.assert_allclose(kernels.predict_batch(model, X), y, atol=1e-8)


def test_krr_normal_equation_residual():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    lam = 1e-6
    model = kernels.krr_fit(X, y[:, None], lam, KernelSpec(lengthscale=2.0))
    G = kernels.gram_matrix(X, X, model.kernel)
    resid = (G + lam * 50 * np.eye(50)) @ model.coefficients[0] - y
    assert np.linalg.norm(resid) / np.linalg.norm(y) <= 1e-8


def test_krr_regularization_shrinks_predictions():
    X = np.array([[0.0], [1.0]])
    y = np.array([1.0, 1.0])
    small = kernels.krr_fit(X, y[:, None], 1e-8, SPEC)
    big = kernels.krr_fit(X, y[:, None], 10.0, SPEC)
    at_half = [[0.5]]
    assert abs(kernels.predict_batch(big, at_half)[0]) < abs(kernels.predict_batch(small, at_half)[0])


def test_krr_input_validation():
    with pytest.raises(ValueError):
        kernels.krr_fit(np.empty((0, 1)), np.empty((0, 1)), 1e-6, SPEC)
    with pytest.raises(ValueError):
        kernels.krr_fit([[1.0]], [[1.0], [2.0]], 1e-6, SPEC)
    with pytest.raises(ValueError):
        kernels.krr_fit([[1.0]], [[1.0]], -1.0, SPEC)
    with pytest.raises(ValueError, match=r"\(n, k\)"):
        kernels.krr_fit([[1.0]], [1.0], 1e-6, SPEC)


@pytest.mark.parametrize("nystrom", [False, True])
@pytest.mark.parametrize("where, value", [("state", np.nan), ("target", np.nan),
                                          ("state", np.inf), ("state", -np.inf),
                                          ("target", np.inf)])
def test_fits_reject_a_non_finite_state_or_target(nystrom, where, value):
    # checked up front: a NaN would give NaN coefficients silently, and an
    # infinite state would centre the Gram matrix's rows by inf - inf
    rng = np.random.default_rng(8)
    X, y = rng.normal(size=(10, 2)), rng.normal(size=(10, 2))
    (X if where == "state" else y)[4, 1] = value
    with pytest.raises(ValueError, match="infs or NaNs"):
        if nystrom:
            kernels.nystrom_fit(X, y, 1e-3, SPEC, 5, np.random.default_rng(0))
        else:
            kernels.krr_fit(X, y, 1e-3, SPEC)


def test_unfactorizable_system_raises_fit_error():
    with pytest.raises(FitError, match="raise lambda"):
        kernels._solve_spd(lambda: -np.eye(3), np.ones(3), 1e-10)


@pytest.mark.parametrize("n", [1, 50, 467, 10])
def test_krr_fit_inverse_diagonal_matches_dpotri(n, monkeypatch, caplog):
    # krr_fit reads diag(A^-1) from L^-1: it equals the diagonal of LAPACK's
    # whole A^-1 (dpotri) of the system solved, rebuilt here, on the
    # jitter-retry path too (n = 10: ten copies of one point at lambda = 0,
    # and the retry adds 1e-10 to the diagonal)
    rng = np.random.default_rng(n)
    jitter = n == 10
    X = np.zeros((n, 1)) if jitter else _price_scale_points(rng, n, 10)
    lam, spec = 0.0 if jitter else 1e-6, KernelSpec(lengthscale=30.0)
    seen = []
    inverse_diagonal = kernels._inverse_diagonal

    def recording(inverse):
        seen.append(inverse_diagonal(inverse))
        return seen[-1]

    monkeypatch.setattr(kernels, "_inverse_diagonal", recording)
    with caplog.at_level(logging.WARNING, logger="krrdp.kernels"):
        kernels.krr_fit(X, rng.normal(size=(n, 2)), lam, spec)
    A = kernels.gram_matrix(X, X, spec)
    A.flat[::n + 1] += lam * n + (1e-10 if jitter else 0.0)
    full = scipy.linalg.lapack.dpotri(scipy.linalg.cho_factor(A, lower=True)[0], lower=1)[0]
    got, = seen
    np.testing.assert_allclose(got, np.diag(full), rtol=1e-12, atol=0.0)
    assert any("jitter" in r.getMessage() for r in caplog.records) == jitter


@pytest.mark.parametrize("n", [1, 64, 65, 97, 467])
def test_inverse_factor_is_the_inverse_cholesky_factor_in_place(n):
    # n = 64 is the largest unsplit block; 65 splits into 43 + 22, 97 into
    # 64 + 33, and 467 into 311 + 156, each block above 64 rows split again
    rng = np.random.default_rng(n)
    B = rng.normal(size=(n, n))
    A = B @ B.T / n + np.eye(n)
    expected = np.linalg.inv(np.linalg.cholesky(A))
    inverse = kernels._inverse_factor(A)
    assert inverse is A
    assert not np.triu(A, 1).any()
    np.testing.assert_allclose(np.tril(A), np.tril(expected), rtol=0.0,
                               atol=1e-13 * np.abs(expected).max())


def test_krr_fit_working_memory_is_one_gram_matrix():
    # The Gram matrix takes lambda n on its diagonal and is overwritten by its
    # inverse factor in place; beside it, one block product of at most 2 n^2 / 9
    # entries at a time and O(n) arrays.
    n = 1000
    rng = np.random.default_rng(2)
    X, y = _price_scale_points(rng, n, 10), rng.normal(size=(n, 2))
    tracemalloc.start()
    try:
        kernels.krr_fit(X, y, 1e-6, KernelSpec(lengthscale=30.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * n * 8


def test_jitter_retry_rescues_singular_gram(caplog):
    # duplicated points with lambda = 0: the Gram matrix is exactly singular,
    # the jitter retry must still produce a usable (non-FitError) solve
    X = np.zeros((10, 1))
    y = np.ones((10, 1))
    with caplog.at_level(logging.WARNING, logger="krrdp.kernels"):
        model = kernels.krr_fit(X, y, 0.0, SPEC)
    assert np.isfinite(model.coefficients).all()
    # trace(G) / n = 1, so the retry adds 1e-10 to the diagonal; ten copies of
    # one point leave the fit 1 effective degree of freedom, which is reported too
    record, degenerate = caplog.records
    assert record.levelno == logging.WARNING and "jitter 1e-10" in record.getMessage()
    assert "has 1 effective degrees of freedom" in degenerate.getMessage()


def test_nystrom_full_subset_matches_exact_krr():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 3))
    y = rng.normal(size=(60, 1))
    spec = KernelSpec(lengthscale=2.0)
    exact = kernels.krr_fit(X, y, 1e-4, spec)
    nys = kernels.nystrom_fit(X, y, 1e-4, spec, m=60, rng=np.random.default_rng(0))
    Xq = rng.normal(size=(20, 3))
    np.testing.assert_allclose(
        kernels.predict_batch(nys, Xq), kernels.predict_batch(exact, Xq), atol=1e-6
    )


def test_nystrom_close_to_exact_with_many_centers():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 2))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=200)
    spec = KernelSpec(lengthscale=1.0)
    exact = kernels.krr_fit(X, y[:, None], 1e-3, spec)
    nys = kernels.nystrom_fit(X, y[:, None], 1e-3, spec, m=150, rng=np.random.default_rng(1))
    Xq = rng.normal(size=(50, 2))
    err = np.max(np.abs(kernels.predict_batch(nys, Xq) - kernels.predict_batch(exact, Xq)))
    assert err < 5e-2


def test_nystrom_center_count_validation():
    X = np.zeros((5, 1))
    y = np.zeros((5, 1))
    with pytest.raises(ValueError, match="center count"):
        kernels.nystrom_fit(X, y, 1e-6, SPEC, m=6, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="center count"):
        kernels.nystrom_fit(X, y, 1e-6, SPEC, m=0, rng=np.random.default_rng(0))


def _nystrom_loo_rms(K, P, y):
    # ridge regression on the features K with penalty matrix P, refit on the
    # other n - 1 points, predicting the left-out one
    n = len(y)
    res = []
    for i in range(n):
        o = np.arange(n) != i
        a = np.linalg.solve(K[o].T @ K[o] + P, K[o].T @ y[o])
        res.append(y[i] - K[i] @ a)
    return math.sqrt(np.mean(np.square(res)))


def _nystrom_problem():
    # 25 put-like states in 2-d, two target columns, 15 centres at lambda = 1e-2
    rng = np.random.default_rng(7)
    X = 100.0 * np.exp(0.2 * rng.normal(size=(25, 2)))
    payoff = np.maximum(100.0 - np.sqrt(X.prod(axis=1)), 0.0)
    Y = np.column_stack((payoff + rng.uniform(0.0, 2.0, 25), 3.0 + 0.05 * (X[:, 0] - 100.0)))
    return X, Y, 1e-2, KernelSpec(lengthscale=40.0 / math.sqrt(2.0)), 15


def _refit_nystrom_bands(model, X, Y, lam, jitter=0.0):
    # each column's loo_rms by brute-force refits on the fitted centres
    centers, spec, n = model.centers, model.kernel, len(X)
    K = kernels.gram_matrix(X, centers, spec)
    K[np.all(X[:, None] == centers[None], axis=2)] = 1.0
    P = n * lam * kernels.gram_matrix(centers, centers, spec) + jitter * np.eye(len(centers))
    return [_nystrom_loo_rms(K, P, y) for y in Y.T]


def test_nystrom_loo_rms_is_the_leave_one_out_rms_of_refits():
    X, Y, lam, spec, m = _nystrom_problem()
    model = kernels.nystrom_fit(X, Y, lam, spec, m, np.random.default_rng(0))
    assert list(model.loo_rms) == pytest.approx(
        _refit_nystrom_bands(model, X, Y, lam), rel=1e-8)


def test_nystrom_loo_rms_comes_from_the_jittered_factor(monkeypatch, caplog):
    # The first factorization fails and the retry adds 0.5 to the diagonal:
    # loo_rms is that of the jittered system, from its one factor.
    X, Y, lam, spec, m = _nystrom_problem()
    factorizations = []
    inverse_factor, solve = kernels._inverse_factor, kernels._solve_spd

    def failing_first(A):
        factorizations.append(len(A))
        if len(factorizations) == 1:
            raise np.linalg.LinAlgError("not positive definite")
        return inverse_factor(A)

    monkeypatch.setattr(kernels, "_inverse_factor", failing_first)
    monkeypatch.setattr(kernels, "_solve_spd", lambda A, b, jitter: solve(A, b, 0.5))
    with caplog.at_level(logging.WARNING, logger="krrdp.kernels"):
        model = kernels.nystrom_fit(X, Y, lam, spec, m, np.random.default_rng(0))
    assert factorizations == [m, m]
    assert ["jitter 0.5" in r.getMessage() for r in caplog.records] == [True]
    bands = list(model.loo_rms)
    assert bands == pytest.approx(_refit_nystrom_bands(model, X, Y, lam, jitter=0.5), rel=1e-8)
    assert bands != pytest.approx(_refit_nystrom_bands(model, X, Y, lam), rel=1e-3)


def test_nystrom_all_zero_targets_fit_zero_models():
    # alpha = 0 solves the normal equations exactly, so every output is 0 with clip bound 0
    X, Y, lam, spec, m = _nystrom_problem()
    model = kernels.nystrom_fit(X, np.zeros_like(Y), lam, spec, m, np.random.default_rng(0))
    Xq = np.random.default_rng(1).uniform(50.0, 200.0, size=(50, 2))
    assert not model.coefficients.any()
    assert np.all(model.clip_bound == 0.0) and np.all(model.loo_rms == 0.0)
    for output in range(Y.shape[1]):
        assert not kernels.clipped_predict_batch(model, Xq, output).any()


def test_fits_clip_each_column_at_its_own_max_abs_target():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 2))
    Y = np.column_stack((rng.normal(size=30), -5.0 * rng.uniform(size=30), np.zeros(30)))
    bounds = [float(b) for b in np.max(np.abs(Y), axis=0)]
    exact = kernels.krr_fit(X, Y, 1e-3, SPEC)
    nys = kernels.nystrom_fit(X, Y, 1e-3, SPEC, m=10, rng=np.random.default_rng(0))
    for model in (exact, nys):
        assert list(model.clip_bound) == bounds
    one = kernels.krr_fit(X, Y[:, 1:2], 1e-3, SPEC)
    assert list(one.clip_bound) == bounds[1:2]


@given(st.integers(1, 8).flatmap(lambda n: st.one_of(
           st.just([0.0] * n), st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))),
       st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=10))
def test_clipped_predictions_of_a_fit_lie_within_its_max_abs_target(targets, queries):
    # centres 3 apart on [0, 21]; the queries fall among them and far outside
    model = kernels.krr_fit(3.0 * np.arange(len(targets))[:, None],
                            np.array(targets)[:, None], 1e-3, SPEC)
    Xq = np.array(queries)[:, None]
    bound = max(abs(v) for v in targets)
    clipped = kernels.clipped_predict_batch(model, Xq)
    raw = kernels.predict_batch(model, Xq)
    assert list(model.clip_bound) == [bound] and np.all(np.abs(clipped) <= bound)
    np.testing.assert_array_equal(clipped, np.clip(raw, -bound, bound))
    # clipping is idempotent and 1-Lipschitz on the fit's own outputs
    np.testing.assert_array_equal(np.clip(clipped, -model.clip_bound[0], model.clip_bound[0]),
                                  clipped)
    assert np.all(np.abs(clipped[:, None] - clipped) <= np.abs(raw[:, None] - raw))


def test_clipping_respects_bound():
    fit = kernels.krr_fit([[0.0]], [[10.0]], 0.0, SPEC)
    model = replace(fit, clip_bound=np.array([2.0]))
    assert kernels.clipped_predict_batch(model, [[0.0]])[0] == 2.0
    assert kernels.predict_batch(model, [[0.0]])[0] == pytest.approx(10.0, rel=1e-10)


def test_model_center_coefficient_length_mismatch():
    # rows of width 3 against 2 centres, and a flat (m,) vector, which is not
    # a (1, m) model: each output is one row
    for coefficients in (np.zeros((1, 3)), np.zeros(2)):
        with pytest.raises(ValueError, match="number of centers"):
            KrrModel(centers=np.zeros((2, 1)), coefficients=coefficients, kernel=SPEC,
                     clip_bound=np.ones(1), loo_rms=np.zeros(1))


@pytest.mark.parametrize("clip_bound, loo_rms", [
    (np.ones(1), np.zeros(2)),  # one bound short
    (np.ones(3), np.zeros(2)),  # one bound over
    (1.0, np.zeros(2)),  # a scalar, not one bound per output
    (np.ones(2), np.zeros((2, 1))),  # a column, not a vector
], ids=["short", "long", "scalar", "column"])
def test_model_rejects_bounds_not_one_per_output(clip_bound, loo_rms):
    with pytest.raises(ValueError, match="one entry per output"):
        KrrModel(centers=np.zeros((3, 1)), coefficients=np.zeros((2, 3)), kernel=SPEC,
                 clip_bound=clip_bound, loo_rms=loo_rms)


def test_each_output_predicts_and_clips_with_its_own_row_and_bound():
    # two target columns on different scales: output j is G @ coefficients[j],
    # clipped at clip_bound[j]; at lambda 1e-6 each interpolant overshoots its
    # own bound between and beyond the centres, so both clips are active
    rng = np.random.default_rng(8)
    X = rng.uniform(-2.0, 2.0, size=(30, 1))
    Y = np.column_stack((np.sign(X[:, 0]), -5.0 * rng.uniform(size=30)))
    spec = KernelSpec(lengthscale=0.5)
    model = kernels.krr_fit(X, Y, 1e-6, spec)
    Xq = np.linspace(-3.0, 3.0, 601)[:, None]
    G = kernels.gram_matrix(Xq, model.centers, spec)
    for j in (0, 1):
        raw = kernels.predict_batch(model, Xq, j)
        np.testing.assert_allclose(raw, G @ model.coefficients[j], rtol=1e-12, atol=1e-12)
        bound = model.clip_bound[j]
        assert np.any(np.abs(raw) > bound)
        np.testing.assert_array_equal(kernels.clipped_predict_batch(model, Xq, j),
                                      np.clip(raw, -bound, bound))
    np.testing.assert_array_equal(kernels.predict_batch(model, Xq),
                                  kernels.predict_batch(model, Xq, 0))


def test_predict_dimension_mismatch():
    model = kernels.krr_fit(np.zeros((3, 2)), np.ones((3, 1)), 1e-6, SPEC)
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernels.predict_batch(model, np.zeros((4, 3)))
