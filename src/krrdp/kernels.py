"""Kernel evaluation, Gram matrices, and (clipped, optionally Nystrom) KRR."""

import logging
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

logger = logging.getLogger(__name__)


class FitError(RuntimeError):
    """Raised when the regression system cannot be factorized."""


@dataclass(frozen=True)
class KernelSpec:
    """Isotropic RBF kernel; k(x, x) = 1 so the boundedness constant is 1."""

    lengthscale: float
    kind: str = "rbf"

    def __post_init__(self):
        if self.kind != "rbf":
            raise ValueError(f"unsupported kernel kind {self.kind!r}")
        # _rbf_gram scales by 1 / lengthscale**2: the square must be finite and normal.
        tiny = np.finfo(float).tiny
        if not (self.lengthscale > 0 and tiny <= self.lengthscale * self.lengthscale < np.inf):
            raise ValueError(f"lengthscale must be positive, its square finite and >= {tiny:.3g}")


@dataclass(frozen=True)
class KrrModel:
    """Fitted kernel ridge regressor: f(x) = sum_i coef_i k(center_i, x).

    A constant model (``constant`` set, empty centers) is used for degenerate
    stages where every training target coincides.
    """

    centers: np.ndarray
    coefficients: np.ndarray
    kernel: KernelSpec
    lam: float
    clip_bound: float | None = None
    constant: float | None = None
    loo_rms: float | None = None  # closed-form leave-one-out RMS error of the fit

    def __post_init__(self):
        if self.constant is None and len(self.centers) != len(self.coefficients):
            raise ValueError("coefficients must match centers in length")


def _as_matrix(X):
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    return X


def _lift_centers(Y):
    """Lifted centres for ``_rbf_gram``: their mean mu and the (d + 2, m) matrix.

    Column j of the C-contiguous result is [y_j - mu, -||y_j - mu||^2 / 2, 1].
    """
    m, d = Y.shape
    mu = Y.sum(axis=0) / max(m, 1)
    Yt = np.empty((d + 2, m))
    np.subtract(Y.T, mu[:, None], out=Yt[:d])
    np.einsum("ij,ij->j", Yt[:d], Yt[:d], out=Yt[d])
    Yt[d] *= -0.5
    Yt[d + 1] = 1.0
    return mu, Yt


def _rbf_gram(X, centers, lengthscale, out=None, lift=None):
    """RBF block exp(-||x - y||^2 / (2 l^2)) for (n, d) X against lifted centres.

    ``centers`` is ``_lift_centers(Y)`` for the (m, d) centres Y. Each row x is
    lifted to [x - mu, 1, -||x - mu||^2 / 2] in ``lift`` (an (n, d + 2)
    C-contiguous buffer, or a new array), so one GEMM writes the whole exponent
    -||x - y||^2 / 2 into ``out`` (a C-contiguous (n, m) buffer, or a new
    array). Shifting both sides by mu, the centres' mean, keeps the norms small
    against the cross term, so cancellation costs less than with raw norms.
    Three in-place passes on that one array follow: the clamp at 0, the scale
    by 1/l^2 and the exp; no (n, m) temporary is made. The scale stays a pass
    of its own: folded into the lift, ||x||^2 / l^2 would overflow to inf - inf
    at lengthscales near ``KernelSpec``'s floor. The scale itself may overflow
    there to -inf, whose exp is 0, the exact limit.
    """
    mu, Yt = centers
    n, d = X.shape
    if lift is None:
        lift = np.empty((n, d + 2))
    np.subtract(X, mu, out=lift[:, :d])
    lift[:, d] = 1.0
    np.einsum("ij,ij->i", lift[:, :d], lift[:, :d], out=lift[:, d + 1])
    lift[:, d + 1] *= -0.5
    G = np.matmul(lift, Yt, out=out)
    np.minimum(G, 0.0, out=G)
    with np.errstate(over="ignore"):
        G *= 1.0 / lengthscale**2
    np.exp(G, out=G)
    return G


def gram_matrix(X, Y, spec):
    """Gram block exp(-||x - y||^2 / (2 l^2)) for row sets X (n, d), Y (m, d)."""
    same = Y is X
    X = _as_matrix(X)
    Y = _as_matrix(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    G = _rbf_gram(X, _lift_centers(Y), spec.lengthscale)
    if same:
        np.fill_diagonal(G, 1.0)  # k(x, x) = 1, which the GEMM loses to cancellation
    return G


def _solve_spd(A, b, jitter_scale):
    """Cholesky solve with a single jitter retry, logged as a warning, then FitError.

    ``b`` may hold several right-hand sides as columns. Returns the solution and
    the factor that produced it, of A or of A + jitter I: its lower triangle is L.
    """
    try:
        c, low = scipy.linalg.cho_factor(A, lower=True)
        return scipy.linalg.cho_solve((c, low), b), c
    except np.linalg.LinAlgError:
        logger.warning("Cholesky factorization failed; retrying with jitter %.3g added "
                       "to the diagonal", jitter_scale)
    A_j = A + jitter_scale * np.eye(A.shape[0])
    try:
        c, low = scipy.linalg.cho_factor(A_j, lower=True)
        return scipy.linalg.cho_solve((c, low), b), c
    except np.linalg.LinAlgError as exc:
        raise FitError(
            "singular regression system even after jitter; raise lambda"
        ) from exc


def _targets(X, y):
    """X as an (n, d) matrix and y as (n,) or (n, k) floats, checked to match."""
    X = _as_matrix(X)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < 1 or y.ndim not in (1, 2) or y.shape[0] != X.shape[0]:
        raise ValueError("X and y must be nonempty and of equal length")
    return X, y


def _fitted(centers, alpha, loo_residuals, spec, lam, y):
    """One model per column of y, each with its leave-one-out RMS (inf if not finite).

    ``alpha`` and ``loo_residuals`` are (m, k) and (n, k). A 1-d ``y`` gives
    the model itself, an (n, k) ``y`` a tuple of k models.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rms = np.sqrt(np.mean(loo_residuals ** 2, axis=0))
    models = tuple(
        KrrModel(centers=centers, coefficients=np.ascontiguousarray(alpha[:, j]), kernel=spec,
                 lam=float(lam), loo_rms=float(rms[j]) if np.isfinite(rms[j]) else np.inf)
        for j in range(alpha.shape[1]))
    return models[0] if y.ndim == 1 else models


def krr_fit(X, y, lam, spec):
    """Solve (G + lambda*n*I) alpha = y; the n-scaling matches a (1/n) empirical risk.

    ``y`` is (n,) or (n, k): k target columns share one Gram matrix and one
    factor, and give a tuple of k models. Each model's ``loo_rms`` comes from
    that factor: the leave-one-out residual at x_i is alpha_i / [A^-1]_ii for
    the system A actually solved (Rifkin & Lippert, "Notes on regularized least
    squares", 2007), with A^-1 from L by ``dpotri``.
    """
    X, y = _targets(X, y)
    n = X.shape[0]
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    A = gram_matrix(X, X, spec) + (lam * n) * np.eye(n)
    alpha, c = _solve_spd(A, y, 1e-10)
    alpha = alpha.reshape(n, -1)
    inv_diag = np.diag(scipy.linalg.lapack.dpotri(c, lower=1, overwrite_c=1)[0])
    return _fitted(X, alpha, alpha / inv_diag[:, None], spec, lam, y)


def nystrom_fit(X, y, lam, spec, m, rng):
    """Nystrom KRR with m uniformly subsampled centers.

    Solves the normal equations (Knm' Knm + lambda*n*Kmm) alpha = Knm' y; like
    ``krr_fit``, ``y`` may hold k target columns. Each model's ``loo_rms`` is
    that of ridge regression on the fixed features k(x, c_j): the residual at
    x_i over 1 - H_ii, with H_ii = ||L^-1 k_i||^2 for row k_i of Knm and the
    factor L of the system actually solved.
    """
    X, y = _targets(X, y)
    n = X.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"center count m={m} must satisfy 1 <= m <= n={n}")
    idx = np.sort(rng.choice(n, size=m, replace=False))
    centers = X[idx]
    Knm = gram_matrix(X, centers, spec)
    Knm[idx, np.arange(m)] = 1.0  # k(c, c) = 1, which the GEMM loses to cancellation
    Kmm = Knm[idx]
    A = Knm.T @ Knm + (lam * n) * Kmm
    alpha, c = _solve_spd(A, Knm.T @ y, 1e-10 * max(np.trace(A) / m, 1.0))
    alpha = alpha.reshape(m, -1)
    residuals = y.reshape(n, -1) - Knm @ alpha
    # Knm is not needed again: its transpose is overwritten by L^-1 Knm'.
    V = scipy.linalg.solve_triangular(c, Knm.T, lower=True, overwrite_b=True)
    leverage = np.einsum("ij,ij->j", V, V)
    with np.errstate(divide="ignore", invalid="ignore"):
        loo = residuals / (1.0 - leverage)[:, None]
    return _fitted(centers, alpha, loo, spec, lam, y)


def constant_model(value, spec, lam=0.0, clip_bound=None):
    return KrrModel(
        centers=np.empty((0, 1)),
        coefficients=np.empty(0),
        kernel=spec,
        lam=lam,
        clip_bound=clip_bound,
        constant=float(value),
    )


def with_clip(model, bound):
    if not bound > 0:
        raise ValueError("clip bound must be positive")
    return replace(model, clip_bound=float(bound))


def predict_batch(model, X):
    """Kernel expansion sum_j coef_j k(c_j, x_i) for a batch X (n, d).

    The centres are lifted once per call (``_lift_centers``). Rows go through
    ``_rbf_gram`` in blocks of at most 2**16 kernel values (512 KiB, so a block
    stays in cache through its three in-place passes); each block is lifted
    into one (rows, d + 2) buffer and its kernel values written into one
    (rows, m) buffer, both allocated once per call, and reduced by one GEMV.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    if model.constant is not None:
        return np.full(n, model.constant)
    centers = model.centers
    if X.shape[1] != centers.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {centers.shape[1]}")
    lifted = _lift_centers(centers)
    out = np.empty(n)
    rows = max(1, 2**16 // max(1, len(centers)))
    lift = np.empty((min(rows, n), X.shape[1] + 2))
    buf = np.empty((min(rows, n), len(centers)))
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        out[lo:hi] = _rbf_gram(X[lo:hi], lifted, model.kernel.lengthscale,
                               out=buf[:hi - lo], lift=lift[:hi - lo]) @ model.coefficients
    return out


def clipped_predict_batch(model, X):
    if model.clip_bound is None:
        raise ValueError("model has no clip bound set")
    return np.clip(predict_batch(model, X), -model.clip_bound, model.clip_bound)
