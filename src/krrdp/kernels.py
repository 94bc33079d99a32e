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
    at lengthscales near ``KernelSpec``'s floor.
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
    G *= 1.0 / lengthscale**2
    np.exp(G, out=G)
    return G


def gram_matrix(X, Y, spec):
    """Gram block exp(-||x - y||^2 / (2 l^2)) for row sets X (n, d), Y (m, d)."""
    X = _as_matrix(X)
    Y = _as_matrix(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return _rbf_gram(X, _lift_centers(Y), spec.lengthscale)


def _solve_spd(A, b, jitter_scale):
    """Cholesky solve with a single jitter retry, logged as a warning, then FitError."""
    try:
        c, low = scipy.linalg.cho_factor(A, lower=True)
        return scipy.linalg.cho_solve((c, low), b)
    except np.linalg.LinAlgError:
        logger.warning("Cholesky factorization failed; retrying with jitter %.3g added "
                       "to the diagonal", jitter_scale)
    A_j = A + jitter_scale * np.eye(A.shape[0])
    try:
        c, low = scipy.linalg.cho_factor(A_j, lower=True)
        return scipy.linalg.cho_solve((c, low), b)
    except np.linalg.LinAlgError as exc:
        raise FitError(
            "singular regression system even after jitter; raise lambda"
        ) from exc


def krr_fit(X, y, lam, spec):
    """Solve (G + lambda*n*I) alpha = y; the n-scaling matches a (1/n) empirical risk."""
    X = _as_matrix(X)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = X.shape[0]
    if n < 1 or y.shape[0] != n:
        raise ValueError("X and y must be nonempty and of equal length")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    G = gram_matrix(X, X, spec)
    A = G + (lam * n) * np.eye(n)
    alpha = _solve_spd(A, y, 1e-10 * np.trace(G) / n)
    return KrrModel(centers=X, coefficients=alpha, kernel=spec, lam=float(lam))


def nystrom_fit(X, y, lam, spec, m, rng):
    """Nystrom KRR with m uniformly subsampled centers.

    Solves the normal equations (Knm' Knm + lambda*n*Kmm) alpha = Knm' y.
    """
    X = _as_matrix(X)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = X.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"center count m={m} must satisfy 1 <= m <= n={n}")
    idx = np.sort(rng.choice(n, size=m, replace=False))
    centers = X[idx]
    Knm = gram_matrix(X, centers, spec)
    Kmm = gram_matrix(centers, centers, spec)
    A = Knm.T @ Knm + (lam * n) * Kmm
    b = Knm.T @ y
    alpha = _solve_spd(A, b, 1e-10 * max(np.trace(A) / m, 1.0))
    return KrrModel(centers=centers, coefficients=alpha, kernel=spec, lam=float(lam))


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
