"""Kernel evaluation, Gram matrices, and (clipped, optionally Nystrom) KRR."""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg


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
        if not self.lengthscale > 0:
            raise ValueError("lengthscale must be positive")


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


def _rbf_gram(X, Y, lengthscale):
    sq = np.sum(X * X, axis=1)[:, None] + np.sum(Y * Y, axis=1)[None, :]
    sq -= 2.0 * (X @ Y.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(sq * (-0.5 / lengthscale**2))


def gram_matrix(X, Y, spec):
    """Gram block exp(-||x - y||^2 / (2 l^2)) for row sets X (n, d), Y (m, d)."""
    X = _as_matrix(X)
    Y = _as_matrix(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return _rbf_gram(X, Y, spec.lengthscale)


def _solve_spd(A, b, jitter_scale):
    """Cholesky solve with a single jitter retry, then FitError."""
    try:
        c, low = scipy.linalg.cho_factor(A, lower=True)
        return scipy.linalg.cho_solve((c, low), b)
    except np.linalg.LinAlgError:
        pass
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
    """Kernel expansion sum_j coef_j k(c_j, x_i) for a batch X (n, d)."""
    X = _as_matrix(X)
    n = X.shape[0]
    if model.constant is not None:
        return np.full(n, model.constant)
    centers = model.centers
    if X.shape[1] != centers.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {centers.shape[1]}")
    # Chunked so big evaluation batches never materialize a huge Gram block.
    out = np.empty(n)
    step = max(1, 2**22 // max(1, centers.shape[0]))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        out[lo:hi] = _rbf_gram(X[lo:hi], centers, model.kernel.lengthscale) @ model.coefficients
    return out


def clipped_predict_batch(model, X):
    if model.clip_bound is None:
        raise ValueError("model has no clip bound set")
    return np.clip(predict_batch(model, X), -model.clip_bound, model.clip_bound)
