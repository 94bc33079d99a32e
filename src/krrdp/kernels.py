"""Kernel evaluation, Gram matrices, and (clipped, optionally Nystrom) KRR."""

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

_LOG2_E = 1.0 / math.log(2.0)

# krr_fit warns below this many effective degrees of freedom. At repetition 0
# of seed 7 the acceptance rows' stage fits read 7.8 and up, and those of
# configs/quick.cfg 19.8 and up; on quick.cfg, lengthscale 1e6 gives 1.0,
# lambda 1 gives 0.6 and lambda 1e300 gives 0.0.
MIN_DOF = 2.0


def __getattr__(name):
    # The package does not use scipy. The benchmark's tracer (layerbench/tracer.py)
    # still overlays ``kernels.scipy.linalg.cho_factor``, which nothing here calls,
    # so that name imports scipy on first use: only traced runs load it.
    # ROADMAP item 1 deletes this.
    if name == "scipy":
        import scipy.linalg
        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FitError(RuntimeError):
    """Raised when the regression system cannot be factorized."""


@dataclass(frozen=True)
class KernelSpec:
    """Isotropic RBF kernel; k(x, x) = 1 so the boundedness constant is 1."""

    lengthscale: float

    def __post_init__(self):
        # _lifted scales by 1 / lengthscale**2: the square must be finite and normal.
        tiny = np.finfo(float).tiny
        if not (self.lengthscale > 0 and tiny <= self.lengthscale * self.lengthscale < np.inf):
            raise ValueError(f"lengthscale must be positive, its square finite and >= {tiny:.3g}")


@dataclass(frozen=True)
class KrrModel:
    """Fitted kernel ridge regressor with k outputs: f_j(x) = sum_i coef_ji k(center_i, x).

    ``coefficients`` is (k, m), one contiguous row per output;
    ``clip_bound`` and ``loo_rms`` are (k,), one entry per output.
    ``constant`` is a class attribute, not a field, and always None: the
    package builds no constant model, but the benchmark's tracer still reads
    ``model.constant`` to count a predict's kernel evaluations.
    """

    centers: np.ndarray
    coefficients: np.ndarray
    kernel: KernelSpec
    clip_bound: np.ndarray
    loo_rms: np.ndarray  # closed-form leave-one-out RMS error of each output
    constant = None  # not a field; see above

    def __post_init__(self):
        k = len(self.coefficients)
        if np.shape(self.coefficients) != (k, len(self.centers)):
            raise ValueError("coefficients must be (k, m), with m the number of centers")
        if np.shape(self.clip_bound) != (k,) or np.shape(self.loo_rms) != (k,):
            raise ValueError("clip_bound and loo_rms must hold one entry per output")


def _as_matrix(X):
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"a batch of states must be an (n, d) matrix, got shape {X.shape}")
    return X


def _lifted(X, Y, lengthscale):
    """Lifted rows (n, d + 2) and scaled lifted centres (d + 2, m) for ``_rbf_gram``.

    Both sides are shifted by mu, the centres' mean, which keeps the norms small
    against the cross term, so cancellation costs less than with raw norms.
    Row i of the rows is [x_i - mu, 1, -||x_i - mu||^2 / 2]; column j of the
    centres is s [y_j - mu, -||y_j - mu||^2 / 2, 1], so their product is
    -s ||x_i - y_j||^2 / 2. The scale s = log2(e) / l^2 makes exp2 of that the
    kernel. Near ``KernelSpec``'s floor, s is capped at
    2**1000 / max(1, largest ||x - mu||^2, largest ||y - mu||^2), so that no
    product term of the GEMM exceeds 2**1000 and no sum reaches inf - inf;
    every off-diagonal kernel value there is exactly 0 either way.
    """
    n, d = X.shape
    m = len(Y)
    mu = Y.sum(axis=0) / max(m, 1)
    rows = np.empty((n, d + 2))
    np.subtract(X, mu, out=rows[:, :d])
    rows[:, d] = 1.0
    np.einsum("ij,ij->i", rows[:, :d], rows[:, :d], out=rows[:, d + 1])
    rows[:, d + 1] *= -0.5
    cols = np.empty((d + 2, m))
    np.subtract(Y.T, mu[:, None], out=cols[:d])
    np.einsum("ij,ij->j", cols[:d], cols[:d], out=cols[d])
    cols[d] *= -0.5
    cols[d + 1] = 1.0
    largest = -2.0 * min(rows[:, d + 1].min(initial=0.0), cols[d].min(initial=0.0))
    cols *= min(_LOG2_E / lengthscale**2, 2.0**1000 / max(1.0, largest))
    return rows, cols


def _rbf_gram(rows, cols, out=None):
    """RBF block exp(-||x - y||^2 / (2 l^2)) from ``_lifted``'s rows and centres.

    Writes into ``out`` (a C-contiguous (n, m) buffer, or a new array); no
    (n, m) temporary is made. Three passes over the block:

    - one GEMM writes the whole base-2 exponent;
    - the clamp at 0, only when the block's max exceeds 0. Only cancellation
      makes an exponent positive, at or next to a centre: in practice the
      diagonal of ``gram_matrix(X, X)``, not a predict block. Reading the max
      costs less than clamping every block;
    - ``np.exp2`` in place. It is cheaper than ``np.exp``, and because the
      scale and log2(e) ride in the centres' lift, no 1/l^2 pass is needed.
    """
    G = np.matmul(rows, cols, out=out)
    if G.max(initial=0.0) > 0.0:
        np.minimum(G, 0.0, out=G)
    np.exp2(G, out=G)
    return G


def gram_matrix(X, Y, spec):
    """Gram block exp(-||x - y||^2 / (2 l^2)) for row sets X (n, d), Y (m, d)."""
    same = Y is X
    X = _as_matrix(X)
    Y = _as_matrix(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    G = _rbf_gram(*_lifted(X, Y, spec.lengthscale))
    if same:
        np.fill_diagonal(G, 1.0)  # k(x, x) = 1, which the GEMM loses to cancellation
    return G


def _solve_spd(system, b, jitter_scale):
    """Cholesky solve of A = ``system()`` with a single jitter retry, logged as a warning.

    ``system`` builds a new C-ordered A on each call. A failed factorization
    has overwritten A, so the retry builds it again and adds ``jitter_scale``
    to its diagonal; if that fails too, FitError. ``b`` may hold several
    right-hand sides as columns. Returns the solution, the inverse factor L^-1
    that produced it (``_inverse_factor``, made in A's memory) and the jitter
    added: 0.0 or ``jitter_scale``.
    """
    try:
        return (*_factor_solve(system(), b), 0.0)
    except np.linalg.LinAlgError:
        logger.warning("Cholesky factorization failed; retrying with jitter %.3g added "
                       "to the diagonal", jitter_scale)
    A = system()
    A.flat[::len(A) + 1] += jitter_scale
    try:
        return (*_factor_solve(A, b), jitter_scale)
    except np.linalg.LinAlgError as exc:
        raise FitError(
            "singular regression system even after jitter; raise lambda"
        ) from exc


def _factor_solve(A, b):
    """Solution x = L^-T (L^-1 b) of A x = b, and L^-1, made in place on A = L L^T."""
    inverse = _inverse_factor(A)
    return inverse.T @ (inverse @ b), inverse


def _inverse_factor(A):
    """Overwrite the SPD matrix A = L L^T with L^-1 (strictly upper triangle 0) and return it.

    Recursive and blocked (Elmroth et al., SIAM Review 46, 2004), on numpy's
    BLAS: with A's leading h x h block A11 = L11 L11^T, L21 = A21 L11^-T, the
    Schur complement A22 - L21 L21^T = L22 L22^T, and the lower-left block of
    L^-1 is -L22^-1 L21 L11^-1. Splitting at h = 2n/3 keeps each temporary,
    an (n - h, h) or (n - h, n - h) product, at most 2 n^2 / 9. Up to 64 rows,
    numpy's Cholesky and inverse. A matrix that is not positive definite
    raises ``np.linalg.LinAlgError`` and leaves A partly overwritten.
    """
    n = len(A)
    if n <= 64:
        A[...] = np.tril(np.linalg.inv(np.linalg.cholesky(A)))
        return A
    h = 2 * n // 3
    A11, A21, A22 = A[:h, :h], A[h:, :h], A[h:, h:]
    _inverse_factor(A11)
    A21[...] = A21 @ A11.T
    A22 -= A21 @ A21.T
    _inverse_factor(A22)
    np.matmul(A22, A21 @ A11, out=A21)
    np.negative(A21, out=A21)
    A[:h, h:] = 0.0
    return A


def _inverse_diagonal(inverse):
    """diag(A^-1) from A's inverse factor L^-1 (upper triangle 0): its column sums of squares.

    [A^-1]_ii = [L^-T L^-1]_ii, so L^-1 serves, not all of A^-1.
    """
    return np.einsum("ij,ij->j", inverse, inverse)


def _targets(X, y):
    """X as an (n, d) matrix and y as (n, k) floats, checked to match and to be finite."""
    X = _as_matrix(X)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or X.shape[0] < 1 or y.shape[0] != X.shape[0]:
        raise ValueError(f"X must be (n, d) and the targets (n, k), with n >= 1; "
                         f"got shapes {X.shape} and {y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("states and targets must not contain infs or NaNs")
    return X, y


def _fitted(centers, alpha, loo_residuals, spec, y):
    """One model with an output per column of the (n, k) y, clipped at that column's max |y_i|.

    ``alpha`` and ``loo_residuals`` are (m, k) and (n, k); each output carries
    its leave-one-out RMS, inf if not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rms = np.sqrt(np.mean(loo_residuals ** 2, axis=0))
    return KrrModel(centers=centers, coefficients=np.ascontiguousarray(alpha.T), kernel=spec,
                    clip_bound=np.max(np.abs(y), axis=0),
                    loo_rms=np.where(np.isfinite(rms), rms, np.inf))


def krr_fit(X, y, lam, spec):
    """Solve (G + lambda*n*I) alpha = y; the n-scaling matches a (1/n) empirical risk.

    ``y`` is (n, k): its k target columns share one Gram matrix and one
    factor, and give one model with k outputs, each clipped at its own
    column's max |y_i|. Each output's ``loo_rms`` comes from that factor: the
    leave-one-out residual at x_i is alpha_i / [A^-1]_ii for the system A
    actually solved (Rifkin & Lippert, "Notes on regularized least squares",
    2007), with the diagonal of A^-1 from L^-1 (``_inverse_diagonal``).

    The same diagonal gives the fit's effective degrees of freedom,
    tr(G A^-1) = n - penalty tr(A^-1) for the diagonal penalty actually added,
    jitter included (Caponnetto & De Vito, 2007); below MIN_DOF a warning is
    logged, since the fit is then close to a constant.
    """
    X, y = _targets(X, y)
    n = X.shape[0]
    if lam < 0:
        raise ValueError("lambda must be nonnegative")

    def system():
        A = gram_matrix(X, X, spec)
        A.flat[::n + 1] += lam * n
        return A

    alpha, inverse, jitter = _solve_spd(system, y, 1e-10)
    inv_diag = _inverse_diagonal(inverse)
    dof = n - (lam * n + jitter) * inv_diag.sum()
    if dof < MIN_DOF:
        logger.warning("the fit has %.2g effective degrees of freedom from n = %d points "
                       "(lengthscale %.3g, lambda %.3g), so it is close to a constant; "
                       "lower the lengthscale or lambda", dof, n, spec.lengthscale, lam)
    return _fitted(X, alpha, alpha / inv_diag[:, None], spec, y)


def nystrom_fit(X, y, lam, spec, m, rng):
    """Nystrom KRR with m uniformly subsampled centers.

    Solves the normal equations (Knm' Knm + lambda*n*Kmm) alpha = Knm' y; like
    ``krr_fit``, it takes (n, k) targets and returns one model with k outputs.
    Each output's ``loo_rms`` is that of ridge regression on the fixed
    features k(x, c_j): the residual at x_i over 1 - H_ii, with
    H_ii = ||L^-1 k_i||^2 for row k_i of Knm and the factor L of the system
    actually solved.
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
    alpha, inverse, _ = _solve_spd(A.copy, Knm.T @ y, 1e-10 * max(np.trace(A) / m, 1.0))
    residuals = y - Knm @ alpha
    V = inverse @ Knm.T
    leverage = np.einsum("ij,ij->j", V, V)
    with np.errstate(divide="ignore", invalid="ignore"):
        loo = residuals / (1.0 - leverage)[:, None]
    return _fitted(centers, alpha, loo, spec, y)


def predict_batch(model, X, output=0):
    """Kernel expansion sum_j coef_j k(c_j, x_i) of one output for a batch X (n, d).

    The rows and the centres are lifted once per call (``_lifted``), which
    folds the 1/l^2 scale into one (d + 2, m) multiply. Rows then go through
    ``_rbf_gram`` in blocks of at most 2**16 kernel values (512 KiB, so a
    block stays in cache from the GEMM to the exp2), each written into one
    (rows, m) buffer allocated once per call and reduced by one GEMV on the
    output's contiguous coefficient row.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    centers = model.centers
    if X.shape[1] != centers.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {centers.shape[1]}")
    rows, cols = _lifted(X, centers, model.kernel.lengthscale)
    out = np.empty(n)
    coef = model.coefficients[output]
    block = max(1, 2**16 // max(1, len(centers)))
    buf = np.empty((min(block, n), len(centers)))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        out[lo:hi] = _rbf_gram(rows[lo:hi], cols, out=buf[:hi - lo]) @ coef
    return out


def clipped_predict_batch(model, X, output=0):
    bound = model.clip_bound[output]
    return np.clip(predict_batch(model, X, output), -bound, bound)
