"""Correlated multi-asset GBM: one-step transitions and stage sampling.

RNG discipline: every consumer derives an independent Philox substream from
(root seed, purpose) or (root seed, purpose, stage) via ``substream``, and
draws from it before any parallel work, so results do not depend on the
order in which threads run.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

# substream purposes; renumbering one changes every draw made under it
OUTER = 0   # training inputs x_i ~ mu_t
INNER = 1   # inner MC for continuation values
EVAL = 2    # fresh time-0 evaluation
LOWER = 3   # lower-bound policy simulation
REP = 4     # per-repetition root
DIAG = 5    # extra shift replicates of the inner-MC error diagnostic

logger = logging.getLogger(__name__)


def substream(seed, *key):
    """Counter-based generator keyed by (seed, *key); order-independent."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, key)])))


@dataclass(frozen=True)
class GbmParams:
    d: int
    r: float
    sigma: np.ndarray
    rho: np.ndarray
    x0: np.ndarray
    dt: float
    corr_root: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.float64).ravel()
        rho = np.asarray(self.rho, dtype=np.float64)
        x0 = np.asarray(self.x0, dtype=np.float64).ravel()
        if sigma.shape != (self.d,) or x0.shape != (self.d,) or rho.shape != (self.d, self.d):
            raise ValueError("sigma, x0, rho must match asset count d")
        if not math.isfinite(self.r):
            raise ValueError("r must be finite")
        if not np.all((sigma > 0) & np.isfinite(sigma)):
            raise ValueError("sigma must be positive and finite")
        if not np.all((x0 > 0) & np.isfinite(x0)):
            raise ValueError("x0 must be positive and finite")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not np.allclose(rho, rho.T) or not np.allclose(np.diag(rho), 1.0):
            raise ValueError("rho must be symmetric with unit diagonal")
        try:
            L = np.linalg.cholesky(rho)
        except np.linalg.LinAlgError:
            logger.warning("rho is not positive definite; retrying its Cholesky "
                           "factorization with jitter 1e-10 added to the diagonal")
            try:
                L = np.linalg.cholesky(rho + 1e-10 * np.eye(self.d))
            except np.linalg.LinAlgError as exc:
                raise ValueError("rho is not positive semidefinite") from exc
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "corr_root", L)


def gbm_step(x, params, z, antithetic=False):
    """One log-Euler step; x and output strictly positive.

    Accepts x (d,) with z (d,) or (m, d), or x (m, d) with z (m, d). With
    ``antithetic``, z is (..., h, d), x broadcasts against it, and each x steps
    on z and on -z from one shock product: the (..., 2h, d) result holds the +z
    steps, then the -z steps, bitwise equal to a step on concat(z, -z).
    """
    x = np.asarray(x, dtype=np.float64)
    drift = (params.r - 0.5 * params.sigma**2) * params.dt
    z = np.asarray(z, dtype=np.float64)
    shock = params.sigma * np.sqrt(params.dt) * (z @ params.corr_root.T)
    if not antithetic:
        return x * np.exp(drift + shock)
    h = shock.shape[-2]
    growth = np.empty(shock.shape[:-2] + (2 * h, params.d))
    np.add(drift, shock, out=growth[..., :h, :])
    np.subtract(drift, shock, out=growth[..., h:, :])
    np.exp(growth, out=growth)
    growth *= x
    return growth


def geometric_mean_rates(params):
    """(sigma_hat, q) of the assets' geometric mean G = exp(mean_k log x_k).

    Under ``gbm_step``, log G moves by (r - q - sigma_hat^2 / 2) dt plus a normal
    of variance sigma_hat^2 dt each step: G is a one-asset GBM with volatility
    sigma_hat and dividend yield q, exactly.
    """
    sigma, d = params.sigma, params.d
    var = float(sigma @ params.rho @ sigma) / d**2
    q = float(np.sum(sigma**2)) / (2 * d) - var / 2
    return math.sqrt(var), q


def sample_mu_t(params, t, n, rng):
    """n draws of the stage-t state under the always-hold behavior policy."""
    if t < 0 or n < 1:
        raise ValueError("need t >= 0 and n >= 1")
    X = np.tile(params.x0, (n, 1))
    for _ in range(t):
        X = gbm_step(X, params, rng.standard_normal((n, params.d)))
    return X
