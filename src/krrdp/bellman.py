"""Backward induction: empirical Bellman targets, stagewise KRR fits, pricing.

Stage models approximate the value functions V_t for t = 1..T-1 (V_T is the
known terminal payoff; V_0 is needed only at x0, where ``price_at_origin``
estimates it). All randomness is drawn from counter-based substreams keyed by
(seed, purpose, stage, point index), so target generation is order-independent.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dynamics import INNER, NYSTROM, OUTER, GbmParams, gbm_step, sample_mu_t, substream
from .kernels import KernelSpec, KrrModel
from .payoffs import PayoffSpec, payoff_batch

# Above this training size the stage fit is Nystrom KRR with this many centres.
NYSTROM_AUTO_THRESHOLD = 2000

# generate_stage_data computes its targets in this many blocks of points at
# any thread count: BLAS rounds a row's kernel sums differently in blocks of
# different sizes, so a fixed split keeps the targets bitwise independent of
# --jobs.
TARGET_BLOCKS = 8

STACK_FORMAT_VERSION = 4

# Inner Monte Carlo draws per path behind policy_lower_bound's exercise rule.
LOWER_BOUND_INNER_M = 64


@dataclass(frozen=True)
class StageConfig:
    n: int
    M: int
    lam: float
    kernel: KernelSpec

    def __post_init__(self):
        if self.n < 1 or self.M < 1:
            raise ValueError("n and M must be at least 1")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lambda must be nonnegative and finite")


@dataclass
class ValueFunctionStack:
    """Stage models V_1..V_{T-1} and the terminal payoff V_T; t = 0 has no model."""

    payoff: PayoffSpec
    models: list  # KrrModel per stage t = 1..T-1; None at t = 0
    params: GbmParams
    horizon: int

    def stage_fn(self, t):
        """Batch evaluator of the stage-t value approximant (payoff at t=T), 1 <= t <= T."""
        if not 1 <= t <= self.horizon:
            raise ValueError(f"no stage model at t={t}; stages run 1..{self.horizon}")
        if t == self.horizon:
            return lambda X: payoff_batch(self.payoff, X)
        model = self.models[t]
        return lambda X: kernels.clipped_predict_batch(model, X)


def continuation(X, next_fn, Z, params):
    """The (n, M) matrix of discounted next values e^{-r dt} next_fn(step(X_i, Z_ij)).

    Each state X_i (a row of X, shape (n, d)) takes one GBM step per shock
    Z_ij (Z has shape (n, M, d)), and next_fn is evaluated once on all n*M
    next states. Row means are the M-sample Monte Carlo continuation values.
    """
    n, M, d = Z.shape
    xn = gbm_step(X[:, None, :], params, Z)
    return math.exp(-params.r * params.dt) * next_fn(xn.reshape(-1, d)).reshape(n, M)


def _inner_normals(seed, t, idx, M, d):
    """Antithetic inner-MC shocks (len(idx), M, d), keyed by substream(seed, INNER, t, i).

    Point i draws H = ceil(M/2) rows into Z[j, :H]; Z[j, H:] mirrors the first
    M - H of them, so for odd M one draw stays unpaired. Each row mean is still
    an unbiased continuation estimate; only its variance changes (Glasserman,
    Monte Carlo Methods in Financial Engineering, 2004, sec. 4.2).
    """
    H = (M + 1) // 2
    Z = np.empty((len(idx), M, d))
    for j, i in enumerate(idx):
        Z[j, :H] = substream(seed, INNER, t, i).standard_normal((H, d))
    np.negative(Z[:, :M - H], out=Z[:, H:])
    return Z


def generate_stage_data(t, cfg, next_fn, params, payoff, seed, n_jobs=1):
    """Supervised pairs (X, y) at stage t: y_i = max(exercise, MC continuation)."""
    X = sample_mu_t(params, t, cfg.n, substream(seed, OUTER, t))
    blocks = np.array_split(np.arange(cfg.n), TARGET_BLOCKS)

    def target(idx):
        Z = _inner_normals(seed, t, idx, cfg.M, params.d)
        cont = continuation(X[idx], next_fn, Z, params).mean(axis=1)
        return np.maximum(payoff_batch(payoff, X[idx]), cont)

    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        return X, np.concatenate(list(pool.map(target, blocks)))


def _fit_stage(X, y, cfg, seed, t):
    """Clipped KRR fit at B = max_i |y_i|; Nystrom when n > NYSTROM_AUTO_THRESHOLD."""
    clip = float(np.max(np.abs(y)))
    if np.ptp(y) == 0.0:
        return kernels.constant_model(y[0], cfg.kernel, cfg.lam, clip_bound=max(clip, 1e-300))
    if cfg.n > NYSTROM_AUTO_THRESHOLD:
        model = kernels.nystrom_fit(X, y, cfg.lam, cfg.kernel, NYSTROM_AUTO_THRESHOLD,
                                    substream(seed, NYSTROM, t))
    else:
        model = kernels.krr_fit(X, y, cfg.lam, cfg.kernel)
    return kernels.with_clip(model, clip)


def backward_pass(run, n_jobs=1):
    """Fit the stage value models for t = T-1 down to 1.

    Stage 0 is the point mass at x0, so it has no regression: its one value,
    the time-0 price, is ``price_at_origin``'s fresh evaluation at x0.
    """
    params, T, seed = run.params, run.steps, run.seed
    stack = ValueFunctionStack(payoff=run.payoff, models=[None] * T, params=params, horizon=T)
    for t in range(T - 1, 0, -1):
        cfg = run.stages[t]
        try:
            X, y = generate_stage_data(t, cfg, stack.stage_fn(t + 1), params, run.payoff,
                                       seed, n_jobs)
            model = _fit_stage(X, y, cfg, seed, t)
        except kernels.FitError as exc:
            raise kernels.FitError(f"stage {t}: {exc}") from exc
        stack.models[t] = model
    return stack


def price_at_origin(stack, eval_M, rng):
    """Time-0 Bellman value at x0 with a fresh eval_M-sample continuation."""
    params = stack.params
    x0 = params.x0[None]
    Z = rng.standard_normal((1, eval_M, params.d))
    cont = continuation(x0, stack.stage_fn(1), Z, params).mean()
    return float(max(payoff_batch(stack.payoff, x0)[0], cont))


def policy_lower_bound(stack, paths, rng):
    """Average discounted payoff of the stack-induced stopping rule.

    Any feasible rule prices at or below the optimum in expectation, so this
    is a downward-biased cross-check. Exercise at the first t where the
    immediate payoff is positive and at least the (small inner MC) estimated
    continuation; the continuation is evaluated on in-the-money paths only,
    while the shocks are drawn for every alive path so the stream of draws
    does not depend on how many are in the money.
    """
    if paths < 1:
        raise ValueError("paths must be at least 1")
    params, payoff, T = stack.params, stack.payoff, stack.horizon
    d, dt, r = params.d, params.dt, params.r
    x = np.tile(params.x0, (paths, 1))
    alive = np.arange(paths)
    value = np.zeros(paths)
    for t in range(T):
        if alive.size == 0:
            break
        C = payoff_batch(payoff, x)
        z = rng.standard_normal((x.shape[0], LOWER_BOUND_INNER_M, d))
        stop = C > 0
        cont = continuation(x[stop], stack.stage_fn(t + 1), z[stop], params).mean(axis=1)
        stop[stop] = C[stop] >= cont
        value[alive[stop]] = C[stop] * math.exp(-r * t * dt)
        keep = ~stop
        alive = alive[keep]
        x = x[keep]
        if alive.size:
            x = gbm_step(x, params, rng.standard_normal((alive.size, d)))
    if alive.size:
        value[alive] = payoff_batch(payoff, x) * math.exp(-r * T * dt)
    stderr = float(value.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    return float(value.mean()), stderr


def contraction_check(f, g, t, n_eval, M, params, payoff, rng):
    """Empirical Bellman Lipschitz bound on shared inner noise.

    Returns (lhs, rhs): lhs is the L2(mu_t) distance of the two empirical
    Bellman images; rhs is exp(-r dt) times the L2 distance of f and g over
    the shared propagated samples. lhs <= rhs pathwise.
    """
    X = sample_mu_t(params, t, n_eval, rng)
    Z = rng.standard_normal((n_eval, M, params.d))
    F = continuation(X, f, Z, params)
    G = continuation(X, g, Z, params)
    C = payoff_batch(payoff, X)
    tf = np.maximum(C, F.mean(axis=1))
    tg = np.maximum(C, G.mean(axis=1))
    lhs = float(np.sqrt(np.mean((tf - tg) ** 2)))
    rhs = float(np.sqrt(np.mean((F - G) ** 2)))
    return lhs, rhs


def save_stack(stack, path):
    """Versioned npz serialization of stages 1..T-1; predictions round-trip bit-exactly.

    Writes exactly ``path``: ``np.savez`` given a file name would append ``.npz``.
    """
    header = {
        "version": STACK_FORMAT_VERSION,
        "d": stack.params.d,
        "T": stack.horizon,
        "dt": stack.params.dt,
        "r": stack.params.r,
        "payoff_kind": stack.payoff.kind,
        "strike": stack.payoff.strike,
        "stages": [{"lengthscale": m.kernel.lengthscale, "lam": m.lam,
                    "clip_bound": m.clip_bound, "constant": m.constant}
                   for m in stack.models[1:]],
    }
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        "sigma": stack.params.sigma,
        "rho": stack.params.rho,
        "x0": stack.params.x0,
    }
    for t, m in enumerate(stack.models[1:], start=1):
        arrays[f"centers_{t}"] = m.centers
        arrays[f"coef_{t}"] = m.coefficients
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_stack(path):
    data = np.load(path)
    header = json.loads(bytes(data["header"]).decode())
    if header["version"] != STACK_FORMAT_VERSION:
        raise ValueError(f"unsupported stack format version {header['version']}")
    params = GbmParams(d=header["d"], r=header["r"], sigma=data["sigma"],
                       rho=data["rho"], x0=data["x0"], dt=header["dt"])
    payoff = PayoffSpec(kind=header["payoff_kind"], strike=header["strike"])
    models = [None]
    for t, stage in enumerate(header["stages"], start=1):
        models.append(KrrModel(
            centers=data[f"centers_{t}"],
            coefficients=data[f"coef_{t}"],
            kernel=KernelSpec(lengthscale=stage["lengthscale"]),
            lam=stage["lam"],
            clip_bound=stage["clip_bound"],
            constant=stage["constant"],
        ))
    return ValueFunctionStack(payoff=payoff, models=models, params=params, horizon=header["T"])
