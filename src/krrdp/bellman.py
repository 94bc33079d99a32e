"""Backward induction: empirical Bellman targets, stagewise KRR fits, pricing.

Stage models approximate the value functions V_t for t = 1..T-1 (V_T is the
known terminal payoff; V_0 is needed only at x0, where ``price_at_origin``
estimates it). Every stage fits exact KRR (``kernels.krr_fit``) on all n of
its training states, whatever n. Beside each V_t, a continuation model C_t is
fitted to the stage's continuation means on the same factor, with its
leave-one-out RMS s_t; ``policy_lower_bound`` exercises by C_t and nests a
Monte Carlo continuation only where the payoff lies within s_t of it. Every
continuation average steps on ``pair_shocks``' antithetic pairs. A stage draws
its training states and its inner shocks (``stage_draws``) from one
counter-based substream each, keyed by (seed, purpose, stage), before any
continuation tile runs; the tiles depend only on the stage's size, so the
targets do not depend on the thread count.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .dynamics import INNER, OUTER, GbmParams, gbm_step, sample_mu_t, substream
from .kernels import KernelSpec, KrrModel
from .payoffs import PayoffSpec, payoff_batch

STACK_FORMAT_VERSION = 7

# Next states that continuation steps and evaluates at once. On the benchmark's
# put_d10 row (2 vCPU, two seeds, tiles 2**10 to 2**16), 2**13 gave the lowest
# seconds per repetition, 0.73-0.82 s against 0.78-1.17 s for the other tiles
# and 1.01-1.09 s untiled; peak RSS was 76 MB there, 72 MB at 2**10, 93 MB at
# 2**16 and 101 MB untiled.
CONTINUATION_TILE = 2**13

# Inner MC draws (32 pairs) of policy_lower_bound's nested continuation, made
# only where the payoff lies within s_t of C_t, and once at x0 at t = 0.
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
    """Stage models V_1..V_{T-1} and the terminal payoff V_T; t = 0 has no model.

    ``continuations[t]`` is the clipped continuation model C_t, fitted on V_t's
    centres and factor; its ``loo_rms`` is s_t.
    """

    payoff: PayoffSpec
    models: list  # KrrModel per stage t = 1..T-1; None at t = 0
    continuations: list  # KrrModel per stage t = 1..T-1; None at t = 0
    params: GbmParams

    @property
    def horizon(self):
        """T, the last exercise date: one model slot per date t = 0..T-1."""
        return len(self.models)

    def stage_fn(self, t):
        """Batch evaluator of the stage-t value approximant (payoff at t=T), 1 <= t <= T."""
        if not 1 <= t <= self.horizon:
            raise ValueError(f"no stage model at t={t}; stages run 1..{self.horizon}")
        if t == self.horizon:
            return lambda X: payoff_batch(self.payoff, X)
        model = self.models[t]
        return lambda X: kernels.clipped_predict_batch(model, X)


def pair_shocks(rng, n, M, d):
    """One shock of each antithetic pair for n M-draw averages: shape (n, ceil(M/2), d).

    Pairing z with -z keeps each average unbiased and cuts its variance
    (Glasserman, Monte Carlo Methods in Financial Engineering, 2004, sec. 4.2);
    an odd M rounds up to M + 1 draws.
    """
    return rng.standard_normal((n, (M + 1) // 2, d))


def continuation(X, next_fn, Z, params, tile_map=map):
    """The (n, 2h) matrix of discounted next values e^{-r dt} next_fn(step(X_i, +-Z_ij)).

    Each state X_i (a row of X, shape (n, d)) steps once per shock Z_ij and
    once per -Z_ij (Z has shape (n, h, d), from ``pair_shocks``), both from one
    shock product. Columns j and h + j are a pair; row means are the Monte
    Carlo continuation values. The next states are stepped and evaluated in
    tiles of at most CONTINUATION_TILE: whole rows while their 2h states fit,
    else slices of one row's pairs, so no array but Z and the result grows
    with n h. The tiles depend only on (n, h) and write disjoint blocks, so
    ``tile_map`` (builtin ``map`` or an executor's) may run them on any threads
    and the result is bitwise the same.
    """
    n, h, d = Z.shape
    out = np.empty((n, 2 * h))
    pairs = out.reshape(n, 2, h)  # [i, 0, j] holds pair j's +z value, [i, 1, j] its -z one
    rows = max(1, CONTINUATION_TILE // (2 * h))
    width = min(h, CONTINUATION_TILE // 2)

    def fill(tile):
        lo, j = tile
        xn = gbm_step(X[lo:lo + rows, None, :], params, Z[lo:lo + rows, j:j + width],
                      antithetic=True)
        pairs[lo:lo + rows, :, j:j + width] = next_fn(xn.reshape(-1, d)).reshape(len(xn), 2, -1)

    list(tile_map(fill, ((lo, j) for lo in range(0, n, rows) for j in range(0, h, width))))
    out *= math.exp(-params.r * params.dt)
    return out


def stage_draws(t, cfg, params, seed):
    """Stage t's training states X ~ mu_t and their inner shocks Z, from (seed, purpose, t)."""
    X = sample_mu_t(params, t, cfg.n, substream(seed, OUTER, t))
    return X, pair_shocks(substream(seed, INNER, t), cfg.n, cfg.M, params.d)


def generate_stage_data(t, cfg, next_fn, params, payoff, seed, n_jobs=1):
    """Stage t's training states X (n, d) and targets Y (n, 2).

    ``Y[:, 1]`` holds the MC continuation means and ``Y[:, 0]`` the Bellman
    targets max(exercise, continuation). The continuation tiles run on
    ``n_jobs`` threads.
    """
    X, Z = stage_draws(t, cfg, params, seed)
    Y = np.empty((cfg.n, 2))
    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        Y[:, 1] = continuation(X, next_fn, Z, params, pool.map).mean(axis=1)
    Y[:, 0] = np.maximum(payoff_batch(payoff, X), Y[:, 1])
    return X, Y


def backward_pass(run, n_jobs=1):
    """Fit V_t and C_t for t = T-1 down to 1, one fit of the stage's two target columns each.

    Stage 0 is the point mass at x0, so it has no regression: its one value,
    the time-0 price, is ``price_at_origin``'s fresh evaluation at x0.
    """
    params, T, seed = run.params, run.steps, run.seed
    stack = ValueFunctionStack(payoff=run.payoff, models=[None] * T, continuations=[None] * T,
                               params=params)
    cfg = run.stage
    for t in range(T - 1, 0, -1):
        try:
            X, Y = generate_stage_data(t, cfg, stack.stage_fn(t + 1), params, run.payoff,
                                       seed, n_jobs)
            stack.models[t], stack.continuations[t] = kernels.krr_fit(X, Y, cfg.lam, cfg.kernel)
        except kernels.FitError as exc:
            raise kernels.FitError(f"stage {t}: {exc}") from exc
    return stack


def price_at_origin(stack, eval_M, rng):
    """Time-0 Bellman value at x0: the payoff or a fresh eval_M-draw continuation, the larger."""
    if eval_M < 1:
        raise ValueError("eval_M must be at least 1")
    x0 = stack.params.x0[None]
    return float(max(payoff_batch(stack.payoff, x0)[0], _nested(stack, 0, x0, eval_M, rng)[0]))


def policy_lower_bound(stack, paths, rng):
    """Average discounted payoff of the stack-induced stopping rule, and its stderr.

    Any feasible rule prices at or below the optimum in expectation, so this
    is a downward-biased cross-check. A path exercises at the first t where
    its payoff C is positive and at least the continuation estimate: the
    regression rule C >= C_t(x) (Longstaff & Schwartz, RFS 2001), refined by a
    nested LOWER_BOUND_INNER_M-draw continuation through the stage-(t+1) model
    where |C - C_t(x)| < s_t, C_t's leave-one-out RMS, and at t = 0, which has
    no C_0 (Broadie & Cao, Quant. Finance 2008). Every path starts at x0, so
    one nested estimate there decides t = 0 for all. The outer increments are
    drawn first, as one (T, paths, d) block, then the inner shocks of each
    nested estimate, so a path's increments do not depend on the others. Once
    every path has stopped, the walk goes on over 0 rows, which draw nothing.
    """
    if paths < 2:
        raise ValueError("paths must be at least 2: a standard error needs two paths")
    params, payoff, T = stack.params, stack.payoff, stack.horizon
    steps = rng.standard_normal((T, paths, params.d))
    x = np.tile(params.x0, (paths, 1))
    alive = np.arange(paths)
    value = np.zeros(paths)
    for t in range(T):
        C = payoff_batch(payoff, x)
        stop = C > 0
        if t == 0:  # every path sits at x0, so one decision there serves all
            stop[:] = stop[0] and C[0] >= _nested(stack, 0, x[:1], LOWER_BOUND_INNER_M, rng)[0]
        else:
            stop[stop] = _exercise(stack, t, x[stop], C[stop], rng)
        value[alive[stop]] = C[stop] * math.exp(-params.r * t * params.dt)
        keep = ~stop
        alive = alive[keep]
        x = gbm_step(x[keep], params, steps[t, alive])
    value[alive] = payoff_batch(payoff, x) * math.exp(-params.r * T * params.dt)
    return float(value.mean()), float(value.std(ddof=1) / math.sqrt(paths))


def _exercise(stack, t, x, C, rng):
    """Whether the states x (rows), with positive payoffs C, exercise at date t >= 1."""
    model = stack.continuations[t]
    gap = C - kernels.clipped_predict_batch(model, x)
    stop, nest = gap >= 0, np.abs(gap) < model.loo_rms
    stop[nest] = C[nest] >= _nested(stack, t, x[nest], LOWER_BOUND_INNER_M, rng)
    return stop


def _nested(stack, t, x, M, rng):
    """M-draw continuation values at date t of the states x (rows), through V_{t+1}."""
    Z = pair_shocks(rng, len(x), M, stack.params.d)
    return continuation(x, stack.stage_fn(t + 1), Z, stack.params).mean(axis=1)


def save_stack(stack, path):
    """Versioned npz serialization of stages 1..T-1; predictions round-trip bit-exactly.

    Each stage holds V_t and C_t, which share V_t's centres: the scalars in the
    JSON header, the arrays beside it. Writes exactly ``path``: ``np.savez``
    given a file name would append ``.npz``.
    """
    def scalars(m):
        return {"clip_bound": m.clip_bound, "loo_rms": m.loo_rms}

    header = {
        "version": STACK_FORMAT_VERSION,
        "dt": stack.params.dt,
        "r": stack.params.r,
        "payoff_kind": stack.payoff.kind,
        "strike": stack.payoff.strike,
        "stages": [{"lengthscale": m.kernel.lengthscale, **scalars(m),
                    "continuation": scalars(c)}
                   for m, c in zip(stack.models[1:], stack.continuations[1:])],
    }
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        "sigma": stack.params.sigma,
        "rho": stack.params.rho,
        "x0": stack.params.x0,
    }
    for t, (m, c) in enumerate(zip(stack.models[1:], stack.continuations[1:]), start=1):
        arrays[f"centers_{t}"] = m.centers
        arrays[f"coef_{t}"] = m.coefficients
        arrays[f"cont_coef_{t}"] = c.coefficients
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_stack(path):
    data = np.load(path)
    header = json.loads(bytes(data["header"]).decode())
    if header["version"] != STACK_FORMAT_VERSION:
        raise ValueError(f"unsupported stack format version {header['version']}")
    params = GbmParams(d=len(data["x0"]), r=header["r"], sigma=data["sigma"],
                       rho=data["rho"], x0=data["x0"], dt=header["dt"])
    payoff = PayoffSpec(kind=header["payoff_kind"], strike=header["strike"])
    models, continuations = [None], [None]
    for t, stage in enumerate(header["stages"], start=1):
        model = KrrModel(
            centers=data[f"centers_{t}"],
            coefficients=data[f"coef_{t}"],
            kernel=KernelSpec(lengthscale=stage["lengthscale"]),
            clip_bound=stage["clip_bound"],
            loo_rms=stage["loo_rms"],
        )
        models.append(model)
        continuations.append(replace(model, coefficients=data[f"cont_coef_{t}"],
                                     **stage["continuation"]))
    return ValueFunctionStack(payoff=payoff, models=models, continuations=continuations,
                              params=params)
