"""Backward induction: empirical Bellman targets, stagewise KRR fits, pricing.

Stage models approximate the value functions V_t for t = 1..T-1 (V_T is the
known terminal payoff; V_0 is needed only at x0, where ``price_at_origin``
estimates it). Every stage fits exact KRR (``kernels.krr_fit``) on all n of
its training states, whatever n: one model whose two outputs are V_t, fitted
to the Bellman targets, and the continuation C_t, fitted to the stage's
continuation means, with C_t's leave-one-out RMS s_t. ``policy_lower_bound``
exercises by C_t and nests a Monte Carlo continuation only where the payoff
lies within s_t of it. Every continuation average steps on antithetic pairs:
the stage targets on ``pair_shocks``' pseudo-random normals, and the nested
estimates after the fit (``price_at_origin``'s eval_M points at x0 and the
bound's LOWER_BOUND_INNER_M) on ``qmc.sobol_shocks``' randomized quasi-Monte
Carlo shocks, digitally shifted Sobol points. A stage draws its training
states and its inner shocks (``stage_draws``) from one counter-based
substream each, keyed by (seed, purpose, stage), before any continuation
tile runs; the tiles depend only on the stage's size, so the targets do not
depend on the thread count.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels, qmc
from .dynamics import INNER, OUTER, GbmParams, gbm_step, sample_mu_t, substream
from .kernels import KernelSpec, KrrModel
from .payoffs import PayoffSpec, payoff_batch

STACK_FORMAT_VERSION = 8

# The columns of a stage's targets Y, and so the outputs of its model: V_t's
# Bellman targets and C_t's continuation means.
VALUE, CONTINUATION = 0, 1

# Next states that continuation steps and evaluates at once. On the benchmark's
# put_d10 row (2 vCPU, two seeds, tiles 2**10 to 2**16), 2**13 gave the lowest
# seconds per repetition, 0.73-0.82 s against 0.78-1.17 s for the other tiles
# and 1.01-1.09 s untiled; peak RSS was 76 MB there, 72 MB at 2**10, 93 MB at
# 2**16 and 101 MB untiled.
CONTINUATION_TILE = 2**13

# Points (16 antithetic pairs of shifted Sobol points) of policy_lower_bound's
# nested continuation, made only where the payoff lies within s_t of C_t, and
# once at x0 at t = 0. On repetition 0's stack of the benchmark rows (seed 1),
# the RMS error of one estimate over 200 states at t = 1, 4 and 7 read
# 0.056-0.065 at d = 2 and 0.047-0.054 at d = 5, against 0.16-0.24 and
# 0.071-0.087 for the 64 pseudo-random draws it replaces; at d = 10 it read
# 0.069-0.088 against 0.059-0.081. Over 15 bound seeds the mean bound moved by
# 0.0004-0.0037 on those rows, against standard errors of 0.057-0.26, and the
# bound took 19-33% less time.
LOWER_BOUND_INNER_M = 32


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
    """Stage models for t = 1..T-1 and the terminal payoff V_T; t = 0 has no model.

    ``models[t]`` has two outputs: V_t at VALUE and the continuation C_t at
    CONTINUATION, whose ``loo_rms`` is s_t.
    """

    payoff: PayoffSpec
    models: list  # KrrModel per stage t = 1..T-1; None at t = 0
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
        return lambda X: kernels.clipped_predict_batch(model, X, VALUE)


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
    once per -Z_ij (Z has shape (n, h, d), from ``pair_shocks`` or
    ``qmc.sobol_shocks``), both from one shock product. Columns j and h + j
    are a pair; row means are the Monte Carlo continuation values. The next
    states are stepped and evaluated in tiles of at most CONTINUATION_TILE:
    whole rows while their 2h states fit, else slices of one row's pairs, so
    no array but Z and the result grows with n h. The tiles depend only on
    (n, h) and write disjoint blocks, so ``tile_map`` (builtin ``map`` or an
    executor's) may run them on any threads and the result is bitwise the
    same.
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

    ``Y[:, CONTINUATION]`` holds the MC continuation means and ``Y[:, VALUE]``
    the Bellman targets max(exercise, continuation). The continuation tiles
    run on ``n_jobs`` threads.
    """
    X, Z = stage_draws(t, cfg, params, seed)
    Y = np.empty((cfg.n, 2))
    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        Y[:, CONTINUATION] = continuation(X, next_fn, Z, params, pool.map).mean(axis=1)
    Y[:, VALUE] = np.maximum(payoff_batch(payoff, X), Y[:, CONTINUATION])
    return X, Y


def backward_pass(run, n_jobs=1):
    """Fit V_t and C_t for t = T-1 down to 1: one model of the stage's two target columns each.

    Stage 0 is the point mass at x0, so it has no regression: its one value,
    the time-0 price, is ``price_at_origin``'s fresh evaluation at x0.
    """
    params, T, seed = run.params, run.steps, run.seed
    stack = ValueFunctionStack(payoff=run.payoff, models=[None] * T, params=params)
    cfg = run.stage
    for t in range(T - 1, 0, -1):
        try:
            X, Y = generate_stage_data(t, cfg, stack.stage_fn(t + 1), params, run.payoff,
                                       seed, n_jobs)
            stack.models[t] = kernels.krr_fit(X, Y, cfg.lam, cfg.kernel)
        except kernels.FitError as exc:
            raise kernels.FitError(f"stage {t}: {exc}") from exc
    return stack


def price_at_origin(stack, eval_M, rng):
    """Time-0 Bellman value at x0: the payoff or a fresh eval_M-point continuation, the larger."""
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
    nested LOWER_BOUND_INNER_M-point continuation through the stage-(t+1) model
    where |C - C_t(x)| < s_t, C_t's leave-one-out RMS, and at t = 0, which has
    no C_0 (Broadie & Cao, Quant. Finance 2008). Every path starts at x0, so
    one nested estimate there decides t = 0 for all. The outer increments are
    drawn first, as one (T, paths, d) block, then the digital shifts of each
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
    model = stack.models[t]
    gap = C - kernels.clipped_predict_batch(model, x, CONTINUATION)
    stop, nest = gap >= 0, np.abs(gap) < model.loo_rms[CONTINUATION]
    stop[nest] = C[nest] >= _nested(stack, t, x[nest], LOWER_BOUND_INNER_M, rng)
    return stop


def _nested(stack, t, x, M, rng):
    """M-point RQMC continuation values at date t of the states x (rows), through V_{t+1}.

    Each row averages over its own digitally shifted Sobol points
    (``qmc.sobol_shocks``), so each estimate is unbiased and rows are
    independent; the shifts are the only draw from ``rng``.
    """
    Z = qmc.sobol_shocks(rng, len(x), M, stack.params.d)
    return continuation(x, stack.stage_fn(t + 1), Z, stack.params).mean(axis=1)


def save_stack(stack, path):
    """Versioned npz serialization of stages 1..T-1; predictions round-trip bit-exactly.

    Plain arrays only, so ``np.load`` reads it without pickle: the run's
    scalars and vectors, then row t - 1 of ``lengthscale``, ``clip_bound``
    and ``loo_rms`` and the arrays ``centers_t`` and ``coef_t`` (2, m) for
    stage t. Writes exactly ``path``: ``np.savez`` given a file name would
    append ``.npz``.
    """
    params, models = stack.params, stack.models[1:]
    arrays = {
        "version": STACK_FORMAT_VERSION,
        "dt": params.dt,
        "r": params.r,
        "sigma": params.sigma,
        "rho": params.rho,
        "x0": params.x0,
        "payoff_kind": stack.payoff.kind,
        "strike": stack.payoff.strike,
        "lengthscale": np.array([m.kernel.lengthscale for m in models], dtype=np.float64),
        "clip_bound": np.reshape([m.clip_bound for m in models], (-1, 2)),
        "loo_rms": np.reshape([m.loo_rms for m in models], (-1, 2)),
    }
    for t, m in enumerate(models, start=1):
        arrays[f"centers_{t}"] = m.centers
        arrays[f"coef_{t}"] = m.coefficients
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_stack(path):
    with np.load(path) as data:
        # formats 7 and older kept the version in a JSON header, not an array
        version = int(data["version"]) if "version" in data else "7 or older"
        if version != STACK_FORMAT_VERSION:
            raise ValueError(f"unsupported stack format version {version}")
        params = GbmParams(d=len(data["x0"]), r=float(data["r"]), sigma=data["sigma"],
                           rho=data["rho"], x0=data["x0"], dt=float(data["dt"]))
        payoff = PayoffSpec(kind=str(data["payoff_kind"]), strike=float(data["strike"]))
        stages = zip(data["lengthscale"], data["clip_bound"], data["loo_rms"])
        models = [None] + [
            KrrModel(centers=data[f"centers_{t}"], coefficients=data[f"coef_{t}"],
                     kernel=KernelSpec(lengthscale=float(ls)), clip_bound=clip, loo_rms=rms)
            for t, (ls, clip, rms) in enumerate(stages, start=1)]
    return ValueFunctionStack(payoff=payoff, models=models, params=params)
