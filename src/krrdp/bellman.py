"""Backward induction: empirical Bellman targets, stagewise KRR fits, pricing.

Stage models approximate the value functions V_t for t = 1..T-1 (V_T is the
known terminal payoff; V_0 is needed only at x0, where ``price_at_origin``
estimates it) above a closed-form baseline b_t, which ``european_baseline``
gives: V_t = b_t + f_t. For the geometric put, b_t is the European put on the
basket's geometric mean, whose discounted value is a martingale under the
simulated dynamics and b_T the payoff, so only the early-exercise premium f_t
is regressed and f_T = 0: the European price as a control variate (Glasserman,
Monte Carlo Methods in Financial Engineering, 2004, sec. 8.6). For the
max-call, b = 0 and f_t is V_t. Every stage fits exact KRR
(``kernels.krr_fit``) on all n of its training states, whatever n: one model
whose two outputs are f_t, fitted to max(payoff - b_t, c_t), and the premium's
continuation c_t, fitted to the discounted mean of f_{t+1} over the stage's
inner points, with c_t's leave-one-out RMS s_t. Every evaluator adds b_t back
exactly: ``stage_fn`` gives b_t + f_t, and ``policy_lower_bound`` exercises by
b_t + c_t and nests a Monte Carlo continuation only where the payoff lies
within s_t of it. Where f_{t+1} = 0 (the put at t = T-1) a continuation is b_t
exactly and draws nothing. Every other continuation average steps on
antithetic pairs of ``qmc.sobol_shocks``' randomized quasi-Monte Carlo shocks,
digitally shifted Sobol points, one shift per averaged state: the stage
targets' M points (``stage_draws``), ``price_at_origin``'s eval_M points at x0
and the bound's LOWER_BOUND_INNER_M. A stage draws its training states and the
shifts of its inner shocks from one counter-based substream each, keyed by
(seed, purpose, stage), before any continuation tile runs; the tiles depend
only on the stage's size, so the targets do not depend on the thread count.
"""

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import kernels, qmc
from .dynamics import (INNER, OUTER, GbmParams, gbm_step, geometric_mean_rates, sample_mu_t,
                       substream)
from .kernels import KernelSpec, KrrModel
from .payoffs import GEO_BASKET_PUT, PayoffSpec, payoff_batch

STACK_FORMAT_VERSION = 9

# The columns of a stage's targets Y, and so the outputs of its model: the
# premium f_t's Bellman targets and its continuation c_t's means.
VALUE, CONTINUATION = 0, 1

# Next states that continuation steps and evaluates at once. At M = 64 on the
# benchmark rows (2 vCPU, 6 s runs, medians of 8 seeds), seconds per
# repetition did not separate between tiles 2**11, 2**12 and 2**13 (put_d10
# 0.356, 0.342 and 0.327 s in one set of seeds; 0.316 s at 2**11 and 2**12
# in another), while peak RSS fell with the tile, most where two threads each
# hold a tile: put_d5_jobs2 read 73.0, 74.0 and 74.5 MB, and 73.2 against
# 74.7 MB in the second set; put_d10 75.9, 75.9 and 77.4 MB.
CONTINUATION_TILE = 2**11

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


def european_baseline(payoff, params, horizon):
    """The baseline b(t, X) of the stage models, for 0 <= t <= horizon; None where b = 0.

    For the geometric put, b_t(X) is the Black-Scholes put on G(X), the rows'
    geometric mean, with ``dynamics.geometric_mean_rates``' sigma_hat and q and
    (horizon - t) dt to run, and b_horizon is the payoff. G is exactly that
    GBM under ``gbm_step``, so e^{-r dt} E[b_{t+1}(X_{t+1}) | X_t] = b_t(X_t).
    The max-call has no such baseline: None.
    """
    if payoff.kind != GEO_BASKET_PUT:
        return None
    sigma, q = geometric_mean_rates(params)
    strike, r = payoff.strike, params.r

    def baseline(t, X):
        if t == horizon:
            return payoff_batch(payoff, X)
        tau = (horizon - t) * params.dt
        vol = sigma * math.sqrt(tau)
        log_g = np.mean(np.log(X), axis=1)
        d2 = (log_g - math.log(strike) + (r - q - 0.5 * sigma * sigma) * tau) / vol
        put = strike * math.exp(-r * tau) * qmc.normal_cdf(-d2)
        put -= np.exp(log_g - q * tau) * qmc.normal_cdf(-(d2 + vol))
        return put

    return baseline


@dataclass
class ValueFunctionStack:
    """Stage models for t = 1..T-1 and the terminal payoff V_T; t = 0 has no model.

    ``models[t]`` has two outputs: the premium f_t = V_t - b_t at VALUE and
    its continuation c_t at CONTINUATION, whose ``loo_rms`` is s_t.
    ``baseline`` is ``european_baseline`` of the stack's payoff, params and
    horizon: b(t, X), or None where b = 0.
    """

    payoff: PayoffSpec
    models: list  # KrrModel per stage t = 1..T-1; None at t = 0
    params: GbmParams
    baseline: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.baseline = european_baseline(self.payoff, self.params, self.horizon)

    @property
    def horizon(self):
        """T, the last exercise date: one model slot per date t = 0..T-1."""
        return len(self.models)

    def _check_stage(self, t):
        if not 1 <= t <= self.horizon:
            raise ValueError(f"no stage model at t={t}; stages run 1..{self.horizon}")

    def premium_fn(self, t):
        """Batch evaluator of the clipped premium f_t, 1 <= t <= T; None where f_t = 0.

        At t = T, f_T is the payoff less b_T: 0 for the put, the payoff for the call.
        """
        self._check_stage(t)
        if t == self.horizon:
            return None if self.baseline is not None else lambda X: payoff_batch(self.payoff, X)
        model = self.models[t]
        return lambda X: kernels.clipped_predict_batch(model, X, VALUE)

    def stage_fn(self, t):
        """Batch evaluator of V_t's approximant b_t + f_t (the payoff at t = T), 1 <= t <= T."""
        premium = self.premium_fn(t)
        if self.baseline is None:
            return premium
        if t == self.horizon:
            return lambda X: payoff_batch(self.payoff, X)
        return lambda X: self.baseline(t, X) + premium(X)


def continuation(X, next_fn, Z, params, tile_map=map):
    """The (n, 2h) matrix of discounted next values e^{-r dt} next_fn(step(X_i, +-Z_ij)).

    Each state X_i (a row of X, shape (n, d)) steps once per shock Z_ij and
    once per -Z_ij (Z has shape (n, h, d), as ``qmc.sobol_shocks`` draws it),
    both from one shock product. Columns j and h + j
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
    """Stage t's training states X ~ mu_t and their inner shocks Z, from (seed, purpose, t).

    Z is (n, ceil(M/2), d): each state's own digital shift of the first
    ceil(M/2) Sobol points, one shock of each antithetic pair.
    """
    X = sample_mu_t(params, t, cfg.n, substream(seed, OUTER, t))
    return X, qmc.sobol_shocks(substream(seed, INNER, t), cfg.n, cfg.M, params.d)


def generate_stage_data(t, cfg, next_fn, params, payoff, seed, n_jobs=1, baseline=None):
    """Stage t's training states X (n, d) and targets Y (n, 2) above the baseline b_t.

    ``next_fn`` is the next date's value less its baseline, None where that
    is 0; ``baseline`` is b_t as a batch function, None where b_t = 0.
    ``Y[:, CONTINUATION]`` holds the discounted means of ``next_fn`` over each
    state's inner points and ``Y[:, VALUE]`` the Bellman targets
    max(exercise - b_t, continuation). The continuation tiles run on
    ``n_jobs`` threads. Where ``next_fn`` is None the continuation is 0 and
    the stage draws no inner shocks.
    """
    Y = np.empty((cfg.n, 2))
    if next_fn is None:
        X = sample_mu_t(params, t, cfg.n, substream(seed, OUTER, t))
        Y[:, CONTINUATION] = 0.0
    else:
        X, Z = stage_draws(t, cfg, params, seed)
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            Y[:, CONTINUATION] = continuation(X, next_fn, Z, params, pool.map).mean(axis=1)
    exercise = payoff_batch(payoff, X)
    if baseline is not None:
        exercise -= baseline(X)
    Y[:, VALUE] = np.maximum(exercise, Y[:, CONTINUATION])
    return X, Y


def fit_stage(stack, t, cfg, seed, n_jobs=1):
    """Fit stage t's premium model, and so f_t and c_t, from the stack's f_{t+1}."""
    baseline = None if stack.baseline is None else functools.partial(stack.baseline, t)
    try:
        X, Y = generate_stage_data(t, cfg, stack.premium_fn(t + 1), stack.params, stack.payoff,
                                   seed, n_jobs, baseline)
        stack.models[t] = kernels.krr_fit(X, Y, cfg.lam, cfg.kernel)
    except kernels.FitError as exc:
        raise kernels.FitError(f"stage {t}: {exc}") from exc


def backward_pass(run, n_jobs=1):
    """Fit f_t and c_t for t = T-1 down to 1: one model of the stage's two target columns each.

    Stage 0 is the point mass at x0, so it has no regression: its one value,
    the time-0 price, is ``price_at_origin``'s fresh evaluation at x0.
    """
    stack = ValueFunctionStack(payoff=run.payoff, models=[None] * run.steps, params=run.params)
    for t in range(run.steps - 1, 0, -1):
        fit_stage(stack, t, run.stage, run.seed, n_jobs)
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
    regression rule C >= b_t(x) + c_t(x) (Longstaff & Schwartz, RFS 2001),
    refined by a nested LOWER_BOUND_INNER_M-point continuation through the
    stage-(t+1) model where |C - b_t(x) - c_t(x)| < s_t, c_t's leave-one-out
    RMS, and at t = 0, which has no c_0 (Broadie & Cao, Quant. Finance 2008).
    b_t is evaluated once per date, on the in-the-money states. Every path
    starts at x0, so one nested estimate there decides t = 0 for all. The
    outer increments come from their own stream, ``rng``'s bit generator
    jumped ahead, one (paths, d) block per date for every path, stopped or
    not; the digital shifts of the nested estimates come from ``rng``. So a
    path's increments do not depend on the other paths or on the nested
    estimates. Once every path has stopped, the walk goes on over 0 rows,
    which nest nothing.
    """
    if paths < 2:
        raise ValueError("paths must be at least 2: a standard error needs two paths")
    params, payoff, T = stack.params, stack.payoff, stack.horizon
    outer = np.random.Generator(rng.bit_generator.jumped())
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
        x = gbm_step(x[keep], params, outer.standard_normal((paths, params.d))[alive])
    value[alive] = payoff_batch(payoff, x) * math.exp(-params.r * T * params.dt)
    return float(value.mean()), float(value.std(ddof=1) / math.sqrt(paths))


def _exercise(stack, t, x, C, rng):
    """Whether the states x (rows), with positive payoffs C, exercise at date t >= 1."""
    model = stack.models[t]
    cont = kernels.clipped_predict_batch(model, x, CONTINUATION)
    b = None if stack.baseline is None else stack.baseline(t, x)
    if b is not None:
        cont += b
    gap = C - cont
    stop, nest = gap >= 0, np.abs(gap) < model.loo_rms[CONTINUATION]
    stop[nest] = C[nest] >= _nested(stack, t, x[nest], LOWER_BOUND_INNER_M, rng,
                                    None if b is None else b[nest])
    return stop


def _nested(stack, t, x, M, rng, b=None):
    """M-point RQMC continuation values at date t of the states x (rows), through V_{t+1}.

    That is b_t(x) plus the discounted mean of f_{t+1} over each row's own
    digitally shifted Sobol points (``qmc.sobol_shocks``), so each estimate
    is unbiased and rows are independent; the shifts are the only draw from
    ``rng``. ``b`` is b_t(x) where the caller has it. Where f_{t+1} = 0 the
    value is b_t(x) exactly, and nothing is drawn.
    """
    if b is None and stack.baseline is not None:
        b = stack.baseline(t, x)
    premium = stack.premium_fn(t + 1)
    if premium is None:
        return b
    Z = qmc.sobol_shocks(rng, len(x), M, stack.params.d)
    cont = continuation(x, premium, Z, stack.params).mean(axis=1)
    return cont if b is None else b + cont


def save_stack(stack, path):
    """Versioned npz serialization of premium models 1..T-1; predictions round-trip bit-exactly.

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
    """The stack ``save_stack`` wrote, its baseline rebuilt from the stored run arrays."""
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
