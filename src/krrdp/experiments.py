"""Experiment orchestration: benchmark rows, convergence study, diagnostics."""

import csv
import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import bellman, oracles, qmc
from .config import RunConfig, config_hash
from .dynamics import DIAG, EVAL, LOWER, REP, substream
from .payoffs import GEO_BASKET_PUT

ORACLE_TREE_STEPS_PER_DATE = 1000

# Independent shift replicates behind mc_error_diagnostic's standard error,
# replicate 0 the stage's own draws: 15 degrees of freedom per row.
MC_DIAG_REPLICATES = 16

# A price this many pooled standard errors below the policy lower bound on
# the same stack is impossible for a working pricer.
BRACKET_Z = 3.0

logger = logging.getLogger(__name__)


@dataclass
class PricingResult:
    price_mean: float
    ci95: tuple
    per_rep_prices: list
    config: RunConfig
    seconds: float  # mean backward-pass wall clock per repetition
    lower_bound: tuple  # (value, stderr) of the policy lower bound on repetition 0's stack
    oracle_price: float | None = None


def repetition(cfg, rep):
    """The run of repetition ``rep``: cfg with its seed replaced by a child of (seed, REP, rep).

    ``run_benchmark`` prices every repetition on one; ``mc_error_diagnostic``
    and ``krrdp dump-stack`` take repetition 0, whose stack gives the lower bound.
    """
    child = np.random.SeedSequence([cfg.seed, REP, rep]).generate_state(1, np.uint64)[0]
    return replace(cfg, seed=int(child))


def oracle_price(cfg):
    """Bermudan binomial price of the reduced 1-d geometric basket put; None otherwise."""
    if cfg.payoff.kind != GEO_BASKET_PUT:
        return None
    red = oracles.geometric_reduction(cfg.params, maturity=cfg.maturity, steps=cfg.steps)
    return oracles.crr_binomial_american(red, cfg.payoff.strike, kind="put",
                                         tree_steps=cfg.steps * ORACLE_TREE_STEPS_PER_DATE)


def run_benchmark(cfg):
    """Repetitions x (backward pass + fresh origin evaluation), aggregated, and
    the policy lower bound on repetition 0's stack, checked against the price.

    The oracle is priced first, so a contract it cannot price fails before
    any backward pass runs."""
    reference = oracle_price(cfg)
    prices = []
    fit_seconds = 0.0
    first_stack = None
    for rep in range(cfg.repetitions):
        rep_cfg = repetition(cfg, rep)
        tic = time.perf_counter()
        stack = bellman.backward_pass(rep_cfg)
        fit_seconds += time.perf_counter() - tic
        if first_stack is None:
            first_stack = stack
        prices.append(bellman.price_at_origin(stack, cfg.eval_M,
                                              substream(rep_cfg.seed, EVAL)))
    prices_arr = np.asarray(prices)
    mean = float(prices_arr.mean())
    se = float(prices_arr.std(ddof=1)) / math.sqrt(cfg.repetitions)
    lb = bellman.policy_lower_bound(first_stack, cfg.lb_paths, substream(cfg.seed, LOWER))
    if lb[0] - mean > BRACKET_Z * math.hypot(se, lb[1]):
        logger.warning("price %.4f (stderr %.4f) lies below the policy lower bound %.4f "
                       "(stderr %.4f) on the same stack; the stage models are degenerate, "
                       "check stage.lambda and stage.lengthscale",
                       mean, se, lb[0], lb[1])
    return PricingResult(
        price_mean=mean,
        ci95=(mean - 1.96 * se, mean + 1.96 * se),
        per_rep_prices=prices,
        config=cfg,
        seconds=fit_seconds / cfg.repetitions,
        lower_bound=lb,
        oracle_price=reference,
    )


CONVERGENCE_C_LAMBDA = 0.1
CONVERGENCE_C_M = 10.0


def schedule_hyperparams(n):
    """The convergence study's stage settings at n: lambda ~ n^{-1/2}, M ~ n^{1/2}.

    These are the rate-optimal schedules lambda ~ n^{-1/(beta+1)} and
    M ~ n^{beta/(beta+1)} at source-condition exponent beta = 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return CONVERGENCE_C_LAMBDA * n ** -0.5, math.ceil(CONVERGENCE_C_M * n ** 0.5)


def convergence_study(cfg, n_grid):
    """Error vs oracle as n grows, with (lambda, M) from ``schedule_hyperparams``.

    Returns (rows, spearman) where each row is a dict with keys
    n, lam, M, mean_abs_err, stderr. The schedule constants CONVERGENCE_C_LAMBDA
    and CONVERGENCE_C_M keep the regularization and inner-MC biases small enough
    at desk-scale n that the error trend is visible rather than swamped by bias
    cancellation. The grid needs at least two sizes, all distinct, so the n ranks
    have no ties.
    """
    if cfg.payoff.kind != GEO_BASKET_PUT:
        raise ValueError("no reference price: the study needs the geometric put's binomial oracle")
    if len(n_grid) < 2 or len(set(n_grid)) < len(n_grid):
        raise ValueError(f"need at least two distinct sample sizes, got {list(n_grid)}")
    rows = []
    for n in n_grid:
        lam, M = schedule_hyperparams(n)
        res = run_benchmark(replace(cfg, stage=replace(cfg.stage, n=int(n), M=M, lam=lam)))
        errs = np.abs(np.asarray(res.per_rep_prices) - res.oracle_price)
        stderr = float(errs.std(ddof=1) / math.sqrt(len(errs)))
        rows.append({"n": int(n), "lam": lam, "M": M,
                     "mean_abs_err": float(errs.mean()), "stderr": stderr})
    # Spearman's rho, Pearson's on the ranks: the n are distinct, and the Monte
    # Carlo errors tie with probability zero, so no rank is shared
    ranks = [np.argsort(np.argsort([r[key] for r in rows])) for key in ("n", "mean_abs_err")]
    return rows, float(np.corrcoef(ranks)[0, 1])


def mc_error_diagnostic(cfg):
    """Standard error of the last drawing stage's continuation means, on repetition 0's draws.

    For the max-call that is stage T-1, which averages the payoff. The put's
    stage T-1 averages f_T = 0 and draws nothing, so for the put it is stage
    T-2, which averages the premium through repetition 0's stage-(T-1) model.
    X and replicate 0 of the inner shocks are ``bellman.stage_draws`` at that
    stage, the ones ``backward_pass(repetition(cfg, 0))`` draws there, so
    replicate 0's row means are the continuation values of the stack behind
    ``run_benchmark``'s lower bound. A row's shifted Sobol points are not
    independent draws, so the error of its mean cannot be read from their
    spread; MC_DIAG_REPLICATES - 1 further replicates shift the same points
    again for the same X, from the substream (seed, DIAG, t). Returns
    sqrt(mean_i s_i^2), s_i the sample standard deviation of row i's
    continuation mean over the replicates.
    """
    if cfg.steps < 2:
        raise ValueError(f"need contract.steps >= 2 for a fitted stage, got {cfg.steps}")
    params, stage, seed = cfg.params, cfg.stage, repetition(cfg, 0).seed
    stack = bellman.ValueFunctionStack(payoff=cfg.payoff, models=[None] * cfg.steps,
                                       params=params)
    t = cfg.steps - 1
    if stack.premium_fn(t + 1) is None:
        if t < 2:
            raise ValueError(f"the put's stage T-1 draws nothing, so its first stage that "
                             f"draws is T-2: need contract.steps >= 3, got {cfg.steps}")
        bellman.fit_stage(stack, t, stage, seed)
        t -= 1
    next_fn = stack.premium_fn(t + 1)
    X, Z = bellman.stage_draws(t, stage, params, seed)
    rng = substream(seed, DIAG, t)
    means = np.empty((MC_DIAG_REPLICATES, stage.n))
    for r in range(MC_DIAG_REPLICATES):
        if r:
            Z = qmc.sobol_shocks(rng, stage.n, stage.M, params.d)
        means[r] = bellman.continuation(X, next_fn, Z, params).mean(axis=1)
    return float(np.sqrt(np.mean(means.var(axis=0, ddof=1))))


_CSV_COLUMNS = ("d", "payoff", "price", "ci_low", "ci_high", "oracle",
                "lower_bound", "seconds", "seed", "config_hash")


def emit_results(res, path):
    """Write a CSV header and the result's row."""
    cfg = res.config
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerow([cfg.params.d, cfg.payoff.kind, res.price_mean, res.ci95[0], res.ci95[1],
                         res.oracle_price, res.lower_bound[0],
                         res.seconds, cfg.seed, config_hash(cfg)])
