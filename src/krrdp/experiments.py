"""Experiment orchestration: benchmark rows, convergence study, diagnostics."""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import spearmanr

from . import bellman, kernels, oracles
from .config import config_hash
from .dynamics import DIAG, EVAL, FOLDS, LOWER, OUTER, REP, SELECT, sample_mu_t, substream
from .payoffs import GEO_BASKET_PUT, payoff_batch

ORACLE_TREE_STEPS_PER_DATE = 1000


@dataclass
class PricingResult:
    price_mean: float
    ci95: tuple
    per_rep_prices: list
    stage_timings: list  # mean seconds per stage
    config_hash: str
    d: int
    payoff_kind: str
    seed: int
    seconds: float  # mean backward-pass wall clock per repetition
    lower_bound: tuple | None = None
    oracle_price: float | None = None


def _child_seed(seed, *key):
    """A root seed derived from (seed, *key), for a run's independent parts."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, np.uint64)[0])


def oracle_price(cfg, tree_steps=None):
    """Bermudan binomial price of the reduced 1-d geometric basket put."""
    if cfg.payoff.kind != GEO_BASKET_PUT:
        return None
    red = oracles.geometric_reduction(cfg.params, maturity=cfg.maturity, steps=cfg.steps)
    if tree_steps is None:
        tree_steps = cfg.steps * ORACLE_TREE_STEPS_PER_DATE
    return oracles.crr_binomial_american(red, cfg.payoff.strike, kind="put",
                                         tree_steps=tree_steps)


def select_lengthscale(cfg, grid, n_jobs=1):
    """Pick the lengthscale with lowest 5-fold CV error on the stage T-1 fit."""
    t = cfg.steps - 1
    stage = cfg.stages[t]
    seed = _child_seed(cfg.seed, SELECT)
    next_fn = lambda X: payoff_batch(cfg.payoff, X)
    X, y = bellman.generate_stage_data(t, stage, next_fn, cfg.params, cfg.payoff,
                                       seed, n_jobs)
    order = substream(seed, FOLDS).permutation(stage.n)
    folds = np.array_split(order, 5)
    best_ls, best_err = None, math.inf
    for ls in grid:
        spec = kernels.KernelSpec(lengthscale=float(ls))
        err = 0.0
        for k in range(5):
            val = folds[k]
            trn = np.concatenate([folds[j] for j in range(5) if j != k])
            model = kernels.krr_fit(X[trn], y[trn], stage.lam, spec)
            pred = kernels.predict_batch(model, X[val])
            err += float(np.mean((pred - y[val]) ** 2))
        if err < best_err:
            best_ls, best_err = float(ls), err
    return best_ls


def _apply_schedule(cfg):
    stages = tuple(
        replace(s, lam=lam, M=M)
        for s in cfg.stages
        for lam, M in [bellman.schedule_hyperparams(s.n, s.beta)]
    )
    return replace(cfg, stages=stages)


def run_benchmark(cfg, n_jobs=1):
    """Repetitions x (backward pass + fresh origin evaluation), aggregated."""
    if cfg.lengthscale_grid:
        cfg = cfg.with_lengthscale(select_lengthscale(cfg, cfg.lengthscale_grid, n_jobs))
    if cfg.use_schedule:
        cfg = _apply_schedule(cfg)
    digest = config_hash(cfg)
    prices = []
    timings = np.zeros(cfg.steps)
    first_stack = None
    for rep in range(cfg.repetitions):
        rep_cfg = replace(cfg, seed=_child_seed(cfg.seed, REP, rep))
        stack = bellman.backward_pass(rep_cfg, n_jobs)
        if first_stack is None:
            first_stack = stack
        prices.append(bellman.price_at_origin(stack, cfg.eval_M,
                                              substream(rep_cfg.seed, EVAL)))
        timings += np.asarray(stack.timings)
    timings /= cfg.repetitions
    prices_arr = np.asarray(prices)
    mean = float(prices_arr.mean())
    if cfg.repetitions > 1:
        half = 1.96 * float(prices_arr.std(ddof=1)) / math.sqrt(cfg.repetitions)
        ci = (mean - half, mean + half)
    else:
        ci = (mean, mean)
    lb = None
    if cfg.lower_bound:
        lb = bellman.policy_lower_bound(first_stack, cfg.lb_paths,
                                        substream(cfg.seed, LOWER))
    return PricingResult(
        price_mean=mean,
        ci95=ci,
        per_rep_prices=prices,
        stage_timings=timings.tolist(),
        config_hash=digest,
        d=cfg.params.d,
        payoff_kind=cfg.payoff.kind,
        seed=cfg.seed,
        seconds=float(timings.sum()),
        lower_bound=lb,
        oracle_price=oracle_price(cfg) if cfg.oracle else None,
    )


def convergence_study(cfg, n_grid, reference=None, n_jobs=1, c_lambda=0.1, c_m=10.0):
    """Error vs oracle as n grows, with rate-style (lambda, M) schedules.

    Returns (rows, spearman) where each row is a dict with keys
    n, lam, M, mean_abs_err, stderr. The default schedule constants keep the
    regularization and inner-MC biases small enough at desk-scale n that the
    error trend is visible rather than swamped by bias cancellation.
    """
    if reference is None:
        reference = oracle_price(cfg)
    if reference is None:
        raise ValueError("no oracle available; pass an explicit reference price")
    if cfg.lengthscale_grid:
        cfg = cfg.with_lengthscale(select_lengthscale(cfg, cfg.lengthscale_grid, n_jobs))
    rows = []
    for n in n_grid:
        lam, M = bellman.schedule_hyperparams(n, cfg.stages[0].beta, c_lambda, c_m)
        stages = tuple(replace(s, n=int(n), M=M, lam=lam) for s in cfg.stages)
        sub = replace(cfg, stages=stages, use_schedule=False,
                      oracle=False, lower_bound=False)
        res = run_benchmark(sub, n_jobs)
        errs = np.abs(np.asarray(res.per_rep_prices) - reference)
        stderr = float(errs.std(ddof=1) / math.sqrt(len(errs))) if len(errs) > 1 else 0.0
        rows.append({"n": int(n), "lam": lam, "M": M,
                     "mean_abs_err": float(errs.mean()), "stderr": stderr})
    if len(rows) > 1:
        rho = float(spearmanr([r["n"] for r in rows],
                              [r["mean_abs_err"] for r in rows]).statistic)
    else:
        rho = float("nan")
    return rows, rho


def mc_error_diagnostic(cfg, m_pair):
    """RMS gap between continuation estimates at M_small vs M_large.

    Shared outer points and shared noise prefix per point (the small estimate
    averages the first M_small of the large estimate's M_large draws), so
    equal M gives exactly 0 and the gap scales like sqrt(1/M_small - 1/M_large).
    """
    m_small, m_large = m_pair
    if not 1 <= m_small <= m_large:
        raise ValueError("need 1 <= M_small <= M_large")
    t = cfg.steps - 1
    params = cfg.params
    n = cfg.stages[t].n
    seed = _child_seed(cfg.seed, DIAG)
    X = sample_mu_t(params, t, n, substream(seed, OUTER, t))
    Z = bellman._inner_normals(seed, t, range(n), m_large, params.d)
    S = bellman.continuation(X, lambda Xb: payoff_batch(cfg.payoff, Xb), Z, params)
    gaps = S[:, :m_small].mean(axis=1) - S.mean(axis=1)
    return float(np.sqrt(np.mean(gaps**2)))


_CSV_COLUMNS = ("d", "payoff", "price", "ci_low", "ci_high", "oracle",
                "lower_bound", "seconds", "seed", "config_hash")


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _result_row(res):
    return [res.d, res.payoff_kind, res.price_mean, res.ci95[0], res.ci95[1],
            res.oracle_price, res.lower_bound[0] if res.lower_bound else None,
            res.seconds, res.seed, res.config_hash]


def emit_results(results, fmt, path):
    """Write one row per result as CSV or a markdown pipe table."""
    if not results:
        raise ValueError("no results to emit")
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"unknown format {fmt!r}")
    rows = [[_fmt(v) for v in _result_row(r)] for r in results]
    with open(path, "w") as fh:
        if fmt == "csv":
            fh.write(",".join(_CSV_COLUMNS) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        else:
            fh.write("| " + " | ".join(_CSV_COLUMNS) + " |\n")
            fh.write("|" + "---|" * len(_CSV_COLUMNS) + "\n")
            for row in rows:
                fh.write("| " + " | ".join(row) + " |\n")
