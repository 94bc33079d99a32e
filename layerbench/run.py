"""Layered pricing benchmark for krrdp.

Runs one workload the way ``krrdp price --lower-bound`` does: repetitions of
``bellman.backward_pass`` followed by ``bellman.price_at_origin`` until
``--seconds`` have passed (at least one), then ``bellman.policy_lower_bound``
once on the first stack. Every run checks its prices against references
computed apart from the pricer and prints, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 layerbench/run.py --workload put_d10 --seed 1 --seconds 6 --trace 0
    python3 layerbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics instead: each repetition runs twice on the same inputs,
untraced and traced in alternating order, and the lower bound runs traced.
``--workload all`` runs every workload in its own process and prints one
table. Run records and span files go to ``layerbench/out/``.
"""

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import references
import tracer as tracing
from workloads import DATES, MATURITY, RATE, RHO, SIGMA, STRIKE, WORKLOADS, X0

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
# The acceptance suite's LSMC settings for the call rows.
LSMC_PATHS = 100_000
LSMC_DEGREE = 2
LSMC_STREAM = 31
# --jobs determinism is gated on stage T - 1, whose targets average the payoff.
# Stage T - 2, the last whose targets go through the kernel predict, is
# compared too and its differing targets recorded, not gated: the predict's
# row chunks follow the thread blocks, and BLAS rounds a row's kernel sums
# differently in blocks of different sizes.
GATED_STAGE = DATES - 1
PREDICT_STAGE = DATES - 2


def probe_setup(workload, seed):
    """Seconds from starting a fresh process to its RunConfig being built."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


@dataclass
class Outcome:
    """One operation's priced value and cost: a repetition or the lower bound."""

    price: float
    wall: float
    cpu: float
    stack: object = None
    stderr: float = None


class Run:
    """Operations of one run, counted as attempted or failed."""

    def __init__(self):
        self.attempted = 0
        self.errors = []

    def attempt(self, fn, *args):
        """Call fn; an exception (a FitError included) or a non-finite price fails it."""
        self.attempted += 1
        try:
            out = fn(*args)
        except Exception as exc:  # any fault in the pricer is a failed operation
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        if not math.isfinite(out.price):
            self.errors.append(f"non-finite price {out.price}")
            return None
        return out


def _repetition(bellman, rep_cfg, jobs, eval_rng):
    wall, cpu = time.perf_counter(), time.process_time()
    stack = bellman.backward_pass(rep_cfg, jobs)
    price = bellman.price_at_origin(stack, rep_cfg.eval_M, eval_rng)
    return Outcome(price, time.perf_counter() - wall, time.process_time() - cpu, stack=stack)


def _bound(bellman, stack, paths, rng):
    wall, cpu = time.perf_counter(), time.process_time()
    value, stderr = bellman.policy_lower_bound(stack, paths, rng)
    return Outcome(value, time.perf_counter() - wall, time.process_time() - cpu, stderr=stderr)


def price_checks(wl, cfg, prices, bound):
    """Reference prices and the checks against them; (references, failures)."""
    from krrdp import oracles

    fails = checks.finite(prices, (bound.price, bound.stderr) if bound else ())
    refs = {}
    if bound:
        fails += checks.lower_bound(prices, wl.price_sd, bound.price, bound.stderr)
    if wl.payoff == "geo_basket_put":
        rho = np.full((wl.d, wl.d), RHO)
        np.fill_diagonal(rho, 1.0)
        s0, vol, q = references.geometric_basket(np.full(wl.d, X0), np.full(wl.d, SIGMA), rho)
        refs["tree"] = references.bermudan_put_tree(s0, STRIKE, RATE, q, vol, MATURITY, DATES)
        refs["european"] = references.black_scholes(s0, STRIKE, RATE, q, vol, MATURITY, "put")
        red = oracles.geometric_reduction(cfg.params, maturity=cfg.maturity, steps=cfg.steps)
        refs["package_tree"] = oracles.crr_binomial_american(red, cfg.payoff.strike, kind="put",
                                                             tree_steps=cfg.steps * 1000)
        fails += checks.put_prices(prices, wl.price_sd, refs["tree"], refs["european"])
        fails += checks.same_reference(refs["tree"], refs["package_tree"], "Bermudan put tree")
    else:
        refs["bs_call"] = references.black_scholes(X0, STRIKE, RATE, 0.0, SIGMA, MATURITY, "call")
        refs["lsmc"], refs["lsmc_se"] = oracles.longstaff_schwartz(
            cfg.params, cfg.payoff, cfg.steps, paths=LSMC_PATHS, basis_degree=LSMC_DEGREE,
            rng=np.random.default_rng([cfg.seed, LSMC_STREAM]))
        fails += checks.call_prices(prices, wl.price_sd, refs["bs_call"],
                                    refs["lsmc"], refs["lsmc_se"])
    return refs, fails


def jobs_checks(bellman, wl, cfg, stack, seed):
    """Compare stages at --jobs 1 and at the workload's jobs count.

    Returns the failures of the gated stage and, for the predict stage, how
    many of X and y differ.
    """
    def both(t):
        return [bellman.generate_stage_data(t, cfg.stages[t], stack.stage_fn(t + 1), cfg.params,
                                            cfg.payoff, seed, jobs) for jobs in (1, wl.jobs)]

    (X1, y1), (Xj, yj) = both(GATED_STAGE)
    what = f"stage {GATED_STAGE} {{}} at jobs 1 and {wl.jobs}"
    fails = checks.bitwise_equal(X1, Xj, what.format("X")) + checks.bitwise_equal(
        y1, yj, what.format("y"))
    (X1, y1), (Xj, yj) = both(PREDICT_STAGE)
    return fails, {"stage": PREDICT_STAGE, "X": int(np.sum(X1 != Xj)), "y": int(np.sum(y1 != yj)),
                   "of": len(y1), "y_max_abs": float(np.max(np.abs(y1 - yj)))}


def run_workload(wl, seed, seconds, traced):
    setup = [] if traced else [probe_setup(wl.name, seed) for _ in range(SETUP_PROBES)]
    sys.path.insert(0, str(SRC))
    from krrdp import bellman, config
    from krrdp.dynamics import EVAL, LOWER, REP, substream

    tr = tracing.Tracer() if traced else None

    def section(phase, install=tracing.install_layers):
        return tr.installed(phase, install) if tr and phase else contextlib.nullcontext()

    with section("setup"):
        cfg = config.build_run_config(wl.entries(seed))

    run = Run()
    fails = []
    reps, untraced_s, traced_s = [], [], []
    start = time.perf_counter()
    while not run.attempted or time.perf_counter() - start < seconds:
        rep_seed = int(np.random.SeedSequence([cfg.seed, REP, len(reps)]).generate_state(1)[0])
        rep_cfg = replace(cfg, seed=rep_seed)
        # A traced run repeats each repetition, traced, on the same inputs, and
        # alternates which of the two goes first.
        order = ((None, "rep") if len(reps) % 2 == 0 else ("rep", None)) if tr else (None,)
        outs = {}
        for phase in order:
            with section(phase):
                outs[phase] = run.attempt(_repetition, bellman, rep_cfg, wl.jobs,
                                          substream(rep_seed, EVAL))
        out, again = outs[None], outs.get("rep")
        reps.append((rep_seed, out))
        if out and again:
            untraced_s.append(out.wall)
            traced_s.append(again.wall)
            if again.price != out.price:
                fails.append(f"traced price {again.price!r} differs from untraced {out.price!r}")
    done = [(s, out) for s, out in reps if out]
    bound = None
    if done:
        with section("bound"):
            bound = run.attempt(_bound, bellman, done[0][1].stack, cfg.lb_paths,
                                substream(cfg.seed, LOWER))
    else:
        run.attempted += 1
        run.errors.append("no stack for the lower bound")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    prices = [out.price for _, out in done]
    refs, jobs_diffs = {}, None
    if prices:
        with section("check", tracing.install_oracles):
            refs, more = price_checks(wl, cfg, prices, bound)
        fails += more
        if wl.jobs > 1:
            more, jobs_diffs = jobs_checks(bellman, wl, cfg, done[0][1].stack, done[0][0])
            fails += more
    else:
        fails.append("no repetition succeeded")

    if tr:
        totals = tracing.span_totals(tr.spans, cfg.steps)
        metrics = tracing.layer_metrics(totals, len(traced_s), traced_s, untraced_s) \
            if traced_s and bound else {}
    else:
        metrics = {
            "rep_s": (statistics.median(out.wall for _, out in done), "s"),
            "rep_cpu_s": (statistics.median(out.cpu for _, out in done), "s"),
            "bound_s": (bound.wall, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        } if done and bound else {}

    record = {
        "workload": wl.name, "seed": seed, "root_seed": cfg.seed, "trace": int(traced),
        "seconds": seconds, "n": cfg.stages[0].n, "M": cfg.stages[0].M, "eval_M": cfg.eval_M,
        "prices": prices, "rep_s": [out.wall for _, out in done],
        "rep_cpu_s": [out.cpu for _, out in done], "traced_rep_s": traced_s,
        "lower_bound": bound and {"value": bound.price, "stderr": bound.stderr, "seconds": bound.wall},
        "setup_s": setup, "peak_rss_mb": peak_rss_mb, "references": refs,
        "errors": run.errors, "check_failures": fails, "jobs_predict_stage_diffs": jobs_diffs,
        "metrics": {name: [value, unit] for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(traced)}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tr:
        tr.dump(OUT / f"{stem}-spans.json", totals)

    for name, (value, unit) in metrics.items():
        print(f"{wl.name}  {name:36s} {value:14.6g} {unit}")
    for msg in run.errors + fails:
        print(f"{wl.name}  FAILED: {msg}")
    if jobs_diffs:
        print(f"{wl.name}  note: stage {PREDICT_STAGE} at jobs 1 and {wl.jobs}: {jobs_diffs['y']} "
              f"of {jobs_diffs['of']} targets differ, by up to {jobs_diffs['y_max_abs']:.3g}")
    return {
        "correct": not fails,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process; one line per metric, then one JSON line."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stderr.write(proc.stderr)
            print(f"{name}: no result (exit {proc.returncode})")
            return 1
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct {res['correct']}, attempted {res['attempted']}, "
              f"failed {res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "krrdp" / "__init__.py").is_file():
        print(f"error: no krrdp package under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
