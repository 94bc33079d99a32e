"""Command-line entry points: price, converge, mc-diag, dump-stack."""

import argparse
import sys
from dataclasses import replace

from . import bellman, experiments
from .config import ConfigError, load_config


def _add_common(p, jobs=True):
    p.add_argument("--config", required=True, help="path to a run config file")
    p.add_argument("--seed", type=int, default=None, help="override the root seed")
    if jobs:
        p.add_argument("--jobs", type=int, default=1, help="worker threads for data generation")


def _load(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _int_list(text):
    return [int(v) for v in text.split(",") if v.strip()]


def cmd_price(args):
    cfg = _load(args)
    if args.reps is not None:
        cfg = replace(cfg, repetitions=args.reps)
    if args.oracle:
        cfg = replace(cfg, oracle=True)
    if args.lower_bound:
        cfg = replace(cfg, lower_bound=True)
    res = experiments.run_benchmark(cfg, n_jobs=args.jobs)
    print(f"price {res.price_mean:.4f}  ci95 [{res.ci95[0]:.4f}, {res.ci95[1]:.4f}]"
          f"  time/rep {res.seconds:.2f}s")
    if res.oracle_price is not None:
        print(f"oracle {res.oracle_price:.4f}")
    if res.lower_bound is not None:
        print(f"lower_bound {res.lower_bound[0]:.4f} (stderr {res.lower_bound[1]:.4f})")
    if args.out:
        experiments.emit_results([res], args.format, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_converge(args):
    cfg = _load(args)
    rows, rho = experiments.convergence_study(cfg, _int_list(args.n_grid), n_jobs=args.jobs,
                                              c_lambda=args.c_lambda, c_m=args.c_m)
    print("n,lambda,M,mean_abs_err,stderr")
    for row in rows:
        print(f"{row['n']},{row['lam']:.6g},{row['M']},{row['mean_abs_err']:.6g},{row['stderr']:.6g}")
    print(f"spearman {rho:.4f}")
    return 0


def cmd_mc_diag(args):
    cfg = _load(args)
    m_small, m_large = _int_list(args.m)
    gap = experiments.mc_error_diagnostic(cfg, (m_small, m_large))
    print(f"rms_gap {gap:.6g}")
    return 0


def cmd_dump_stack(args):
    cfg = _load(args)
    stack = bellman.backward_pass(cfg, n_jobs=args.jobs)
    bellman.save_stack(stack, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="krrdp",
                                     description="Kernel-regression backward induction option pricer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price a contract and emit a benchmark row")
    _add_common(p)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--lower-bound", action="store_true")
    p.set_defaults(fn=cmd_price)

    p = sub.add_parser("converge", help="error vs oracle over a grid of sample sizes")
    _add_common(p)
    p.add_argument("--n-grid", required=True, help="comma-separated sample sizes")
    p.add_argument("--c-lambda", type=float, default=0.1, help="schedule constant for lambda")
    p.add_argument("--c-m", type=float, default=10.0, help="schedule constant for M")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("mc-diag", help="continuation-value MC error diagnostic")
    _add_common(p, jobs=False)
    p.add_argument("--m", required=True, help="M_small,M_large")
    p.set_defaults(fn=cmd_mc_diag)

    p = sub.add_parser("dump-stack", help="fit and serialize the value-function stack")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_dump_stack)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
