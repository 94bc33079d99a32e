"""Command-line entry points: price, converge, mc-diag, dump-stack."""

import argparse
import sys

from . import bellman, experiments
from .config import load_config


def _add_common(p):
    p.add_argument("--config", required=True, help="path to a run config file")


def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def cmd_price(args):
    res = experiments.run_benchmark(load_config(args.config))
    print(f"price {res.price_mean:.4f}  ci95 [{res.ci95[0]:.4f}, {res.ci95[1]:.4f}]"
          f"  time/rep {res.seconds:.2f}s")
    if res.oracle_price is not None:
        print(f"oracle {res.oracle_price:.4f}")
    print(f"lower_bound {res.lower_bound[0]:.4f} (stderr {res.lower_bound[1]:.4f})")
    if args.out:
        experiments.emit_results([res], args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_converge(args):
    rows, rho = experiments.convergence_study(load_config(args.config), args.n_grid)
    print("n,lambda,M,mean_abs_err,stderr")
    for row in rows:
        print(f"{row['n']},{row['lam']:.6g},{row['M']},{row['mean_abs_err']:.6g},{row['stderr']:.6g}")
    print(f"spearman {rho:.4f}")
    return 0


def cmd_mc_diag(args):
    se = experiments.mc_error_diagnostic(load_config(args.config))
    print(f"inner_mc_se {se:.6g}")
    return 0


def cmd_dump_stack(args):
    run = experiments.repetition(load_config(args.config), 0)
    bellman.save_stack(bellman.backward_pass(run), args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="krrdp",
                                     description="Kernel-regression backward induction option pricer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price a contract and emit a benchmark row")
    _add_common(p)
    p.add_argument("--out", default=None, help="write the result as one CSV row")
    p.set_defaults(fn=cmd_price)

    p = sub.add_parser("converge", help="error vs oracle over a grid of sample sizes")
    _add_common(p)
    p.add_argument("--n-grid", required=True, type=_int_list, help="comma-separated sample sizes")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("mc-diag", help="continuation-value MC error diagnostic")
    _add_common(p)
    p.set_defaults(fn=cmd_mc_diag)

    p = sub.add_parser("dump-stack",
                       help="fit and serialize the stack whose lower bound price prints")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_dump_stack)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
