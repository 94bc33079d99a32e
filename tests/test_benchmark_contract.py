"""The package names the layered benchmark (``layerbench/``) calls and wraps.

``layerbench/run.py`` prices through ``bellman``'s public functions, and its
tracer replaces functions at their module bindings to time each layer. A
package change that renames one of them, or changes a call form it uses,
breaks the benchmark without failing any other unit test. This test imports
the tracer as the benchmark does, traces one repetition of
``configs/quick.cfg`` with run.py's calls, and checks that the wrapped
layers saw the work: the kernel predict and one fit per fitted stage.
"""

import importlib
from pathlib import Path

from krrdp import bellman, kernels
from krrdp.config import load_config
from krrdp.dynamics import EVAL, LOWER, substream
from krrdp.experiments import repetition

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2


def test_traced_repetition_reaches_every_layer_the_benchmark_measures(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "layerbench"))
    tracing = importlib.import_module("tracer")
    cfg = load_config(ROOT / "configs" / "quick.cfg")
    run = repetition(cfg, 0)
    originals = (bellman.backward_pass, kernels.clipped_predict_batch, kernels.krr_fit)
    tr = tracing.Tracer()
    with tr.installed("rep", tracing.install_layers):
        stack = bellman.backward_pass(run, JOBS)
        bellman.price_at_origin(stack, run.eval_M, substream(run.seed, EVAL))
        bellman.policy_lower_bound(stack, cfg.lb_paths, substream(cfg.seed, LOWER))
        bellman.generate_stage_data(1, cfg.stages[1], stack.stage_fn(2), cfg.params,
                                    cfg.payoff, run.seed, JOBS)
    assert (bellman.backward_pass, kernels.clipped_predict_batch, kernels.krr_fit) == originals
    totals = tracing.span_totals(tr.spans, cfg.steps)
    assert totals["kernels.predict_evals", "rep"] > 0
    assert totals["kernels.predict_points", "rep"] > 0
    assert totals["kernels.krr_fit_calls", "rep"] == cfg.steps - 1
    assert totals["bellman.generate_stage_data_calls", "rep"] == cfg.steps
