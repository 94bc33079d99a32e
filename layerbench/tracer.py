"""Spans and counts for the traced run, kept in memory and written at the end.

The tracer replaces public functions at the module bindings their callers
look up -- ``krrdp.bellman.gbm_step`` is the name ``bellman`` calls, so
wrapping it there times every step the Bellman layer takes -- and puts the
originals back when the traced section ends. Nothing in ``krrdp`` is edited.

A span is ``[name, start, end, parent, phase, attrs]``. Its parent is the
innermost span open on the same thread; a span opened on a pool thread with
nothing open there is a child of the innermost span open on the thread that
created the tracer, which is blocked in ``generate_stage_data`` while the
pool runs. ``phase`` says which operation of the run the span belongs to:
``setup``, ``rep``, ``bound`` or ``check``.
"""

import contextlib
import functools
import json
import statistics
import threading
import time
from collections import defaultdict


class _Overlay:
    """A module seen through a few replaced attributes; the rest pass through."""

    def __init__(self, base):
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = []
        self._saved = []

    def _stack(self):
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, owner, attr, name, measure=None, cpu=False):
        """Replace ``owner.attr`` by a traced call recorded under ``name``.

        ``measure(args, result)`` returns attributes to store on the span;
        ``cpu`` also stores the process CPU time the call took.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._owner_stack[-1] if self._owner_stack else None)
            span = [name, 0.0, 0.0, parent, self.phase, {}]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            cpu0 = time.process_time() if cpu else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if cpu:
                span[5]["cpu_s"] = time.process_time() - cpu0
            if measure is not None:
                span[5].update(measure(args, result))
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def overlay(self, owner, attr):
        """Put an overlay of ``owner.attr`` in its place, so that names inside
        it can be wrapped for ``owner`` alone."""
        base = getattr(owner, attr)
        self._saved.append((owner, attr, base))
        view = _Overlay(base)
        setattr(owner, attr, view)
        return view

    def restore(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @contextlib.contextmanager
    def installed(self, phase, install):
        """Trace the calls ``install(self)`` wraps, as ``phase``, within the block."""
        self.phase = phase
        install(self)
        try:
            yield self
        finally:
            self.restore()
            self.phase = None

    def dump(self, path, totals):
        """Write the spans and their ``totals`` (keyed "quantity/phase")."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase", "attrs"],
                       "spans": self.spans,
                       "totals": {f"{key}/{phase}": v for (key, phase), v in totals.items()}}, fh)


def install_layers(tracer):
    """Wrap every layer the repetitions and the lower bound pass through."""
    from krrdp import bellman, config, kernels

    def states(args, result):
        return {"states": result.size // result.shape[-1]}

    def predict(args, result):
        model, X = args[0], args[1]
        centres = 0 if model.constant is not None else len(model.centers)
        return {"points": len(X), "evals": len(X) * centres}

    tracer.wrap(config, "build_run_config", "config.build_run_config")
    for attr in ("backward_pass", "price_at_origin", "policy_lower_bound"):
        tracer.wrap(bellman, attr, f"bellman.{attr}")
    tracer.wrap(bellman, "generate_stage_data", "bellman.generate_stage_data",
                measure=lambda args, result: {"t": args[0]}, cpu=True)
    tracer.wrap(bellman, "sample_mu_t", "dynamics.sample_mu_t")
    tracer.wrap(bellman, "gbm_step", "dynamics.gbm_step", measure=states)
    tracer.wrap(bellman, "substream", "dynamics.substream")
    tracer.wrap(bellman, "payoff_batch", "payoffs.payoff_batch")
    tracer.wrap(kernels, "clipped_predict_batch", "kernels.predict", measure=predict)
    tracer.wrap(kernels, "krr_fit", "kernels.krr_fit")
    tracer.wrap(kernels, "nystrom_fit", "kernels.nystrom_fit")
    scipy_view = tracer.overlay(kernels, "scipy")
    scipy_view.linalg = _Overlay(scipy_view.linalg)
    tracer.wrap(scipy_view.linalg, "cho_factor", "kernels.cho_factor")


def install_oracles(tracer):
    """Wrap the ``krrdp.oracles`` functions the price checks call."""
    from krrdp import oracles

    for attr in ("longstaff_schwartz", "crr_binomial_american"):
        tracer.wrap(oracles, attr, "oracles.reference")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def span_totals(spans, steps):
    """Sums over the spans, keyed by (quantity, phase).

    The quantities are ``<name>_s`` (duration), ``<name>_calls``, one
    ``<name>_<attr>`` per counted span attribute, and for ``generate_stage_data`` its
    self time and its time at the last and at the inner stages.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append(span)
    totals = defaultdict(float)
    for idx, (name, start, end, _, phase, attrs) in enumerate(spans):
        dur = end - start
        totals[name + "_s", phase] += dur
        totals[name + "_calls", phase] += 1
        for key, value in attrs.items():
            if key != "t":
                totals[f"{name}_{key}", phase] += value
        if name == "bellman.generate_stage_data":
            inner = [(max(c[1], start), min(c[2], end)) for c in children[idx]]
            totals[name + "_self_s", phase] += dur - _covered(inner)
            stage = "last_stage_s" if attrs["t"] == steps - 1 else "inner_stages_s"
            totals["bellman." + stage, phase] += dur
    return totals


def layer_metrics(totals, reps, traced_rep_s, untraced_rep_s):
    """Per-layer metrics from a traced run's span totals.

    Times and counts are per round: their total over the traced repetitions
    divided by ``reps``, plus their total in the one ``policy_lower_bound``
    call. ``config.build_s`` and ``oracles.reference_s`` are totals over the
    run's set-up and checks.
    """
    def rnd(key):
        return totals[key, "rep"] / reps + totals[key, "bound"]

    gsd = "bellman.generate_stage_data"
    metrics = {
        "config.build_s": (totals["config.build_run_config_s", "setup"], "s"),
        "dynamics.sample_mu_t_s": (rnd("dynamics.sample_mu_t_s"), "s"),
        "dynamics.gbm_step_s": (rnd("dynamics.gbm_step_s"), "s"),
        "dynamics.gbm_step_states": (rnd("dynamics.gbm_step_states"), "count"),
        "dynamics.substream_s": (rnd("dynamics.substream_s"), "s"),
        "dynamics.substream_calls": (rnd("dynamics.substream_calls"), "count"),
        "payoffs.payoff_batch_s": (rnd("payoffs.payoff_batch_s"), "s"),
        "kernels.predict_s": (rnd("kernels.predict_s"), "s"),
        "kernels.predict_points": (rnd("kernels.predict_points"), "count"),
        "kernels.predict_kernel_evals": (rnd("kernels.predict_evals"), "count"),
        "kernels.fit_s": (rnd("kernels.krr_fit_s") + rnd("kernels.nystrom_fit_s"), "s"),
        "kernels.fit_calls": (rnd("kernels.krr_fit_calls") + rnd("kernels.nystrom_fit_calls"),
                              "count"),
        "kernels.nystrom_fits": (rnd("kernels.nystrom_fit_calls"), "count"),
        "kernels.cholesky_attempts": (rnd("kernels.cho_factor_calls"), "count"),
        gsd + "_s": (rnd(gsd + "_s"), "s"),
        gsd + "_self_s": (rnd(gsd + "_self_s"), "s"),
        gsd + "_cpu_s": (rnd(gsd + "_cpu_s"), "s"),
        "bellman.last_stage_s": (rnd("bellman.last_stage_s"), "s"),
        "bellman.inner_stages_s": (rnd("bellman.inner_stages_s"), "s"),
        "bellman.backward_pass_s": (rnd("bellman.backward_pass_s"), "s"),
        "bellman.price_at_origin_s": (rnd("bellman.price_at_origin_s"), "s"),
        "bellman.policy_lower_bound_s": (rnd("bellman.policy_lower_bound_s"), "s"),
        "oracles.reference_s": (totals["oracles.reference_s", "check"], "s"),
        "trace.overhead_s": (statistics.median(traced_rep_s)
                             - statistics.median(untraced_rep_s), "s"),
    }
    predict_s = metrics["kernels.predict_s"][0]
    evals = metrics["kernels.predict_kernel_evals"][0]
    metrics["kernels.predict_evals_per_s"] = (evals / predict_s if predict_s else 0.0, "1/s")
    return metrics
