"""Spans and counters recorded around calls into matlife, from outside it.

Each traced function is replaced, for the duration of a traced op, by a
wrapper installed at every name a matlife module binds it to (``from .linalg
import mexp`` makes ``matlife.em.mexp`` a separate binding from
``matlife.linalg.mexp``).  A wrapper records one span per call: its name,
start, end, parent span and op id.  Spans stay in memory and are written out
when the run ends.  Outside a traced op the package runs unmodified.

A layer's self time is the span's duration minus the durations of its child
spans; calls are strictly nested in this single-threaded program, so the
children never overlap.  Names that the package no longer defines are
skipped, and their metrics read zero.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: unit of every per-layer metric the traced run reports.  Counts and wall
#: seconds are per op, averaged over whole start cycles, so counts
#: repeat exactly for a given seed.
PER_LAYER = {
    "linalg.mexp.calls": "count/op",
    "linalg.mexp.matrices": "count/op",
    "linalg.mexp.bytes": "B/op",
    "linalg.mexp.self_s": "s/op",
    "phasetype.ph_products.calls": "count/op",
    "phasetype.ph_products.points": "count/op",
    "phasetype.ph_products.self_s": "s/op",
    "phasetype.evaluate.calls": "count/op",
    "phasetype.evaluate.self_s": "s/op",
    "phasetype.tail_hazard_constant.calls": "count/op",
    "phasetype.tail_hazard_constant.self_s": "s/op",
    "phasetype.PHRepresentation.constructions": "count/op",
    "phasetype.PHRepresentation.self_s": "s/op",
    "phasetype.products_evaluator.builds": "count/op",
    "phasetype.products_evaluator.spectral_ratio": "ratio",
    "phasetype.products_evaluator.calls": "count/op",
    "phasetype.products_evaluator.self_s": "s/op",
    "phasetype.sample.self_s": "s/op",
    "em.e_step.calls": "count/op",
    "em.e_step.self_s": "s/op",
    "em.e_step.unique_z": "count/op",
    "em.loglik.calls": "count/op",
    "em.loglik.self_s": "s/op",
    "em.m_step.self_s": "s/op",
    "em.iterations": "count/op",
    "em.dead_state_events": "count/op",
    "em.fit_ph.self_s": "s/op",
    "regression.fit_pi.outer_iterations": "count/op",
    "regression.fit_pi.self_s": "s/op",
    "regression.maximize_regression.calls": "count/op",
    "regression.maximize_regression.self_s": "s/op",
    "regression.maximize_regression.nfev": "count/op",
    "regression.pi_loglik.calls": "count/op",
    "regression.pi_loglik.self_s": "s/op",
    "regression.transform.self_s": "s/op",
    "mortality.load_table.self_s": "s/op",
    "mortality.direct_fit.self_s": "s/op",
    "mortality.direct_fit.evaluations": "count/op",
    "mortality.direct_fit.improving_ratio": "ratio",
    "mortality.direct_fit.rejected_evals": "count/op",
    "mortality.model_log_mortality.calls": "count/op",
    "mortality.model_log_mortality.self_s": "s/op",
    "diagnostics.cox_snell_residuals.self_s": "s/op",
    "diagnostics.kaplan_meier.self_s": "s/op",
    "diagnostics.nelson_aalen.self_s": "s/op",
    "diagnostics.simulate_study.self_s": "s/op",
    "io.read_survival_csv.self_s": "s/op",
    "io.read_survival_csv.rows": "count/op",
    "io.write.self_s": "s/op",
    "io.write.bytes": "B/op",
    "io.load_model.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "cli.nonzero_exits": "count/op",
    "trace.op_s_p50": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}

#: metrics whose value comes from array sizes rather than a measurement
COMPUTED = {"linalg.mexp.bytes"}

_WRITERS = ("save_model", "write_survival_csv", "write_trace_csv",
            "write_residuals_csv", "write_step_csv", "write_curve_csv")


def _first(args, kwargs, name):
    return kwargs[name] if name in kwargs else (args[0] if args else None)


class Tracer:
    """Installs the wrappers and keeps the spans and counters of a run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []           # [name_id, start, end, parent, op]
        self.counters: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._name_stack: list[str] = []
        self._restore: list = []
        self._evaluator_builds = 0
        self._evaluator_stacked: set[int] = set()

    # -- installation ---------------------------------------------------
    def install(self):
        """Wrap every traced name; :meth:`uninstall` puts the originals back."""
        import scipy.optimize

        self._patch_function("matlife.linalg", "mexp", "linalg.mexp",
                             self._after_mexp)
        self._patch_function("matlife.phasetype", "ph_products",
                             "phasetype.ph_products", self._after_products)
        self._patch_function("matlife.phasetype", "tail_hazard_constant",
                             "phasetype.tail_hazard_constant")
        self._patch_function("matlife.phasetype", "make_products_evaluator",
                             "phasetype.products_evaluator.build",
                             wrap_result=self._wrap_evaluator)
        self._patch_method("matlife.phasetype", "IPHModel", "evaluate",
                           "phasetype.evaluate")
        self._patch_method("matlife.phasetype", "IPHModel", "sample",
                           "phasetype.sample")
        self._patch_method("matlife.phasetype", "PHRepresentation",
                           "__post_init__", "phasetype.PHRepresentation",
                           on_error=self._rejected_build)
        self._patch_function("matlife.em", "e_step", "em.e_step",
                             self._after_e_step)
        self._patch_function("matlife.em", "m_step", "em.m_step",
                             self._count("em.iterations"))
        self._patch_function("matlife.em", "loglik", "em.loglik")
        self._patch_function("matlife.em", "fit_ph", "em.fit_ph",
                             self._after_fit_ph)
        self._patch_function("matlife.regression", "fit_pi", "regression.fit_pi",
                             self._after_fit_pi)
        self._patch_function("matlife.regression", "maximize_regression",
                             "regression.maximize_regression")
        self._patch_function("matlife.regression", "pi_loglik",
                             "regression.pi_loglik")
        self._patch_function("matlife.regression", "transform",
                             "regression.transform")
        self._patch_function("matlife.mortality", "load_table",
                             "mortality.load_table")
        self._patch_function("matlife.mortality", "direct_fit",
                             "mortality.direct_fit", self._after_direct_fit)
        self._patch_function("matlife.mortality", "model_log_mortality",
                             "mortality.model_log_mortality")
        for fn in ("cox_snell_residuals", "kaplan_meier", "nelson_aalen",
                   "simulate_study"):
            self._patch_function("matlife.diagnostics", fn, f"diagnostics.{fn}")
        self._patch_function("matlife.io", "read_survival_csv",
                             "io.read_survival_csv", self._after_read_csv)
        self._patch_function("matlife.io", "load_model", "io.load_model")
        for fn in _WRITERS:
            self._patch_function("matlife.io", fn, "io.write", self._after_write)
        self._patch_function("matlife.cli", "main", "cli.main",
                             self._after_main)
        # imported at call time by the optimizer loops; counted, not spanned,
        # so the optimizer's own work stays in its caller's self time
        original = scipy.optimize.minimize
        scipy.optimize.minimize = self._counting_minimize(original)
        self._restore.append((scipy.optimize, "minimize", original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch_function(self, module_name, attr, span, after=None,
                        wrap_result=None):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self._wrapper(span, original, after, wrap_result=wrap_result)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "matlife" or name.startswith("matlife.")):
                continue
            for bound, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, bound, wrapper)
                    self._restore.append((mod, bound, original))

    def _patch_method(self, module_name, cls_name, attr, span, on_error=None):
        module = importlib.import_module(module_name)
        cls = getattr(module, cls_name, None)
        original = None if cls is None else cls.__dict__.get(attr)
        if original is None:
            return
        setattr(cls, attr, self._wrapper(span, original, on_error=on_error))
        self._restore.append((cls, attr, original))

    # -- spans ------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrapper(self, span, fn, after=None, on_error=None, wrap_result=None):
        tracer = self
        name_id = self._name_id(span)

        def traced(*args, **kwargs):
            stack, spans = tracer._stack, tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            tracer._name_stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                spans[idx] = [name_id, start, time.perf_counter(), parent, tracer.op]
                stack.pop()
                tracer._name_stack.pop()
            if after is not None:
                after(args, kwargs, result, len(spans) > idx + 1)
            if wrap_result is not None:
                return wrap_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting_minimize(self, minimize):
        tracer = self

        def counted(*args, **kwargs):
            result = minimize(*args, **kwargs)
            if tracer._name_stack:
                tracer.counters[tracer._name_stack[-1] + ".nfev"] += getattr(
                    result, "nfev", 0)
            return result

        counted.__wrapped__ = minimize
        return counted

    # -- counters -----------------------------------------------------------
    def _count(self, key):
        def after(args, kwargs, result, had_children):
            self.counters[key] += 1
        return after

    def _after_mexp(self, args, kwargs, result, had_children):
        a = np.asarray(_first(args, kwargs, "a"))
        matrices = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
        self.counters["linalg.mexp.matrices"] += matrices
        # argument read once plus result written once, float64
        self.counters["linalg.mexp.bytes"] += 2 * a.size * 8

    def _after_products(self, args, kwargs, result, had_children):
        z = kwargs.get("z", args[1] if len(args) > 1 else ())
        self.counters["phasetype.ph_products.points"] += np.size(z)

    def _wrap_evaluator(self, evaluator):
        build = self._evaluator_builds
        self._evaluator_builds += 1

        def mark(args, kwargs, result, had_children):
            # a call that needed child spans fell back to matrix exponentials
            if had_children:
                self._evaluator_stacked.add(build)

        return self._wrapper("phasetype.products_evaluator", evaluator, mark)

    def _rejected_build(self, exc):
        if "mortality.direct_fit" in self._name_stack:
            self.counters["mortality.direct_fit.rejected_evals"] += 1

    def _after_e_step(self, args, kwargs, result, had_children):
        data = kwargs.get("data", args[1] if len(args) > 1 else None)
        z = getattr(data, "z", None)
        if z is not None:
            self.counters["em.e_step.unique_z"] += np.unique(z).size

    def _after_fit_ph(self, args, kwargs, result, had_children):
        self.counters["em.dead_state_events"] += getattr(result, "dead_state_events", 0)

    def _after_fit_pi(self, args, kwargs, result, had_children):
        self.counters["regression.fit_pi.outer_iterations"] += getattr(
            result, "iterations", 0)
        self.counters["em.dead_state_events"] += getattr(result, "dead_state_events", 0)

    def _after_direct_fit(self, args, kwargs, result, had_children):
        self.counters["mortality.direct_fit.evaluations"] += getattr(
            result, "n_evaluations", 0)
        trace = getattr(result, "loss_trace", None)
        if trace is not None:
            self.counters["mortality.direct_fit.improvements"] += max(len(trace) - 1, 0)

    def _after_read_csv(self, args, kwargs, result, had_children):
        sample = getattr(result, "sample", None)
        self.counters["io.read_survival_csv.rows"] += getattr(sample, "n", 0)

    def _after_write(self, args, kwargs, result, had_children):
        path = _first(args, kwargs, "path")
        if path is not None and os.path.exists(path):
            self.counters["io.write.bytes"] += os.path.getsize(path)

    def _after_main(self, args, kwargs, result, had_children):
        if result != 0:
            self.counters["cli.nonzero_exits"] += 1

    # -- aggregation ----------------------------------------------------------
    def totals(self):
        """Calls and self seconds per span name, summed over all traced ops."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def inclusive(self) -> dict:
        """Seconds inside each span name, children included, over all traced ops.

        A span nested in a span of the same name is not counted again.
        """
        seconds = defaultdict(float)
        for name_id, start, end, parent, _ in self.spans:
            while parent >= 0 and self.spans[parent][0] != name_id:
                parent = self.spans[parent][3]
            if parent < 0:
                seconds[self.names[name_id]] += end - start
        return seconds

    def layer_metrics(self, n_ops: int, op_s_traced: float, op_s_plain: float,
                      traced_wall: float) -> dict:
        """Every :data:`PER_LAYER` value, per op over ``n_ops`` traced ops."""
        calls, self_s = self.totals()
        per = 1.0 / n_ops
        values = {}
        for span in set(calls) | set(self_s):
            values[f"{span}.calls"] = calls[span] * per
            values[f"{span}.self_s"] = self_s[span] * per
        for key, total in self.counters.items():
            values[key] = total * per
        builds = calls["phasetype.products_evaluator.build"]
        values["phasetype.PHRepresentation.constructions"] = values.get(
            "phasetype.PHRepresentation.calls", 0.0)
        values["phasetype.products_evaluator.builds"] = builds * per
        values["phasetype.products_evaluator.self_s"] = (
            self_s["phasetype.products_evaluator"]
            + self_s["phasetype.products_evaluator.build"]) * per
        values["phasetype.products_evaluator.spectral_ratio"] = (
            (builds - len(self._evaluator_stacked)) / builds if builds else 0.0)
        evaluations = self.counters["mortality.direct_fit.evaluations"]
        values["mortality.direct_fit.improving_ratio"] = (
            self.counters["mortality.direct_fit.improvements"] / evaluations
            if evaluations else 0.0)
        values["trace.op_s_p50"] = op_s_traced
        values["trace.overhead_s"] = op_s_traced - op_s_plain
        # cli.main is the root of every op and would absorb any work the
        # named layers miss, so its own self time is left out
        values["trace.accounted_share"] = (
            sum(self_s.values()) - self_s["cli.main"]) / traced_wall
        return {name: values.get(name, 0.0) for name in PER_LAYER}

    def write(self, path, header: dict, t0: float) -> None:
        """Write the header line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "span_fields": [
                "name", "start_s", "end_s", "parent", "op"]}) + "\n")
            for name_id, start, end, parent, op in self.spans:
                fh.write(json.dumps([self.names[name_id], round(start - t0, 7),
                                     round(end - t0, 7), parent, op]) + "\n")
