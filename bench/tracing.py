"""Traced runs: spans around the calls into each graphonldp layer.

The program itself carries no timers.  ``install`` replaces every public
function of the six layer modules, in every graphonldp namespace that holds
it, with a wrapper that records a span (name, start, end, parent span).
Two hooks the program exposes no function for are added here:

* ``CountingRates`` wraps the SIS rate family passed to ``simulate`` and
  records the rows of every ``rate_matrix`` call;
* the L-BFGS-B callback handed to scipy is wrapped, so the action
  evaluations it makes for the history are told apart from the optimizer's
  own objective calls.

``per_layer`` turns the span totals of the three traced workloads into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter

LAYERS = ("graphon", "core_model", "simulator", "meanfield", "rate_function", "action_path")
CALLBACK = "action_path.callback"


class Tracer:
    """In-memory span log: [name, start, end, parent index, rows]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name, rows=0):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, rows])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def summary(self):
        """Calls, seconds and rows per span name, plus the same for spans
        whose parent is the optimizer callback (keyed ``name<callback``)."""
        out = {}
        for name, t0, t1, parent, rows in self.spans:
            keys = [name]
            if parent >= 0 and self.spans[parent][0] == CALLBACK:
                keys.append(f"{name}<callback")
            for key in keys:
                calls, secs, nrows = out.get(key, (0, 0.0, 0))
                out[key] = (calls + 1, secs + (t1 - t0), nrows + rows)
        return out

    def dump(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "rows"],
                                    "spans": self.spans}))
        return str(path)


def install(tracer):
    """Wrap the public functions of every layer module, in place."""
    import graphonldp

    mods = {name: importlib.import_module(f"graphonldp.{name}") for name in LAYERS}
    namespaces = [graphonldp, *mods.values()]
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            traced = tracer.wrap(f"{short}.{attr}", obj)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is obj:
                        setattr(ns, key, traced)

    ap = mods["action_path"]
    scipy_minimize = ap.scipy_minimize

    def minimize(*args, callback=None, **kwargs):
        if callback is not None:
            callback = tracer.wrap(CALLBACK, callback)
        return scipy_minimize(*args, callback=callback, **kwargs)

    ap.scipy_minimize = minimize


class CountingRates:
    """A rate family that records the rows of every ``rate_matrix`` call
    and passes the call on to the family it wraps."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer
        for attr in ("states", "lower_bound", "upper_bound", "lipschitz", "bounded_below"):
            setattr(self, attr, getattr(inner, attr))

    def eval(self, to_label, theta, from_label, w):
        return self.inner.eval(to_label, theta, from_label, w)

    def rate_matrix(self, theta, from_codes, w):
        idx = self.tracer.begin("core_model.rate_matrix", len(from_codes))
        try:
            return self.inner.rate_matrix(theta, from_codes, w)
        finally:
            self.tracer.end(idx)


# name, unit, better: the per-layer metrics, in BENCHMARK.json order
PER_LAYER = (
    ("graphon.sample_s", "s", "lower"),
    ("graphon.entries_per_s", "1/s", "higher"),
    ("core_model.rate_rows_per_event", "count", "lower"),
    ("core_model.rate_matrix_s", "s", "lower"),
    ("simulator.simulate_s", "s", "lower"),
    ("simulator.us_per_event", "us", "lower"),
    ("simulator.loop_overhead_s", "s", "lower"),
    ("simulator.replay_s", "s", "lower"),
    ("simulator.replay_us_per_event", "us", "lower"),
    ("simulator.extract_flux_s", "s", "lower"),
    ("meanfield.equilibrium_s", "s", "lower"),
    ("meanfield.evolve_s", "s", "lower"),
    ("meanfield.ms_per_rk4_step", "ms", "lower"),
    ("meanfield.field_apply_calls", "count", "lower"),
    ("meanfield.field_apply_s", "s", "lower"),
    ("meanfield.kernel_builds", "count", "lower"),
    ("meanfield.kernel_build_s", "s", "lower"),
    ("rate_function.rate_G_s", "s", "lower"),
    ("rate_function.sis_action_s", "s", "lower"),
    ("rate_function.lagrangian_s", "s", "lower"),
    ("action_path.minimize_s", "s", "lower"),
    ("action_path.iterations", "count", "lower"),
    ("action_path.objective_calls", "count", "lower"),
    ("action_path.objective_s", "s", "lower"),
    ("action_path.ms_per_objective", "ms", "lower"),
    ("action_path.history_calls", "count", "lower"),
    ("action_path.history_s", "s", "lower"),
    ("action_path.optimizer_s", "s", "lower"),
    ("action_path.el_residual_s", "s", "lower"),
)


def per_layer(runs):
    """Per-layer metric values from the traced runs of the three workloads.

    ``runs[workload]`` holds ``layers`` (a :meth:`Tracer.summary`) and
    ``counters``.  The graphon, core_model and simulator metrics come from
    epidemic_sparse; meanfield and the two rate-functional timings from
    continuum_fine; lagrangian_s and action_path from action_solve; kernel
    builds add continuum_fine and action_solve.
    """
    def calls(w, name):
        return runs[w]["layers"].get(name, (0, 0.0, 0))[0]

    def secs(w, name):
        return runs[w]["layers"].get(name, (0, 0.0, 0))[1]

    ep, co, ac = "epidemic_sparse", "continuum_fine", "action_solve"
    events = sum(runs[ep]["counters"]["events"])
    steps = sum(runs[co]["counters"]["rk4_steps"])
    v = {}
    v["graphon.sample_s"] = secs(ep, "graphon.sample_network")
    v["graphon.entries_per_s"] = runs[ep]["counters"]["entries"][0] / v["graphon.sample_s"]
    v["core_model.rate_rows_per_event"] = runs[ep]["layers"]["core_model.rate_matrix"][2] / events
    v["core_model.rate_matrix_s"] = secs(ep, "core_model.rate_matrix")
    v["simulator.simulate_s"] = secs(ep, "simulator.simulate")
    v["simulator.us_per_event"] = 1e6 * v["simulator.simulate_s"] / events
    v["simulator.loop_overhead_s"] = v["simulator.simulate_s"] - v["core_model.rate_matrix_s"]
    v["simulator.replay_s"] = secs(ep, "simulator.occupation_at")
    v["simulator.replay_us_per_event"] = 1e6 * v["simulator.replay_s"] / events
    v["simulator.extract_flux_s"] = secs(ep, "simulator.extract_flux")
    v["meanfield.equilibrium_s"] = secs(co, "meanfield.endemic_equilibrium")
    v["meanfield.evolve_s"] = secs(co, "meanfield.evolve")
    v["meanfield.ms_per_rk4_step"] = 1e3 * v["meanfield.evolve_s"] / steps
    v["meanfield.field_apply_calls"] = calls(co, "meanfield.field_from_density")
    v["meanfield.field_apply_s"] = secs(co, "meanfield.field_from_density")
    v["meanfield.kernel_builds"] = calls(co, "meanfield.kernel_matrix") + calls(ac, "meanfield.kernel_matrix")
    v["meanfield.kernel_build_s"] = secs(co, "meanfield.kernel_matrix") + secs(ac, "meanfield.kernel_matrix")
    v["rate_function.rate_G_s"] = secs(co, "rate_function.rate_G")
    v["rate_function.sis_action_s"] = secs(co, "rate_function.sis_action")
    v["rate_function.lagrangian_s"] = secs(ac, "rate_function.sis_lagrangian")
    v["action_path.minimize_s"] = secs(ac, "action_path.minimize_action")
    v["action_path.iterations"] = sum(runs[ac]["counters"]["lbfgsb_iterations"])
    v["action_path.history_calls"] = calls(ac, "action_path.discrete_action<callback")
    v["action_path.history_s"] = secs(ac, "action_path.discrete_action<callback")
    v["action_path.objective_calls"] = calls(ac, "action_path.discrete_action") - v["action_path.history_calls"]
    v["action_path.objective_s"] = secs(ac, "action_path.discrete_action") - v["action_path.history_s"]
    v["action_path.ms_per_objective"] = 1e3 * v["action_path.objective_s"] / v["action_path.objective_calls"]
    v["action_path.el_residual_s"] = secs(ac, "action_path.el_residual")
    v["action_path.optimizer_s"] = (v["action_path.minimize_s"] - v["action_path.objective_s"]
                                    - v["action_path.history_s"] - v["action_path.el_residual_s"])
    return {name: {"value": v[name], "unit": unit} for name, unit, _ in PER_LAYER}
