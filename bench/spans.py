"""Spans recorded from outside the package, and the per-layer metrics built on them.

A span is (name, start, end, parent, item): `parent` is the index of the span
that was open when this one started (-1 for none) and `item` the id of the
benchmark item it belongs to.  Spans stay in memory until the run ends.

Two recorders share one interface.  `NullTracer` calls straight through and
is used for every end-to-end measurement.  `Tracer` records a span around
each call the benchmark makes into a layer, around every evaluation of a
vector field and every monitor sample it passes to `integrate`, and, while
`patched()` is active, around the public functions that
`compare_full_vs_reduced` calls internally.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from threebody4d import dynamics, model, reduction

_clock = time.perf_counter

UNITS = {
    "model.potential_derivatives_us": "us",
    "model.angular_momentum_us": "us",
    "reduction.monitor_us": "us/sample",
    "reduction.monitor_share": "frac",
    "reduction.project_us": "us/sample",
    "dynamics.rhs_evals_per_step": "evals/step",
    "dynamics.rhs_evals_per_item": "evals/item",
    "dynamics.steps_per_item": "steps/item",
    "dynamics.rejected_frac": "frac",
    "dynamics.rhs_us": "us",
    "dynamics.rhs_share": "frac",
    "dynamics.loop_share": "frac",
    "dynamics.domain_exit_frac": "frac",
    "equilibria.isosceles_ms": "ms",
    "equilibria.newton_fp_ms": "ms",
    "equilibria.newton_mp_ms": "ms",
    "equilibria.mp_share": "frac",
    "equilibria.veff_gradient_us": "us",
    "equilibria.veff_hessian_us": "us",
    "cli.write_us_per_row": "us/row",
    "trace.overhead_frac": "frac",
    "check.worst_err_ratio": "ratio",
    "check.fail_frac": "frac",
}


class NullTracer:
    """Calls through without recording anything."""

    item = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def field(self, vf):
        return vf

    def monitors(self, mons):
        return mons

    def integrated(self, rec):
        return rec

    def visit(self, masses, x1, x2):
        pass

    @contextlib.contextmanager
    def patched(self):
        yield


class Tracer(NullTracer):
    """Records spans and per-integration counts in memory."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, item)
        self.records = []        # (item, n_steps, n_rejected, n_samples, domain_exit)
        self.visited = []        # (masses, ScalarProducts) for the micro-timing
        self._stack = []
        self.item = None

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.item)

    def wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapped

    def field(self, vf):
        return dynamics.VectorField(vf.dimension, self.wrap("dynamics.rhs", vf.evaluate),
                                    vf.name)

    def monitors(self, mons):
        return {k: self.wrap("reduction.monitor", fn) for k, fn in mons.items()}

    def integrated(self, rec):
        self.records.append((self.item, rec.n_steps, rec.n_rejected, len(rec.times),
                             rec.domain_exit is not None))
        return rec

    def visit(self, masses, x1, x2):
        """Keep the scalar products of positions x1, x2 for the potential micro-timing."""
        self.visited.append((masses, model.ScalarProducts(
            float(x1 @ x1), float(x2 @ x2), float(x1 @ x2))))

    @contextlib.contextmanager
    def patched(self):
        """Route the public functions `compare_full_vs_reduced` reaches through spans."""
        orig = {
            (dynamics, "integrate"): dynamics.integrate,
            (dynamics, "full_field"): dynamics.full_field,
            (dynamics, "reduced_field"): dynamics.reduced_field,
            (dynamics, "full_monitors"): dynamics.full_monitors,
            (dynamics, "reduced_monitors"): dynamics.reduced_monitors,
            (reduction, "project_to_partial"): reduction.project_to_partial,
            (reduction, "chart_images"): reduction.chart_images,
            (model, "angular_momentum"): model.angular_momentum,
        }

        def integrate(*args, **kwargs):
            return self.integrated(self.call("dynamics.integrate", orig[dynamics, "integrate"],
                                             *args, **kwargs))

        repl = {
            (dynamics, "integrate"): integrate,
            (dynamics, "full_field"):
                lambda *a: self.field(orig[dynamics, "full_field"](*a)),
            (dynamics, "reduced_field"):
                lambda *a: self.field(orig[dynamics, "reduced_field"](*a)),
            (dynamics, "full_monitors"):
                lambda *a: self.monitors(orig[dynamics, "full_monitors"](*a)),
            (dynamics, "reduced_monitors"):
                lambda *a: self.monitors(orig[dynamics, "reduced_monitors"](*a)),
            (reduction, "project_to_partial"):
                self.wrap("reduction.project", orig[reduction, "project_to_partial"]),
            (reduction, "chart_images"):
                self.wrap("reduction.chart_images", orig[reduction, "chart_images"]),
            (model, "angular_momentum"):
                self.wrap("model.angular_momentum", orig[model, "angular_momentum"]),
        }
        for (mod, attr), fn in repl.items():
            setattr(mod, attr, fn)
        try:
            yield
        finally:
            for (mod, attr), fn in orig.items():
                setattr(mod, attr, fn)

    # --- aggregation ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), kids in zip(self.spans, child):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - kids
        return out

    def rhs_calls_per_item(self):
        counts = defaultdict(int)
        for name, _, _, _, item in self.spans:
            if name == "dynamics.rhs":
                counts[item] += 1
        return counts


def time_potential_derivatives(visited, repeats=20):
    """Mean seconds per `potential_derivatives` call over visited scalar products."""
    calls = 0
    start = _clock()
    for masses, s in visited:
        for _ in range(repeats):
            model.potential_derivatives(masses, s)
        calls += repeats
    return (_clock() - start) / calls if calls else 0.0


def layer_metrics(tracer, items, item_seconds, rows):
    """Per-layer metrics of a traced phase.

    `items` is the number of items traced, `item_seconds` their summed wall
    time and `rows` the rows they wrote.  A layer a workload never calls reports 0.
    """
    tot = tracer.totals()  # a name never recorded reads (0, 0.0, 0.0)

    def calls(name):
        return tot[name][0]

    def incl(name):
        return tot[name][1]

    def self_s(name):
        return tot[name][2]

    def per(value, count, scale):
        return scale * value / count if count else 0.0

    exit_items = {r[0] for r in tracer.records if r[4]}
    clean = [r for r in tracer.records if r[0] not in exit_items]
    rhs_by_item = tracer.rhs_calls_per_item()
    attempted_clean = sum(r[1] + r[2] for r in clean)
    rhs_clean = sum(rhs_by_item[i] for i in {r[0] for r in clean})
    steps = sum(r[1] for r in tracer.records)
    rejected = sum(r[2] for r in tracer.records)
    samples = sum(r[3] for r in tracer.records)
    monitor_s = incl("reduction.monitor")
    return {
        "model.potential_derivatives_us": 1e6 * time_potential_derivatives(tracer.visited),
        "model.angular_momentum_us": per(incl("model.angular_momentum"),
                                         calls("model.angular_momentum"), 1e6),
        "reduction.monitor_us": per(monitor_s, samples if monitor_s else 0, 1e6),
        "reduction.monitor_share": monitor_s / item_seconds,
        "reduction.project_us": per(incl("reduction.project") + incl("reduction.chart_images"),
                                    calls("reduction.project"), 1e6),
        "dynamics.rhs_evals_per_step": per(rhs_clean, attempted_clean, 1.0),
        "dynamics.rhs_evals_per_item": calls("dynamics.rhs") / items,
        "dynamics.steps_per_item": steps / items,
        "dynamics.rejected_frac": per(rejected, steps + rejected, 1.0),
        "dynamics.rhs_us": per(self_s("dynamics.rhs"), calls("dynamics.rhs"), 1e6),
        "dynamics.rhs_share": self_s("dynamics.rhs") / item_seconds,
        "dynamics.loop_share": self_s("dynamics.integrate") / item_seconds,
        "dynamics.domain_exit_frac": per(sum(r[4] for r in tracer.records),
                                         len(tracer.records), 1.0),
        "equilibria.isosceles_ms": per(incl("equilibria.isosceles"),
                                       calls("equilibria.isosceles"), 1e3),
        "equilibria.newton_fp_ms": per(incl("equilibria.newton_fp"),
                                       calls("equilibria.newton_fp"), 1e3),
        "equilibria.newton_mp_ms": per(incl("equilibria.newton_mp"),
                                       calls("equilibria.newton_mp"), 1e3),
        "equilibria.mp_share": incl("equilibria.newton_mp") / item_seconds,
        "equilibria.veff_gradient_us": per(incl("equilibria.veff_gradient"),
                                           calls("equilibria.veff_gradient"), 1e6),
        "equilibria.veff_hessian_us": per(incl("equilibria.veff_hessian"),
                                          calls("equilibria.veff_hessian"), 1e6),
        "cli.write_us_per_row": per(incl("cli.write"), rows, 1e6),
    }
