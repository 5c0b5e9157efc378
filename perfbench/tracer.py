"""Span tracer for the benchmark.

It wraps, from outside the package, the calls that cross tnindex module
boundaries: each wrapper replaces a name in the module that calls it (for
example ``charclasses.curvature_batch``), so nothing under ``src/`` changes.
Spans stay in memory; the per-point scalar calls only add to a count and a
total time. Self time is a call's duration minus the time of the wrapped
calls inside it.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import asdict, dataclass

SPAN, COUNT = "span", "count"


def _first_arg_len(args, result):
    return len(args[1])


def _result_len(args, result):
    return len(result[0])


# (calling module, name in it, layer of the callee, record kind, points).
# ``points`` gives the number of points a call evaluates, where that is
# meaningful. The two private geometry helpers are where the ROADMAP splits
# the curvature time; if they are renamed they are reported absent.
SITES = (
    ("cli", "assemble", "index", SPAN, None),
    ("cli", "convergence_table", "charclasses", SPAN, None),
    ("cli", "route_table", "eta", SPAN, None),
    ("index", "bulk_action", "gauge", SPAN, None),
    ("index", "eta_integral", "eta", SPAN, None),
    ("gauge", "field_strength_coeff", "gauge", COUNT, None),
    ("gauge", "potential_and_omega", "geometry", COUNT, None),
    ("gauge", "star3", "geometry", COUNT, None),
    ("gauge", "wedge4", "geometry", COUNT, None),
    ("gauge", "radial_nodes", "quadrature", SPAN, _result_len),
    ("gauge", "integrate_radial", "quadrature", SPAN, None),
    ("charclasses", "_density_samples", "charclasses", SPAN, None),
    ("charclasses", "cs_tail_bound", "charclasses", SPAN, None),
    ("charclasses", "curvature_batch", "geometry", SPAN, _first_arg_len),
    ("charclasses", "radial_coefficients", "geometry", COUNT, None),
    ("charclasses", "wedge4", "geometry", COUNT, None),
    ("charclasses", "radial_nodes", "quadrature", SPAN, _result_len),
    ("charclasses", "integrate_radial", "quadrature", SPAN, None),
    ("geometry", "_metric_jet_arrays", "jets", SPAN, _first_arg_len),
    ("geometry", "_riemann_from_arrays", "geometry", SPAN, None),
    ("eta", "eta_mode_sum", "eta", SPAN, None),
    ("eta", "eta_poisson", "eta", SPAN, None),
    ("eta", "eta_bernoulli", "eta", SPAN, None),
)

LAYER = {f"{mod}.{attr}": layer for mod, attr, layer, _, _ in SITES}
LAYER["cli.main"] = "cli"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int
    self_s: float


@dataclass
class Total:
    calls: int = 0
    seconds: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    points: int = 0


class _Frame:
    __slots__ = ("context", "start", "child_s")

    def __init__(self, context, start):
        self.context = context
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Records spans and per-name totals for the ops it is installed around.

    ``install`` puts the wrappers in place and ``uninstall`` restores the
    original functions, so untraced ops run the unmodified package."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict[str, Total] = {}
        self.absent: list[str] = []
        self.op = -1
        self._next_id = 0
        self._stack: list[_Frame] = []
        self._saved = []
        for mod, attr, _, _, _ in SITES:
            module = importlib.import_module(f"tnindex.{mod}")
            if not hasattr(module, attr):
                self.absent.append(f"{mod}.{attr}")

    def install(self):
        for mod, attr, _, kind, points in SITES:
            module = importlib.import_module(f"tnindex.{mod}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr,
                    self._wrap(f"{mod}.{attr}", kind, points, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a span called ``name``."""
        return self._wrap(name, SPAN, None, fn)(*args)

    def _wrap(self, name, kind, points, fn):
        def traced(*args, **kwargs):
            stack = self._stack
            context = stack[-1].context if stack else None
            span_id = None
            if kind == SPAN:
                span_id = self._next_id
                self._next_id += 1
            frame = _Frame(span_id if kind == SPAN else context,
                           time.perf_counter())
            stack.append(frame)
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child_s += duration
                total = self.totals.get(name)
                if total is None:
                    total = self.totals[name] = Total()
                total.calls += 1
                total.seconds += duration
                total.self_s += duration - frame.child_s
                if not ok:
                    total.failed += 1
                elif points is not None:
                    total.points += points(args, result)
                if kind == SPAN:
                    self.spans.append(Span(
                        span_id, name, LAYER[name], frame.start, end, context,
                        self.op, duration - frame.child_s))
        return traced

    def span_records(self):
        return [asdict(span) for span in sorted(self.spans,
                                                key=lambda s: s.id)]

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}, per traced op where
        the unit says so. A layer an op never enters reads 0."""
        totals = self.totals

        def get(name) -> Total:
            return totals.get(name, Total())

        def per_op(x):
            return x / n_ops if n_ops else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        def self_of(layer):
            return sum(t.self_s for name, t in totals.items()
                       if LAYER[name] == layer)

        pointwise = [f"{mod}.{attr}" for mod, attr, layer, kind, _ in SITES
                     if kind == COUNT and layer == "geometry"]
        curv = get("charclasses.curvature_batch")
        jets = get("geometry._metric_jet_arrays")
        nodes = [get("charclasses.radial_nodes"), get("gauge.radial_nodes")]
        integ = [get("charclasses.integrate_radial"),
                 get("gauge.integrate_radial")]
        mode_sum = get("eta.eta_mode_sum")
        poisson = get("eta.eta_poisson")
        bernoulli = get("eta.eta_bernoulli")
        return {
            "cli.main_s": (per_op(get("cli.main").seconds), "s/op"),
            "cli.self_s": (per_op(self_of("cli")), "s/op"),
            "index.assemble_s": (per_op(get("cli.assemble").seconds),
                                 "s/op"),
            "index.self_s": (per_op(self_of("index")), "s/op"),
            "gauge.bulk_action_s": (per_op(get("index.bulk_action").seconds),
                                    "s/op"),
            "gauge.self_s": (per_op(self_of("gauge")), "s/op"),
            "gauge.field_strength_coeff_calls": (
                per_op(get("gauge.field_strength_coeff").calls), "count/op"),
            "geometry.curvature_batch_s": (per_op(curv.seconds), "s/op"),
            "geometry.curvature_batch_calls": (per_op(curv.calls),
                                               "count/op"),
            "geometry.curvature_points": (per_op(curv.points), "count/op"),
            "geometry.curvature_us_per_point": (
                1e6 * ratio(curv.seconds, curv.points), "us/point"),
            "geometry.riemann_s": (
                per_op(get("geometry._riemann_from_arrays").seconds), "s/op"),
            "geometry.pointwise_calls": (
                per_op(sum(get(n).calls for n in pointwise)), "count/op"),
            "geometry.pointwise_s": (
                per_op(sum(get(n).seconds for n in pointwise)), "s/op"),
            "jets.metric_jets_s": (per_op(jets.seconds), "s/op"),
            "jets.us_per_point": (1e6 * ratio(jets.seconds, jets.points),
                                  "us/point"),
            "charclasses.convergence_table_s": (
                per_op(get("cli.convergence_table").seconds), "s/op"),
            "charclasses.self_s": (per_op(self_of("charclasses")), "s/op"),
            "charclasses.tail_bound_calls": (
                per_op(get("charclasses.cs_tail_bound").calls), "count/op"),
            "charclasses.curvature_calls_per_grid": (
                ratio(curv.calls, get("charclasses._density_samples").calls),
                "count/grid"),
            "quadrature.radial_nodes_calls": (
                per_op(sum(t.calls for t in nodes)), "count/op"),
            "quadrature.nodes_sampled": (
                per_op(sum(t.points for t in nodes)), "count/op"),
            "quadrature.integrate_radial_s": (
                per_op(sum(t.seconds for t in integ)), "s/op"),
            "eta.mode_sum_s_per_lambda": (
                ratio(mode_sum.seconds, mode_sum.calls), "s/lambda"),
            "eta.poisson_s_per_lambda": (
                ratio(poisson.seconds, poisson.calls), "s/lambda"),
            "eta.bernoulli_s_per_lambda": (
                ratio(bernoulli.seconds, bernoulli.calls), "s/lambda"),
            "eta.mode_sum_fail": (per_op(mode_sum.failed), "count/op"),
        }
