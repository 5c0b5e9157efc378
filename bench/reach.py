"""Reach table of the package, for REACH_<pr>.json: which functions and
statements of ``src/tnindex`` the runs execute, which only tier 1 executes,
and which nothing executes.

    python3 bench/reach.py --side parent=PATH --side change=. \\
        --out REACH_<pr>.json

Each ``--side NAME=PATH`` names a checkout that is traced in one fresh
interpreter, started through ``collect.run_child`` like the children of
``bench/collect.py`` and ``bench/honesty.py``. The child installs a
``sys.settrace`` tracer before it imports ``tnindex``, so import-time code
counts, and then runs, in process:

- the run traffic: ``tnindex.cli.main`` on the configuration document of
  the checkout's README in each of ``collect.MODES``, then on every
  configuration of block ``BLOCK`` of each workload of the checkout's
  ``perfbench/workloads.py`` at seed ``SEED`` and full size, with that
  workload's flags. An op that fails counts: its error path is traffic.
  perfbench's oracle checks are not run, so they are not traffic;
- tier 1: the checkout's own tests, through ``pytest.main`` with
  ``PYTEST_ARGS`` and no hypothesis example database, so that the table
  comes out the same on every run. This script's own ``reach``,
  ``collect`` and ``honesty`` are out of ``sys.modules``, and its
  ``bench/`` off ``sys.path``, while they run, so the tests import the
  checkout's own ``bench/``.

A function is counted by its qualified name (``Point.r``,
``_fd_metric_arrays.table_of``) and is reached when its code is entered.
A statement is any AST statement other than a function or class
definition and a docstring, and is executed when a line event falls on
it (on the header of a compound statement). Each is in one of three
classes: ``run``, executed by the traffic (import-time code is in every
run); ``tier1``, executed only by tier 1; ``none``, by nothing.

Per side the file records the count of functions and of statements in
each class, every ``tier1`` function with its ``KEEP`` reason (null where
it has none), every statement in ``none``, the entries of perfbench's
``tracer.SITES`` that the checkout lacks, the exit code of each traffic op
and tier 1's exit code. The side arguments, the git state and the
child's launcher are ``bench/collect.py``'s. Only the standard library
traces, since no coverage package is a dependency.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import platform
import random
import sys
import tempfile
import threading
from pathlib import Path

import collect

SEED = 7919
BLOCK = 0
PYTEST_ARGS = ("-q", "-p", "no:cacheprovider", "--hypothesis-seed", "0")
# the modules of bench/ that a checkout's tests import by these names
BENCH_MODULES = ("reach", "collect", "honesty")

# Every function that only tier 1 reaches and that stays, by module and
# qualified name, with the reason: the README acceptance criterion (1-8)
# it backs, the intentional pair it is one side of, or the failure it
# reports.
KEEP = {
    "charclasses.chern_simons":
        "pair: the closed form P whose derivative the density kernel must "
        "match; ROADMAP items 12 and 14 give it a run caller",
    "charclasses.pontryagin_scalar":
        "pair: the frame route's Pontryagin scalar, against the density "
        "kernel; ROADMAP items 12 and 14 give it a run caller",
    "eta.poisson_check": "criterion 3: the Poisson summation identity",
    "gauge.FieldStrengthSample.duality_type":
        "criterion 5: the one duality type of the model field",
    "gauge.bulk_action_closed_form":
        "pair: the closed-form bulk action, the oracle of bulk_action here "
        "and of perfbench's index_bulk check",
    "gauge.field_strength_array":
        "criterion 5: the closed-form G of field_strength_at",
    "gauge.field_strength_at": "criterion 5: the model field's duality "
                               "defects",
    "gauge.field_strength_coeff":
        "criterion 5: G at one point for field_strength_at; a perfbench "
        "tracer site",
    "gauge.model_connection_at":
        "pair: the model connection a of the README conventions, whose "
        "numeric exterior derivative test_gauge checks against G",
    "geometry.CurvatureSample.bianchi_residual":
        "pair: the first Bianchi identity, an oracle of curvature_at; "
        "ROADMAP items 12 and 14 give it a run caller",
    "geometry.MetricSample.orthonormality_residual":
        "pair: the vierbein oracle, frame^T g frame = I, that test_geometry "
        "checks the frames of metric_at and curvature_at against",
    "geometry.Point.r":
        "criterion 5: the radius with which metric_at, in "
        "field_strength_at, checks the chart; curvature_at(method=\"fd\") "
        "reads it too",
    "geometry._fd_metric_arrays":
        "pair: the finite-difference side of the jet vs fd derivatives",
    "geometry._fd_metric_arrays.table_of":
        "pair: the finite-difference side of the jet vs fd derivatives",
    "geometry.curvature_at":
        "criterion 4: Ricci flatness and the Hodge involution; its "
        "method=\"fd\" is the fd side of the jet vs fd pair, which "
        "ROADMAP items 12 and 14 give a run caller",
    "geometry.metric_at":
        "criterion 5: the metric and vierbein of the Hodge star in the "
        "duality defects",
    "geometry.potential_and_omega":
        "criterion 4: the monopole flux and d(omega) = star3 dV",
    "index._missed_terms":
        "failure: names the term that misses its oracle in assemble's "
        "cancellation ConsistencyError",
    "index.index_formula_full_flux":
        "pair: the full-flux side of the README's two flux conventions, "
        "against index_formula",
    "quadrature._not_finite":
        "failure: names the grid and radius of the first non-finite "
        "sample, or the tail bound, in integrate_radial's "
        "ConvergenceError",
}

# Child: the side_trace of the checkout, as one JSON line on the stdout it
# started with; everything else that writes to stdout (pytest, cli.main)
# goes to stderr. Arguments: the directory of this file, the checkout.
CHILD = """
import json, os, sys
out = os.fdopen(os.dup(1), "w")
os.dup2(2, 1)
sys.path.insert(0, sys.argv[1])
from pathlib import Path
import reach
print(json.dumps(reach.side_trace(Path(sys.argv[2]))), file=out)
"""


class Tracer:
    """Records, phase by phase, the lines executed and the first lines of
    the code entered in the Python files under one directory, through
    sys.settrace and threading.settrace."""

    def __init__(self, directory: Path):
        self.prefix = os.path.realpath(directory) + os.sep
        self.lines, self.calls = {}, {}   # {phase: {file name: {line}}}
        self._names = {}                  # co_filename -> file name or None
        self._phase = None

    def _name(self, filename):
        if filename not in self._names:
            path = os.path.realpath(filename)
            self._names[filename] = path[len(self.prefix):] \
                if path.startswith(self.prefix) else None
        return self._names[filename]

    def _enter(self, frame, event, arg):
        name = self._name(frame.f_code.co_filename)
        if name is None:
            return None
        self.calls[self._phase].setdefault(name, set()).add(
            frame.f_code.co_firstlineno)
        lines = self.lines[self._phase].setdefault(name, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    def run(self, phase: str, fn, *args):
        """fn(*args) traced into phase; the trace function it replaced is
        restored afterwards."""
        self._phase = phase
        self.lines.setdefault(phase, {})
        self.calls.setdefault(phase, {})
        previous = sys.gettrace()
        threading.settrace(self._enter)
        sys.settrace(self._enter)
        try:
            return fn(*args)
        finally:
            sys.settrace(previous)
            threading.settrace(previous)

    def record(self) -> dict:
        """{"lines": ..., "calls": ...}, each {phase: {file: [line]}}."""
        return {kind: {phase: {name: sorted(found)
                               for name, found in files.items()}
                       for phase, files in table.items()}
                for kind, table in (("lines", self.lines),
                                    ("calls", self.calls))}


def _main_op(cli, argv) -> int:
    """cli.main(argv) with its stdout and stderr discarded; its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def traffic(checkout: Path, cli, workloads: dict, scratch: Path) -> dict:
    """Exit codes of the run traffic on the checkout, {"readme": {mode:
    code}, "perfbench": {workload: [code, ...]}}, given perfbench's
    WORKLOADS; reports go to scratch."""
    config = scratch / "config.json"
    config.write_text(json.dumps(collect.readme_config(checkout)))
    exits = {"readme": {mode: _main_op(cli, ["--config", str(config),
                                             "--out", str(scratch / mode),
                                             *args])
                        for mode, args in collect.MODES.items()},
             "perfbench": {}}
    for name, workload in workloads.items():
        codes = exits["perfbench"][name] = []
        for draw in workload.block(random.Random(SEED), BLOCK, False):
            config.write_text(json.dumps({**draw, "out": str(scratch / name)}))
            codes.append(_main_op(cli, [*workload.argv, "--config",
                                        str(config)]))
    return exits


def tier1(checkout: Path) -> int:
    """pytest's exit code over the checkout's tests, with no example
    database, so that an earlier run's failures are not replayed.  This
    copy's BENCH_MODULES are out of sys.modules and its bench/ off
    sys.path meanwhile, so that the tests import the checkout's own; on
    return the modules they imported under those names are dropped and
    this copy's are back."""
    import pytest
    from hypothesis import settings
    settings.register_profile("reach", database=None)
    here, path = Path(__file__).resolve().parent, list(sys.path)
    own = {name: sys.modules.pop(name) for name in BENCH_MODULES
           if name in sys.modules}
    sys.path[:] = [entry for entry in path
                   if not entry or Path(entry).resolve() != here]
    try:
        return int(pytest.main([str(checkout / "tests"), *PYTEST_ARGS,
                                "--hypothesis-profile", "reach"]))
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(own)
        sys.path[:] = path


def side_trace(checkout: Path) -> dict:
    """The trace of the checkout's src/tnindex under the run traffic and
    under tier 1, the exit codes of both, and perfbench's absent sites."""
    tracer = Tracer(checkout / "src" / "tnindex")
    cli = tracer.run("import", importlib.import_module, "tnindex.cli")
    sys.path.insert(0, str(checkout / "perfbench"))
    sites, workloads = map(importlib.import_module, ("tracer", "workloads"))
    with tempfile.TemporaryDirectory() as tmp:
        exits = tracer.run("traffic", traffic, checkout, cli,
                           workloads.WORKLOADS, Path(tmp))
    code = tracer.run("tier1", tier1, checkout)
    return {**tracer.record(), "exits": exits, "tier1_exit": code,
            "absent_sites": sites.Tracer().absent}


def units(source: str):
    """(functions, statements) of a module's source: {qualified name: the
    first line of its code, which is its first decorator's}, and {line of a
    statement: the lines of the statement, or of its header when it is
    compound}; function and class definitions and docstrings are not
    statements."""
    functions, statements = {}, {}

    def visit(body, prefix, documented):
        for k, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = prefix + node.name
                if not isinstance(node, ast.ClassDef):
                    functions[name] = min(
                        [node.lineno, *(d.lineno for d in node.decorator_list)])
                visit(node.body, name + ".", True)
                continue
            if documented and k == 0 and isinstance(node, ast.Expr) \
                    and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue
            inner = [getattr(node, field, []) for field in
                     ("body", "orelse", "finalbody")]
            inner += [h.body for h in getattr(node, "handlers", [])]
            inner += [c.body for c in getattr(node, "cases", [])]
            end = node.end_lineno + 1
            if any(inner):
                end = max(node.lineno + 1, min(b[0].lineno for b in inner if b))
            statements[node.lineno] = range(node.lineno, end)
            for block in inner:
                visit(block, prefix, False)

    visit(ast.parse(source).body, "", True)
    return functions, statements


def classify(package: Path, trace: dict, keep=KEEP) -> dict:
    """The reach table of the modules of package under trace, a
    side_trace: the count of functions and of statements in each class,
    the tier1 functions, "module.qualified name", with their keep reasons,
    and the statements in none."""
    counts = {kind: dict.fromkeys(("run", "tier1", "none"), 0)
              for kind in ("functions", "statements")}
    tier1_only, unexecuted = {}, []

    def sort(kind, name, lines):
        hit = {phase: lines.intersection(files.get(name, ()))
               for phase, files in trace[kind].items()}
        cls = "run" if hit.get("import") or hit.get("traffic") \
            else "tier1" if hit.get("tier1") else "none"
        counts["functions" if kind == "calls" else "statements"][cls] += 1
        return cls

    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        functions, statements = units(text)
        for qualname, first in functions.items():
            if sort("calls", path.name, {first}) == "tier1":
                name = f"{path.stem}.{qualname}"
                tier1_only[name] = keep.get(name)
        source = text.splitlines()
        for line, lines in statements.items():
            if sort("lines", path.name, set(lines)) == "none":
                unexecuted.append(f"{path.name}:{line}: "
                                  f"{source[line - 1].strip()}")
    return {**counts, "tier1_only": tier1_only, "unexecuted": unexecuted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--side", action="append", required=True,
                        metavar="NAME=PATH", help="a checkout to trace")
    parser.add_argument("--out", type=Path, required=True,
                        help="the JSON file to write, REACH_<pr>.json")
    args = parser.parse_args(argv)
    sides = collect.parse_sides(parser, args.side)
    here = str(Path(__file__).resolve().parent)
    sides_doc = {}
    for name, checkout in sides.items():
        trace = collect.run_child(checkout, ["-c", CHILD, here,
                                             str(checkout)], cwd=checkout)
        sides_doc[name] = {
            **collect.git_state(checkout),
            **classify(checkout / "src" / "tnindex", trace),
            "absent_sites": trace["absent_sites"],
            "exits": trace["exits"], "tier1_exit": trace["tier1_exit"]}
    doc = {
        "host": {"python": platform.python_version()},
        "config": {"readme_modes": list(collect.MODES),
                   "perfbench": {"seed": SEED, "block": BLOCK, "tiny": False},
                   "pytest": list(PYTEST_ARGS)},
        "sides": sides_doc,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
