"""bench/reach.py: every KEEP name is a function of the package, and the
tracer and the statement count sort a synthetic module's functions and
statements into the right classes.  The full reach run, traffic and tier 1
under the tracer, stays out of tier 1."""

import importlib
import sys
import types
from pathlib import Path

import pytest
import reach

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tnindex"
BENCH = ROOT / "bench"

SYNTHETIC = '''"""Module docstring."""

LIMIT = 3


def called():
    """A docstring, which is no statement."""
    return LIMIT


def tested():
    if LIMIT > 2:
        return 1
    return 2


def uncalled():
    return 0
'''


def test_every_keep_name_is_a_function_of_the_package():
    """A renamed or deleted function leaves its KEEP entry behind."""
    names = {f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
             for name in reach.units(path.read_text())[0]}
    assert set(reach.KEEP) <= names, set(reach.KEEP) - names
    assert all(reach.KEEP.values())


def test_a_synthetic_module_sorts_into_the_three_classes(tmp_path,
                                                         monkeypatch):
    """Import-time code and a function called as traffic are run; one
    called only as tier 1 is tier1, with no keep reason; an uncalled one
    and the statement tier 1 skips are none.  Docstrings and definitions
    are not statements."""
    (tmp_path / "reach_synthetic.py").write_text(SYNTHETIC)
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = reach.Tracer(tmp_path)
    module = tracer.run("import", importlib.import_module, "reach_synthetic")
    tracer.run("traffic", module.called)
    tracer.run("tier1", module.tested)
    table = reach.classify(tmp_path, tracer.record(), keep={})
    assert table["functions"] == {"run": 1, "tier1": 1, "none": 1}
    # LIMIT = 3 and return LIMIT; if and return 1; return 2 and return 0
    assert table["statements"] == {"run": 2, "tier1": 2, "none": 2}
    assert table["tier1_only"] == {"reach_synthetic.tested": None}
    assert table["unexecuted"] == ["reach_synthetic.py:14: return 2",
                                   "reach_synthetic.py:18: return 0"]


def test_tier1_runs_without_this_copys_bench_modules(monkeypatch):
    """While a checkout's tier 1 runs, no module named collect, reach or
    honesty is in sys.modules and this bench/ is off sys.path, so the
    checkout's tests import their own; afterwards the modules that tier 1
    imported under those names are gone and this copy's are back."""
    seen = []

    def fake_main(args):
        seen.append(({name for name in reach.BENCH_MODULES
                      if name in sys.modules},
                     [entry for entry in sys.path
                      if entry and Path(entry).resolve() == BENCH]))
        for name in reach.BENCH_MODULES:
            sys.modules[name] = types.ModuleType(name)
        return 0

    monkeypatch.setattr(pytest, "main", fake_main)
    path, own = list(sys.path), sys.modules["collect"]
    assert reach.tier1(ROOT) == 0
    assert seen == [(set(), [])]
    assert sys.modules["collect"] is own is reach.collect
    assert sys.modules["reach"] is reach
    assert sys.path == path
