"""Wall times of tn-index at the README configuration, for BENCH_<pr>.json.

    python3 bench/collect.py --side parent=PATH --side change=. \\
        --out BENCH_16.json [--repeat N] [--inner N]

Each ``--side NAME=PATH`` names a checkout whose ``src/`` is timed. For
every side the file records the minimum (and the median) over N runs of:

- start-up: a fresh ``python -c pass`` and a fresh ``import tnindex.cli``;
- each CLI mode end to end in a fresh interpreter, on the configuration
  document of that checkout's README.md, written to a scratch directory;
- in process: one ``convergence_table`` sweep at that configuration, its
  minor page faults (``convergence_table_minflt``, from ``getrusage``),
  its system time (``convergence_table_stime``, the mean ``ru_stime`` per
  sweep over a round's sweeps, since one sweep takes less than a tick),
  its calls of each of the ``COUNTED_SITES`` of ``geometry``
  (``convergence_table_<site>_calls``: the radial passes of A and C and
  the curvature chunks), and the time it spends inside each of the
  ``KERNEL_SITES`` of ``geometry``: the radial pass of A and C, the metric
  jets and the Riemann kernel. A site that a checkout lacks is listed
  under ``absent_sites`` of its side;
- in process: the time per lambda of each eta route of that checkout,
  ``eta_<route>_per_lambda``, over the configuration's ``lambdas``;
- in process: the bulk density layer, one ``gauge.bulk_action`` call on
  the configuration's channels and quadrature. ``bulk_action_first`` is
  the first call in a fresh interpreter, before any grid is built, and
  ``bulk_action`` the minimum over the later calls, one per sweep;
- in process: ``load_config``, the seconds per ``cli.load_config`` call on
  the configuration in ``index`` mode, the mean of 1,000 calls per sweep;
- in process: ``main_<mode>``, the time per op of ``tnindex.cli.main``
  for each mode, called ``OPS`` times in one interpreter per round. Its
  minimum and median are over every op of every round. A fresh
  interpreter's start-up moves by tens of milliseconds between runs, so
  only this figure resolves a saving below a millisecond per op.

Each side also records the SHA-256 of every report each mode writes, and
``moved`` lists the modes whose reports differ between sides. Rounds
alternate the order of the sides, so a slow spell of a shared host falls
on both. BLAS runs one thread and every process runs on the lowest CPU of
this process's affinity set. Reports are checked for exit code 0 only;
their values are the tier-1 tests' business.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MODES = {
    "index_lemma": ["--mode", "index", "--grav", "lemma"],
    "index_numeric": ["--mode", "index", "--grav", "numeric"],
    "pontryagin": ["--mode", "pontryagin"],
    "convergence": ["--mode", "convergence"],
    "eta_all": ["--mode", "eta", "--route", "all"],
    "geometry_check": ["--mode", "geometry-check"],
}
# geometry functions whose time inside the sweep is recorded; they are
# wrapped in geometry and under the same name in charclasses, where it
# holds the same function, so every call is seen, and in the sweep none of
# them runs inside another
KERNEL_SITES = ("_radial_coeffs", "_metric_jet_arrays", "_riemann_from_arrays")
# geometry functions whose calls per sweep are counted, wrapped the same way
COUNTED_SITES = ("_radial_coeffs", "curvature_forms")
# cli.main calls per mode per round in the IN_PROCESS_MAIN child.
OPS = 20

# In-process child: min over its own repeats of one sweep, its minor page
# faults and its calls of each counted site that geometry has, of the time
# the sweep spends in each wrapped kernel that geometry has, of the time
# per lambda of each eta route over the config's lambdas, of one
# bulk_action call on the config's channels and of one load_config call in
# index mode (the mean of LOADS calls, on arguments parsed once), and the
# mean system time per sweep over its repeats, as one JSON line.
# bulk_action_first is the child's first bulk_action call, made before
# anything else samples a grid.
# Arguments: config path, repeats, then the timed site names.
IN_PROCESS = f"COUNTED = {COUNTED_SITES!r}\n" + """
import json, resource, sys, time
from tnindex import charclasses, cli, eta, gauge, geometry
with open(sys.argv[1]) as fh:
    raw = json.load(fh)
def config(mode):
    return cli.load_config(raw, cli.build_parser().parse_args(
        ["--mode", mode]))

cfg, bulk = config("pontryagin"), config("index")
bulk_args = (bulk["instanton"], bulk["quad"], bulk["metric"].l)
t0 = time.perf_counter()
gauge.bulk_action(*bulk_args)
first = {"bulk_action_first": time.perf_counter() - t0}
spent = {name: 0.0 for name in sys.argv[3:] if hasattr(geometry, name)}
calls = {name: 0 for name in COUNTED if hasattr(geometry, name)}
LOADS, index_args = 1000, cli.build_parser().parse_args(["--mode", "index"])

def usage():
    return resource.getrusage(resource.RUSAGE_SELF)

def minflt():
    return usage().ru_minflt

def wrapped(name, fn):
    def wrapper(*args):
        if name in calls:
            calls[name] += 1
        if name not in spent:
            return fn(*args)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent[name] += time.perf_counter() - t0
    return wrapper

for name in {*spent, *calls}:
    fn = getattr(geometry, name)
    for module in (geometry, charclasses):
        if getattr(module, name, None) is fn:
            setattr(module, name, wrapped(name, fn))
best, sweeps, stime = {}, int(sys.argv[2]), 0.0
for _ in range(sweeps):
    spent.update(dict.fromkeys(spent, 0.0))
    calls.update(dict.fromkeys(calls, 0))
    faults, sys_t0 = minflt(), usage().ru_stime
    t0 = time.perf_counter()
    charclasses.convergence_table(cfg["metric"], cfg["quad"], cfg["sweep"])
    lap = dict(spent, convergence_table=time.perf_counter() - t0,
               convergence_table_minflt=minflt() - faults)
    stime += usage().ru_stime - sys_t0
    lap.update((f"convergence_table_{name.lstrip('_')}_calls", calls[name])
               for name in calls)
    for route in eta.ROUTES:
        t0 = time.perf_counter()
        for lam in cfg["lambdas"]:
            eta.eta_form(float(lam), route, cfg["series"])
        lap[f"eta_{route}_per_lambda"] = \
            (time.perf_counter() - t0) / len(cfg["lambdas"])
    t0 = time.perf_counter()
    gauge.bulk_action(*bulk_args)
    lap["bulk_action"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(LOADS):
        cli.load_config(raw, index_args)
    lap["load_config"] = (time.perf_counter() - t0) / LOADS
    best = {k: min(v, best.get(k, v)) for k, v in lap.items()}
best["convergence_table_stime"] = stime / sweeps
print(json.dumps({**first, **best}))
"""


# In-process child: the seconds of each of N calls of cli.main per mode, in
# one interpreter, as one JSON line {"main_<mode>": [seconds, ...]}; each
# mode writes its reports under its own directory.
# Arguments: config path, output directory, N, then the MODES as JSON.
IN_PROCESS_MAIN = """
import json, sys, time
from pathlib import Path
from tnindex import cli
config, out, ops = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
times = {}
for mode, args in json.loads(sys.argv[4]).items():
    argv = ["--config", config, "--out", str(out / mode), *args]
    laps = times[f"main_{mode}"] = []
    for _ in range(ops):
        t0 = time.perf_counter()
        code = cli.main(argv)
        laps.append(time.perf_counter() - t0)
        if code != 0:
            sys.exit(f"cli.main exited {code} in mode {mode}")
print(json.dumps(times))
"""


def readme_config(checkout: Path) -> dict:
    """The first ```json block after the README's configuration heading."""
    text = (checkout / "README.md").read_text()
    match = re.search(r"### Configuration document.*?```json\n(.*?)```",
                      text, re.DOTALL)
    if not match:
        raise SystemExit(f"{checkout}/README.md has no configuration block")
    return json.loads(match.group(1))


def child_env(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def wall(argv, env, cwd) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - t0


def report_digests(directory: Path) -> dict:
    """{file name: SHA-256 hex digest} of every file in directory."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir()) if path.is_file()}


def moved(reports: dict) -> list:
    """The modes whose report digests differ between the sides of
    reports, {side: {mode: digests}}."""
    first, *rest = reports.values()
    return [mode for mode in MODES
            if any(side[mode] != first[mode] for side in rest)]


def one_round(checkout: Path, config: Path, scratch: Path, inner: int):
    """One run of every measurement on one checkout: ({name: seconds, or
    a list of per-op seconds}, {mode: report digests})."""
    env, py = child_env(checkout), sys.executable
    out = {"python_pass": wall([py, "-c", "pass"], env, scratch),
           "import_tnindex_cli": wall([py, "-c", "import tnindex.cli"], env,
                                      scratch)}
    digests = {}
    for mode, args in MODES.items():
        out[mode] = wall([py, "-m", "tnindex.cli", "--config", str(config),
                          "--out", str(scratch / mode), *args], env, scratch)
        digests[mode] = report_digests(scratch / mode)
    child = subprocess.run([py, "-c", IN_PROCESS, str(config), str(inner),
                            *KERNEL_SITES], env=env, cwd=scratch, check=True,
                           capture_output=True, text=True)
    out.update(json.loads(child.stdout))
    child = subprocess.run([py, "-c", IN_PROCESS_MAIN, str(config),
                            str(scratch / "main"), str(OPS),
                            json.dumps(MODES)], env=env, cwd=scratch,
                           check=True, capture_output=True, text=True)
    out.update(json.loads(child.stdout))
    return out, digests


def git_state(checkout: Path) -> dict:
    def git(*args):
        done = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src"))}


def summary(runs: list) -> dict:
    """Minimum and median of each measurement over the rounds; a list of
    per-op times pools the ops of every round.  Seconds are keyed min_s and
    median_s, a count (a name ending in _minflt or _calls) min and
    median."""
    pooled = {name: [x for r in runs for x in (
        r[name] if isinstance(r[name], list) else [r[name]])]
        for name in runs[0]}
    out = {}
    for name, xs in pooled.items():
        unit = "" if name.endswith(("_minflt", "_calls")) else "_s"
        out[name] = {"min" + unit: min(xs),
                     "median" + unit: statistics.median(xs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--side", action="append", required=True,
                        metavar="NAME=PATH", help="a checkout to time")
    parser.add_argument("--repeat", type=int, default=5,
                        help="rounds; each measurement keeps its minimum")
    parser.add_argument("--inner", type=int, default=3,
                        help="in-process sweeps per round")
    parser.add_argument("--out", type=Path, required=True,
                        help="the JSON file to write, BENCH_<pr>.json")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.inner < 1:
        parser.error("--repeat and --inner must be at least 1")
    sides = {}
    for spec in args.side:
        name, sep, path = spec.partition("=")
        if not sep or not name:
            parser.error(f"--side takes NAME=PATH, not {spec!r}")
        sides[name] = Path(path).resolve()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runs = {name: [] for name in sides}
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        configs = {}
        for name, checkout in sides.items():
            configs[name] = Path(tmp) / f"{name}.json"
            configs[name].write_text(json.dumps(readme_config(checkout)))
        order = list(sides)
        for k in range(args.repeat):
            for name in order if k % 2 == 0 else order[::-1]:
                scratch = Path(tmp) / name
                scratch.mkdir(exist_ok=True)
                times, reports[name] = one_round(sides[name], configs[name],
                                                 scratch, args.inner)
                runs[name].append(times)
    import numpy
    doc = {
        "host": {"python": platform.python_version(),
                 "numpy": numpy.__version__, "machine": platform.machine(),
                 "nproc": os.cpu_count(), "cpu": min(os.sched_getaffinity(0)),
                 "blas_threads": 1},
        "config": "README.md configuration document of each side",
        "repeat": args.repeat,
        "inner": args.inner,
        "moved": moved(reports),
        "sides": {name: {**git_state(sides[name]), **summary(runs[name]),
                         "absent_sites": [site for site in KERNEL_SITES
                                          if site not in runs[name][0]],
                         "reports": reports[name]}
                  for name in sides},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
