"""Honesty scan of the Pontryagin term and the bulk, for HONESTY_<pr>.json.

    python3 bench/honesty.py --side parent=PATH --side change=. \\
        --out HONESTY_<pr>.json

Each ``--side NAME=PATH`` names a checkout whose ``src/`` is scanned in a
fresh interpreter. A row of ``convergence_table`` is honest when it misses
1/12, the oracle, by no more than its error estimate plus its tail bound;
its ratio is miss / (error + tail_bound), and every sweep row counts, not
only the last. A bulk row is honest when ``bulk_action`` misses
``bulk_action_closed_form`` by no more than its error; its ratio is
miss / error. Three sections are scanned per side:

- ``scan``: 4 variants x 2 blends x the nine l of ``SCAN_L``, t = 0.6,
  at the README quadrature and sweep: 216 rows;
- ``draws``: ``DRAWS`` draws from ``random.Random(SEED)`` of variant,
  blend, l log-uniform in [1e-3, 1e3], t uniform in [0, 1], ``r_max``
  uniform in [20, 120] and ``n_ang`` in 2..8, each a README sweep of
  three rows;
- ``bulk``: ``BULK_DRAWS`` draws from ``random.Random(BULK_SEED)`` of
  rank 1..4 and one of the ``BULK_KINDS`` for all channels: lam and m
  uniform in [-3, 3] (``uniform``), lam = m (``equal``), or lam within
  10^U[-12, -2] of m (``near``); l log-uniform in [1e-3, 1e3], ``n_r``
  in 16..256 and ``n_ang`` in 2..8, one row each.

For each section the file records the row count, the worst ratio and its
configuration, the median and the largest miss over the last rows with
the configuration of the largest (a Pontryagin configuration's last row
is its ``quad.n_r`` row, which both sweep modes judge; every bulk row is
a last row), every row whose ratio is above 1, every ``quad.n_r`` row
whose miss is above ``quad.tol`` (both sweep modes fail those), each
failure with its error kind, message and configuration, and a SHA-256 of
every row's value, error and tail bound (for the bulk: value, error and
closed form). ``moved`` lists the sections
that differ between the sides. The side arguments, the child's launcher
(``run_child``) and environment, the git state and ``moved`` are
``bench/collect.py``'s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import statistics
import sys
from pathlib import Path

import collect

SCAN_L = (1e-3, 1e-2, 0.2, 1.0, 3.0, 6.0, 20.0, 100.0, 1e3)
SWEEP = (64, 128, 256)
BLENDS = ("quintic", "septic")
SEED = 37
DRAWS = 300
BULK_SEED = 2718
BULK_DRAWS = 300
BULK_KINDS = ("uniform", "equal", "near")
# the keys that place a row of each kind of section
PONTRYAGIN_KEYS = ("variant", "blend", "l", "t", "r_max", "n_ang", "n_r")
BULK_KEYS = ("kind", "channels", "l", "n_r", "n_ang")

# Child: the side_report of the tnindex on its PYTHONPATH, as one JSON
# line.  Argument: the directory of this file, whose honesty it imports.
SIDE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import honesty
print(json.dumps(honesty.side_report()))
"""


def _configs():
    """{section: [configuration, ...]}; a configuration is a dict of
    variant, blend, l, t, r_max and n_ang."""
    from tnindex.geometry import Variant
    variants = [v.value for v in Variant]
    scan = [dict(variant=v, blend=b, l=l, t=0.6, r_max=80.0, n_ang=8)
            for v in variants for b in BLENDS for l in SCAN_L]
    rng = random.Random(SEED)
    drawn = [dict(variant=rng.choice(variants), blend=rng.choice(BLENDS),
                  l=10.0 ** rng.uniform(-3.0, 3.0), t=rng.uniform(0.0, 1.0),
                  r_max=rng.uniform(20.0, 120.0), n_ang=rng.randint(2, 8))
             for _ in range(DRAWS)]
    return {"scan": scan, "draws": drawn}


def _bulk_configs():
    """[configuration, ...] of the bulk section; a configuration is a dict
    of kind, channels (lam, m), l, n_r and n_ang."""
    rng = random.Random(BULK_SEED)
    configs = []
    for _ in range(BULK_DRAWS):
        kind, channels = rng.choice(BULK_KINDS), []
        for _ in range(rng.randint(1, 4)):
            m = rng.uniform(-3.0, 3.0)
            if kind == "uniform":
                lam = rng.uniform(-3.0, 3.0)
            elif kind == "equal":
                lam = m
            else:
                lam = m + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(
                    -12.0, -2.0)
            channels.append([lam, m])
        configs.append(dict(kind=kind, channels=channels,
                            l=10.0 ** rng.uniform(-3.0, 3.0),
                            n_r=rng.randint(16, 256), n_ang=rng.randint(2, 8)))
    return configs


def bulk_rows(configs):
    """(rows, failures) of the bulk configurations: a row is the
    configuration with its value, error, closed form, miss and ratio, and
    fails_tol, whether it misses by more than quad.tol; a failure is the
    configuration with the kind and message of its TNIndexError."""
    from tnindex.errors import TNIndexError
    from tnindex.gauge import (InstantonChannel, InstantonData, bulk_action,
                               bulk_action_closed_form)
    from tnindex.quadrature import QuadratureSpec
    rows, failures = [], []
    for cfg in configs:
        data = InstantonData([InstantonChannel(lam, m)
                              for lam, m in cfg["channels"]])
        quad = QuadratureSpec(n_r=cfg["n_r"], n_ang=cfg["n_ang"])
        try:
            value, error = bulk_action(data, quad, cfg["l"])
        except TNIndexError as exc:
            failures.append(dict(cfg, error=type(exc).__name__,
                                 message=str(exc)))
            continue
        closed = bulk_action_closed_form(data)
        miss = abs(value - closed)
        rows.append(dict(cfg, value=value, error=error, closed=closed,
                         miss=miss, ratio=miss / error,
                         fails_tol=miss > quad.tol))
    return rows, failures


def scan_rows(configs):
    """(rows, failures) of the configurations: a row is the configuration
    with its n_r, value, error, tail_bound, miss and ratio, and fails_tol,
    whether it is the last row (n_r = quad.n_r) and misses by more than
    quad.tol, which fails both sweep modes; a failure is the configuration
    with the kind and message of its TNIndexError."""
    from tnindex.charclasses import convergence_table
    from tnindex.errors import TNIndexError
    from tnindex.geometry import BlendProfile, MetricSpec, Variant
    from tnindex.quadrature import QuadratureSpec
    rows, failures = [], []
    for cfg in configs:
        spec = MetricSpec(variant=Variant(cfg["variant"]), l=cfg["l"],
                          t=cfg["t"], blend=BlendProfile(kind=cfg["blend"]))
        quad = QuadratureSpec(r_max=cfg["r_max"], n_ang=cfg["n_ang"])
        try:
            table = convergence_table(spec, quad, list(SWEEP))
        except TNIndexError as exc:
            failures.append(dict(cfg, error=type(exc).__name__,
                                 message=str(exc)))
            continue
        for n, *floats in table:
            value, error, tail = map(float, floats)
            miss = abs(value - 1.0 / 12.0)
            rows.append(dict(cfg, n_r=n, value=value, error=error,
                             tail_bound=tail, miss=miss,
                             ratio=miss / (error + tail),
                             fails_tol=n == quad.n_r and miss > quad.tol))
    return rows, failures


def last_sweep_row(row) -> bool:
    """Whether a Pontryagin row is its sweep's last, whose n_r, SWEEP[-1],
    is the README quad.n_r: the row that both sweep modes judge."""
    return row["n_r"] == SWEEP[-1]


def summarize(rows, failures, keys=PONTRYAGIN_KEYS,
              last=last_sweep_row) -> dict:
    """The section's entry of HONESTY_<pr>.json; keys place a row, and
    last picks the rows whose misses the section's accuracy reads."""
    def where(row, extra):
        return {k: row[k] for k in (*keys, extra)}

    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr([row[k] for k in sorted(row)]).encode())
    worst = max(rows, key=lambda row: row["ratio"], default=None)
    lasts = sorted((row for row in rows if last(row)),
                   key=lambda row: row["miss"])
    return {
        "rows": len(rows),
        "worst": None if worst is None else where(worst, "ratio"),
        "last_miss_median": statistics.median(row["miss"] for row in lasts)
        if lasts else None,
        "last_miss_max": where(lasts[-1], "miss") if lasts else None,
        "worst_honest_ratio": max((row["ratio"] for row in rows
                                   if row["ratio"] <= 1.0), default=None),
        "above_1": [where(row, "ratio") for row in rows if row["ratio"] > 1.0],
        "above_tol": [where(row, "miss") for row in rows if row["fails_tol"]],
        "failed": failures,
        "digest": digest.hexdigest(),
    }


def side_report() -> dict:
    """{section: summary} of the tnindex on sys.path."""
    return {**{name: summarize(*scan_rows(configs))
               for name, configs in _configs().items()},
            "bulk": summarize(*bulk_rows(_bulk_configs()), BULK_KEYS,
                              lambda row: True)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--side", action="append", required=True,
                        metavar="NAME=PATH", help="a checkout to scan")
    parser.add_argument("--out", type=Path, required=True,
                        help="the JSON file to write, HONESTY_<pr>.json")
    args = parser.parse_args(argv)
    sides = collect.parse_sides(parser, args.side)
    here = str(Path(__file__).resolve().parent)
    reports = {name: collect.run_child(checkout, ["-c", SIDE, here])
               for name, checkout in sides.items()}
    import numpy
    doc = {
        "host": {"python": platform.python_version(),
                 "numpy": numpy.__version__, "machine": platform.machine()},
        "config": {"scan": {"variants": "all", "blends": list(BLENDS),
                            "l": list(SCAN_L), "t": 0.6, "r_max": 80.0,
                            "n_ang": 8, "sweep": list(SWEEP)},
                   "draws": {"count": DRAWS, "seed": SEED,
                             "l": [1e-3, 1e3], "t": [0.0, 1.0],
                             "r_max": [20.0, 120.0], "n_ang": [2, 8],
                             "sweep": list(SWEEP)},
                   "bulk": {"count": BULK_DRAWS, "seed": BULK_SEED,
                            "rank": [1, 4], "kinds": list(BULK_KINDS),
                            "lam_m": [-3.0, 3.0], "near": [1e-12, 1e-2],
                            "l": [1e-3, 1e3], "n_r": [16, 256],
                            "n_ang": [2, 8]}},
        "moved": collect.moved(reports),
        "sides": {name: {**collect.git_state(sides[name]), **reports[name]}
                  for name in sides},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
