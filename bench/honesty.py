"""Honesty scan of the Pontryagin term, for HONESTY_<pr>.json.

    python3 bench/honesty.py --side parent=PATH --side change=. \\
        --out HONESTY_<pr>.json

Each ``--side NAME=PATH`` names a checkout whose ``src/`` is scanned in a
fresh interpreter. A row of ``convergence_table`` is honest when it misses
1/12, the oracle, by no more than its error estimate plus its tail bound;
its ratio is miss / (error + tail_bound), and every sweep row counts, not
only the last. Two sections are scanned per side:

- ``scan``: 4 variants x 2 blends x the nine l of ``SCAN_L``, t = 0.6,
  at the README quadrature and sweep: 216 rows;
- ``draws``: ``DRAWS`` draws from ``random.Random(SEED)`` of variant,
  blend, l log-uniform in [1e-3, 1e3], t uniform in [0, 1], ``r_max``
  uniform in [20, 120] and ``n_ang`` in 2..8, each a README sweep of
  three rows.

For each section the file records the row count, the worst ratio and its
configuration, every row whose ratio is above 1, every ``quad.n_r`` row
whose miss is above ``quad.tol`` (both sweep modes fail those), each
failure with its error kind, message and configuration, and a SHA-256 of
every row's value, error and tail bound. ``moved`` lists the sections
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
import sys
from pathlib import Path

import collect

SCAN_L = (1e-3, 1e-2, 0.2, 1.0, 3.0, 6.0, 20.0, 100.0, 1e3)
SWEEP = (64, 128, 256)
BLENDS = ("quintic", "septic")
SEED = 37
DRAWS = 300

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


def summarize(rows, failures) -> dict:
    """The section's entry of HONESTY_<pr>.json."""
    def where(row, *extra):
        keys = ("variant", "blend", "l", "t", "r_max", "n_ang", "n_r", *extra)
        return {k: row[k] for k in keys}

    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr([row[k] for k in sorted(row)]).encode())
    worst = max(rows, key=lambda row: row["ratio"], default=None)
    return {
        "rows": len(rows),
        "worst": None if worst is None else where(worst, "ratio"),
        "worst_honest_ratio": max((row["ratio"] for row in rows
                                   if row["ratio"] <= 1.0), default=None),
        "above_1": [where(row, "ratio") for row in rows if row["ratio"] > 1.0],
        "above_tol": [where(row, "miss") for row in rows if row["fails_tol"]],
        "failed": failures,
        "digest": digest.hexdigest(),
    }


def side_report() -> dict:
    """{section: summary} of the tnindex on sys.path."""
    return {name: summarize(*scan_rows(configs))
            for name, configs in _configs().items()}


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
                             "sweep": list(SWEEP)}},
        "moved": collect.moved(reports),
        "sides": {name: {**collect.git_state(sides[name]), **reports[name]}
                  for name in sides},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
