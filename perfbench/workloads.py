"""Seeded tn-index configurations for each benchmark workload, and the checks
each output must pass: the repo's own oracles (1/12, the closed-form bulk
action, the Bernoulli eta) and the README CSV/JSON contract.

Import this module only after ``tnindex`` is importable; the oracle
functions are bound here, before any tracing wrapper is installed, so the
checks never show up in a trace.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from tnindex.eta import ROUTES, eta_bernoulli
from tnindex.gauge import (InstantonChannel, InstantonData,
                           bulk_action_closed_form)
from tnindex.index import index_formula

PONT_TARGET = 1.0 / 12.0
BLENDS = ("quintic", "septic")


@dataclass
class Verdict:
    """Outcome of checking one output file. ``abs_err`` is the distance from
    the oracle and ``bound`` the error the output reports for itself."""

    abs_err: float = math.nan
    bound: float = math.nan
    problems: list = field(default_factory=list)
    poisson_violations: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple                      # tn-index flags besides --config
    output: str                      # the file the mode writes
    # One block of configs from (rng, block index, tiny quadrature).
    block: Callable[[random.Random, int, bool], list]
    check: Callable[[dict, bytes], Verdict]
    # Wall seconds one block takes on a 2-core shared virtual machine. A run
    # of S seconds does round(S / block_s) blocks, at least one, however fast
    # the host runs, so its draws, and with them ``attempted``, ``failed``
    # and the accuracy figures, depend on the seed and S alone.
    block_s: float

    def blocks_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.block_s))


# ---------------------------------------------------------------------------
# Generators. Each call returns one block of configs; a run uses whole blocks
# so that every run has the same mix of draws.


def _grav_block(rng: random.Random, index: int, tiny: bool) -> list:
    first, other = rng.sample(BLENDS, 2)
    metrics = [
        {"variant": "ExactD", "t": 0.0, "kind": other},
        {"variant": "Homotopy", "t": rng.uniform(0.1, 0.9),
         "kind": rng.choice(BLENDS)},
        {"variant": "Conformal", "t": 0.0, "kind": rng.choice(BLENDS)},
    ]
    rng.shuffle(metrics)
    # The first op is always ExactD: the run repeats its first config as its
    # last op, so this keeps the variant mix of every run the same.
    metrics.insert(0, {"variant": "ExactD", "t": 0.0, "kind": first})
    quad, sweep = ({"n_r": 128, "n_ang": 2}, [64, 128]) if tiny else \
        ({"n_r": 256, "n_ang": 8}, [64, 128, 256])
    return [{"metric": {"variant": m["variant"], "t": m["t"], "l": 1.0,
                        "blend": {"r_in": 2.0, "r_out": 4.0,
                                  "kind": m["kind"]}},
             "quad": quad, "sweep": sweep} for m in metrics]


def _near_integer(rng: random.Random, lo: float, hi: float) -> float:
    """A value log-uniformly within [lo, hi] of 0 or 1, on either side."""
    dist = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
    return rng.choice((0, 1)) + rng.choice((-1.0, 1.0)) * dist


def _index_block(rng: random.Random, index: int, tiny: bool) -> list:
    # One channel near an integer and one in each of the intervals (-1, 0),
    # (0, 1) and (1, 2). The bulk error grows like the sum over channels of
    # (lam - mcharge)^2, so the charges follow the block index: every three
    # blocks pair each interval with each charge, and the near-integer
    # channel takes each charge in turn. This fixed mix halves the spread of
    # the median error between seeds against a free draw of the charges.
    channels = [(_near_integer(rng, 2e-6, 0.03), index // 3 % 3)]
    for k, n in enumerate((-1, 0, 1)):
        channels.append((n + rng.uniform(0.03, 0.97), (k + index) % 3))
    rng.shuffle(channels)
    cfg = {"instanton": {"channels": [
        {"lam": lam, "mcharge": float(m), "chern": -m}
        for lam, m in channels]}}
    if tiny:
        cfg["quad"] = {"n_r": 32, "n_ang": 2}
    return [cfg]


def _eta_block(rng: random.Random, index: int, tiny: bool) -> list:
    # Three draws at dist(lam, Z) in [0.05, 0.5], then one near an integer,
    # so exactly a quarter of the ops probe the near-integer domain.
    lams = [rng.choice((0, 1)) + rng.choice((-1.0, 1.0))
            * rng.uniform(0.05, 0.5) for _ in range(3)]
    lams.append(_near_integer(rng, 1e-5, 0.03))
    return [{"lambdas": [lam]} for lam in lams]


# ---------------------------------------------------------------------------
# Reference kernel. On a shared host the speed of the same code swings by up
# to 2x for seconds at a time, so each op is timed against this fixed kernel,
# run around it and, in long ops, during it. It uses numpy only, never
# tnindex, on arrays of some tens of kilobytes, so it moves neither with the
# program nor with its memory figure.

_FRAMES = np.linspace(0.0, 1.0, 16 * 16).reshape(16, 4, 4) + np.eye(4)
_TENSORS = np.linspace(0.0, 1.0, 16 * 256).reshape(16, 4, 4, 4, 4)


def reference_kernel():
    """The five-operand frame einsum of the curvature path, 16 points."""
    return np.einsum("nwa,nxb,nyc,nzd,nwxyz->nabcd", _FRAMES, _FRAMES,
                     _FRAMES, _FRAMES, _TENSORS)


# ---------------------------------------------------------------------------
# Output contract helpers


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token} in JSON")
    return value


def _csv_rows(data: bytes, header: list, problems: list) -> list:
    """Rows of a README-dialect CSV: ',' separated, '.' decimals, LF line
    endings and the expected header row."""
    if b"\r" in data:
        problems.append("CSV has CR line endings")
    if not data.endswith(b"\n"):
        problems.append("CSV does not end with LF")
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    if not rows or rows[0] != header:
        problems.append(f"CSV header {rows[:1]} is not {header}")
        return []
    body = rows[1:]
    if any(len(row) != len(header) for row in body):
        problems.append("CSV row with the wrong number of fields")
        return []
    return body


def _number(text: str, problems: list) -> float:
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{text!r} is not a '.'-decimal number")
        return math.nan
    if not math.isfinite(value):
        problems.append(f"non-finite number {text}")
    return value


# ---------------------------------------------------------------------------
# Checks


GRAV_HEADER = ["N_r", "value", "error_estimate", "tail_bound"]


def _check_grav(cfg: dict, data: bytes) -> Verdict:
    v = Verdict()
    rows = _csv_rows(data, GRAV_HEADER, v.problems)
    if [row[0] for row in rows] != [str(n) for n in cfg["sweep"]]:
        v.problems.append("N_r column does not match the sweep")
        return v
    value, error, tail = (_number(x, v.problems) for x in rows[-1][1:])
    v.abs_err, v.bound = abs(value - PONT_TARGET), error + tail
    if not v.abs_err <= v.bound:
        v.problems.append(f"misses 1/12 by {v.abs_err:.3e}, beyond its "
                          f"reported {v.bound:.3e}")
    return v


REPORT_KEYS = {"schema", "bulk", "grav", "eta_contribution", "index_value",
               "nearest_integer", "integrality_defect", "route", "grav_mode",
               "errors", "quadrature", "series"}
ERROR_KEYS = {"bulk", "grav", "eta", "cancellation_residual"}


def _check_index(cfg: dict, data: bytes) -> Verdict:
    v = Verdict()
    if b"\r" in data or not data.endswith(b"\n"):
        v.problems.append("JSON report is not LF-terminated text")
    try:
        report = json.loads(data, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:
        v.problems.append(f"report is not finite JSON: {exc}")
        return v
    if not isinstance(report, dict) or not REPORT_KEYS <= set(report) \
            or not isinstance(report["errors"], dict) \
            or not ERROR_KEYS <= set(report["errors"]):
        v.problems.append("report lacks index-report keys")
        return v
    if not str(report["schema"]).startswith("index-report/") \
            or report["route"] != "bernoulli" \
            or report["grav_mode"] != "lemma" \
            or not isinstance(report["nearest_integer"], int):
        v.problems.append("report fields break the index-report schema")
    errors = report["errors"]
    data_ = InstantonData([InstantonChannel(**ch)
                           for ch in cfg["instanton"]["channels"]])
    oracle = index_formula(data_, bulk_action_closed_form(data_))
    v.abs_err = abs(report["index_value"] - oracle)
    v.bound = errors["bulk"] + errors["grav"] + errors["eta"]
    if not v.abs_err <= v.bound:
        v.problems.append(f"misses the closed-form index by "
                          f"{v.abs_err:.3e}, beyond its reported "
                          f"{v.bound:.3e}")
    return v


ETA_HEADER = ["lambda", "route", "a0", "a2coeff", "integrated", "error"]


def _check_eta(cfg: dict, data: bytes) -> Verdict:
    v = Verdict()
    rows = _csv_rows(data, ETA_HEADER, v.problems)
    lam = cfg["lambdas"][0]
    if [row[1] for row in rows] != list(ROUTES):
        v.problems.append(f"routes {[row[1] for row in rows]} are not "
                          f"{list(ROUTES)}")
        return v
    oracle = eta_bernoulli(lam)
    v.abs_err = v.bound = 0.0
    for row in rows:
        lam_out, a0, a2, integrated, error = (
            _number(x, v.problems) for x in (row[0], *row[2:]))
        if lam_out != lam:
            v.problems.append(f"row lambda {lam_out!r} is not {lam!r}")
        miss = max(abs(a0 - oracle.a0), abs(a2 - oracle.a2),
                   abs(integrated - 0.5 * a2))
        v.abs_err, v.bound = max(v.abs_err, miss), max(v.bound, error)
        if not miss <= error:
            v.problems.append(f"{row[1]} misses Bernoulli by {miss:.3e}, "
                              f"beyond its reported {error:.3e}")
            v.poisson_violations += row[1] == "poisson"
    return v


WORKLOADS = {w.name: w for w in (
    Workload("grav_sweep", ("--mode", "pontryagin"),
             "pontryagin_convergence.csv", _grav_block, _check_grav, 30.0),
    Workload("index_bulk",
             ("--mode", "index", "--grav", "lemma", "--route", "bernoulli"),
             "index_report.json", _index_block, _check_index, 0.6),
    Workload("eta_sweep", ("--mode", "eta", "--route", "all"),
             "eta_routes.csv", _eta_block, _check_eta, 0.55),
)}
