"""Batch command-line front end: JSON configuration in, JSON/CSV reports
out, for the five verification workflows."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import MISSING, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .charclasses import convergence_table
from .errors import ConsistencyError, ConvergenceError, TNIndexError
from .eta import ROUTES, SeriesSpec, route_table
from .gauge import InstantonChannel, InstantonData
from .geometry import (BlendProfile, Gauge, MetricSample, MetricSpec, Point,
                       Variant, chart_omega, curvature_batch, hodge_star,
                       star3)
from .index import GRAV_LEMMA_CONSTANT, GRAV_MODES, assemble
from .quadrature import QuadratureSpec

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3

MODES = ("index", "eta", "geometry-check", "pontryagin", "convergence")


def _require(cond: bool, message: str, *args):
    if not cond:
        raise ValueError(message.format(*args))


# per section dataclass: (field types, fields without a default), read once
_SPECS = {cls: (get_type_hints(cls), [
    f.name for f in fields(cls) if f.default is MISSING is f.default_factory])
    for cls in (MetricSpec, BlendProfile, QuadratureSpec, SeriesSpec,
                InstantonChannel)}


def _cast(kind: type, value, name: str):
    """The config value `name` as kind: a number is a JSON number that a
    double holds, integral for an int, a str or an enum (read by value) a
    JSON string, and a dataclass is built from its section."""
    if kind in _SPECS:
        return _build_spec(kind, value, name)
    if kind is int or kind is float:
        if type(value) not in (int, float):  # not a string, nor a bool
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer above the largest double
            raise ValueError(f"{name} must be a number within double range")
        if kind is int and not number.is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return number if kind is float else int(value)
    choices = () if kind is str else tuple(member.value for member in kind)
    if type(value) is str and (not choices or value in choices):
        return kind(value)
    want = f"one of {choices}" if choices else "a string"
    raise ValueError(f"{name} must be {want}, got {value!r}")


def _only(section: dict, keys) -> dict:
    """section, unless it holds a key outside keys: a key that nothing
    reads, such as a misspelt one, is a ValidationError naming it."""
    for key in section:
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}; this object "
                             f"takes {', '.join(keys)}")
    return section


def _named(prefix: str, build, *args, **kwargs):
    """build(*args, **kwargs), a spec whose refusal names the bare field,
    with prefix put before that name: where the spec sits in the config."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


def _build_spec(cls, section, where: str, **defaults):
    """Instance of the dataclass cls from the config section `where`, a
    JSON object whose keys name fields, each cast to its type; an absent
    key takes defaults, else the field's default, which it must have."""
    types, required = _SPECS[cls]
    need = [key for key in required if key not in defaults]
    if not isinstance(section, dict) or any(k not in section for k in need):
        raise ValueError(f"{where} must be a JSON object" + "".join(
            f" with a {key!r}" for key in need) + f", got {section!r}")
    for key, value in _only(section, types).items():
        defaults[key] = _cast(types[key], value, f"{where}.{key}")
    return _named(f"{where}.", cls, **defaults)


def _choice(raw: dict, key: str, choices, flag, default=None):
    """The flag, else the config's `key`, else default, one of choices; the
    config's own value is checked even where the flag replaces it, so a
    document is valid or invalid whatever the flags."""
    value = flag or raw.get(key, default)
    for given in ([raw[key]] if key in raw else []) + [value]:
        _require(given in choices, "{} must be one of {}, got {!r}", key,
                 choices, given)
    return value


def _list(raw: dict, key: str, kind: type, default: list) -> list:
    """The config's list `key`, else default: a non-empty JSON list whose
    entries are each cast to kind and named key[i]."""
    values = raw.get(key, default)
    _require(isinstance(values, list) and values,
             "{} must be a non-empty list, got {!r}", key, values)
    return [_cast(kind, x, f"{key}[{i}]") for i, x in enumerate(values)]


def load_config(raw: dict, overrides: argparse.Namespace) -> dict:
    """The run configuration of the document raw under the flags. Every
    key present is checked, the same way in every mode and under every
    flag; the mode then adds its own requirements only."""
    _only(raw, ("mode", "grav", "route", "instanton", "metric", "quad",
                "series", "lambdas", "sweep", "out", "seed"))
    mode = _choice(raw, "mode", MODES, overrides.mode)
    routes = ROUTES if mode == "index" else ROUTES + ("all",)
    out = _cast(str, raw.get("out", "."), "out")
    quad = _build_spec(QuadratureSpec, raw.get("quad", {}), "quad")
    cfg = {
        "mode": mode,
        "metric": _build_spec(MetricSpec, raw.get("metric", {}), "metric",
                              variant=Variant.EXACT_D),
        # QuadratureSpec refuses a --tol as it refuses a quad.tol
        "quad": quad if overrides.tol is None else _named(
            "--", replace, quad, tol=overrides.tol),
        "series": _build_spec(SeriesSpec, raw.get("series", {}), "series"),
        "route": _choice(raw, "route", routes, overrides.route, "bernoulli"),
        "grav": _choice(raw, "grav", GRAV_MODES, overrides.grav, "numeric"),
        "out": Path(overrides.out or out),
        "lambdas": _list(raw, "lambdas", float, [0.1, 0.25, 0.4, 0.6, 0.9]),
        "sweep": _list(raw, "sweep", int, [64, 128, 256]),
        "seed": _cast(int, raw.get("seed", 7), "seed"),
    }
    _require(cfg["seed"] >= 0, "seed must be >= 0, got {!r}", cfg["seed"])
    _require(all(map(math.isfinite, cfg["lambdas"])),
             "lambdas must be finite numbers, got {!r}", cfg["lambdas"])
    sweep = cfg["sweep"]
    _require(sweep[0] >= 16 and all(a < b for a, b in zip(sweep, sweep[1:])),
             "sweep must be strictly increasing integers >= 16, got {!r}",
             sweep)
    # a README contract: the blend ends inside the sampled range; the exact
    # ends of the Pontryagin integral would hold past it as well
    _require(cfg["metric"].blend.r_out < cfg["quad"].r_max,
             "metric.blend.r_out must be below quad.r_max ({!r}), got {!r}",
             cfg["quad"].r_max, cfg["metric"].blend.r_out)
    if "instanton" in raw:
        section = raw["instanton"]
        _require(isinstance(section, dict), "instanton must be a JSON object")
        channels = _only(section, ("channels",)).get("channels")
        _require(type(channels) is list, "instanton.channels must be a list")
        cfg["instanton"] = _named("instanton.", InstantonData, [_build_spec(
            InstantonChannel, ch, f"instanton.channels[{i}]", mcharge=0.0)
            for i, ch in enumerate(channels)])
    if mode == "index":
        _require("instanton" in cfg, "mode 'index' requires an instanton "
                 "section with channels")
    return cfg


def _write_json(path: Path, payload: dict):
    """A JSON report: two-space indent, sorted keys and a final newline,
    in one write."""
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cell(x) -> str:
    if isinstance(x, int):  # bool is an int too
        return str(x).lower()
    return x if isinstance(x, str) else repr(float(x))


def _write_csv(path: Path, header, rows):
    """A CSV report: ',' separator, LF endings and the header row first; a
    string cell is written as is, a bool or int as text (true, 64), and any
    other number as repr(float(x))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


def _run_index(cfg: dict) -> int:
    report = assemble(cfg["instanton"], cfg["quad"], route=cfg["route"],
                      grav_mode=cfg["grav"], series=cfg["series"],
                      metric=cfg["metric"])
    _write_json(cfg["out"] / "index_report.json", report.to_dict())
    return EXIT_OK


def _run_eta(cfg: dict) -> int:
    """The route table over the channels' lam, else over lambdas."""
    routes = ROUTES if cfg["route"] == "all" else (cfg["route"],)
    lambdas = [ch.lam for ch in cfg["instanton"].channels] \
        if "instanton" in cfg else cfg["lambdas"]
    rows = route_table(lambdas, cfg["series"], routes)
    _write_csv(cfg["out"] / "eta_routes.csv",
               ["lambda", "route", "a0", "a2coeff", "integrated", "error"],
               rows)
    return EXIT_OK


def _run_geometry_check(cfg: dict) -> int:
    rng = np.random.default_rng(cfg["seed"])
    spec = MetricSpec(variant=Variant.TN, l=cfg["metric"].l)

    # 20 points, each with its random two-form, in one curvature batch
    draws = []
    for _ in range(20):
        p = Point.from_polar(float(rng.uniform(0.3, 10.0)),
                             float(rng.uniform(0.3, np.pi - 0.3)),
                             float(rng.uniform(0.0, 2.0 * np.pi)))
        two_form = np.triu(rng.standard_normal((4, 4)), 1)
        draws.append((p, two_form - two_form.T))
    points, forms = zip(*draws)
    _, ricci, g, frame = curvature_batch(
        spec, np.array([p.xyz() for p in points]))
    metrics = map(MetricSample, g, frame, points)
    twice = [hodge_star(m, hodge_star(m, f)) for m, f in zip(metrics, forms)]
    # one reduction per row, which carries a NaN through to fail the row
    rows = [("ricci_flatness_max", np.abs(ricci).max(), 1e-6),
            ("hodge_involution_max",
             np.abs(np.subtract(twice, forms)).max(), 1e-12)]

    # d(omega) = *3 dV via central differences of the gauge potential
    # every |x_i| >= 0.5, so each point lies off the x3-axis
    h = 1e-5
    x = np.array([rng.uniform(0.5, 5.0, size=3)
                  * rng.choice([-1.0, 1.0], size=3) for _ in range(20)])
    # [k, i]: omega at point k shifted by +-h along x_i
    _, wp = chart_omega(x[:, None] + h * np.eye(3))
    _, wm = chart_omega(x[:, None] - h * np.eye(3))
    domega = (wp - wm) / (2.0 * h)
    domega = domega - domega.transpose(0, 2, 1)  # (d omega)_ij
    # *3 dV per point: a batched norm or power would round differently
    stars = [star3(-0.5 * v / float(np.linalg.norm(v)) ** 3) for v in x]
    rows.append(("monopole_field_residual", np.abs(domega - stars).max(),
                 1e-8))

    # oint_{S^2} d(omega) = oint (omega_N - omega_S) . dx/dphi dphi around
    # the unit circles at x3 = 0.7, -2 and 0 (periodic trapezoid rule)
    phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    x1, x2, x3 = np.broadcast_arrays(np.cos(phi), np.sin(phi),
                                     np.array([[0.7], [-2.0], [0.0]]))
    xyz = np.stack([x1, x2, x3], axis=-1)
    jump = chart_omega(xyz, Gauge.NORTH)[1] - chart_omega(xyz, Gauge.SOUTH)[1]
    flux = 2.0 * np.pi * np.mean(jump[..., 1] * x1 - jump[..., 0] * x2,
                                 axis=-1)
    rows.append(("monopole_flux_vs_minus_2pi",
                 np.abs(flux + 2.0 * np.pi).max(), 1e-6))

    failed = [name for name, value, bound in rows if not value < bound]
    _write_csv(cfg["out"] / "geometry_check.csv",
               ["check", "residual", "bound", "pass"],
               [(name, value, bound, name not in failed)
                for name, value, bound in rows])
    if failed:
        raise ConsistencyError(f"geometry checks failed: {', '.join(failed)}")
    return EXIT_OK


def _run_sweep(cfg: dict) -> int:
    """Grid sweep of the Pontryagin integral, one verdict for both modes:
    the last row's miss of 1/12 is at most its error budget, error_estimate
    + tail_bound, and that budget is at most quad.tol (a NaN fails). The
    mode names the CSV only."""
    rows = convergence_table(cfg["metric"], cfg["quad"],
                             n_r_values=cfg["sweep"])
    (_, value, error, tail), tol = rows[-1], cfg["quad"].tol
    miss = abs(value - GRAV_LEMMA_CONSTANT)
    name = {"pontryagin": "pontryagin_convergence.csv",
            "convergence": "convergence_sweep.csv"}[cfg["mode"]]
    _write_csv(cfg["out"] / name,
               ["N_r", "value", "error_estimate", "tail_bound"], rows)
    if not miss <= error + tail <= tol:
        raise ConvergenceError(
            f"final value {value!r} misses 1/12 by {miss:.3e} against an "
            f"error budget of {error + tail:.3e} (tolerance {tol:.3e})", rows)
    return EXIT_OK


_RUNNERS = {
    "index": _run_index,
    "eta": _run_eta,
    "geometry-check": _run_geometry_check,
    "pontryagin": _run_sweep,
    "convergence": _run_sweep,
}


def _emit_error(kind: str, message: str, history=None):
    """The failure JSON on stderr; a ConvergenceError adds its history."""
    payload = {"error": kind, "message": message}
    if history is not None:  # non-finite numbers as null, as JSON has none
        payload["history"] = json.loads(json.dumps(history),
                                        parse_constant=lambda _: None)
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tn-index",
        description="Numerical verification of an L2-index formula on "
                    "Taub-NUT space: curvature integrals, eta-form routes, "
                    "and index assembly.")
    parser.add_argument("--config", type=str, default=None,
                        help="path to a JSON configuration document")
    parser.add_argument("--mode", choices=MODES, default=None)
    parser.add_argument("--grav", choices=GRAV_MODES, default=None)
    parser.add_argument("--route", choices=ROUTES + ("all",), default=None)
    parser.add_argument("--out", type=str, default=None,
                        help="output directory for reports")
    parser.add_argument("--tol", type=float, default=None)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parsing leaves
    no state in it, so repeated calls of main share it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK

    raw = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            _emit_error("ParseError", str(exc))
            return EXIT_PARSE
    if not isinstance(raw, dict):
        _emit_error("ParseError", "configuration root must be a JSON object")
        return EXIT_PARSE

    try:
        cfg = load_config(raw, args)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        _emit_error("ValidationError", str(exc))
        return EXIT_VALIDATION

    try:
        cfg["out"].mkdir(parents=True, exist_ok=True)
        # a non-finite number meets a typed guard, so numpy's own warnings
        # would only put text before the failure JSON on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _RUNNERS[cfg["mode"]](cfg)
    except TNIndexError as exc:
        _emit_error(type(exc).__name__, str(exc),
                    getattr(exc, "history", None))
        return EXIT_NUMERICAL
    except OSError as exc:  # only out and its reports touch the file system
        _emit_error("ValidationError", f"out {str(cfg['out'])!r} cannot "
                    f"take the report: {exc}")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
