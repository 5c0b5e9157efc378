"""CLI: configuration ingestion, the five modes, exit codes, and the
report/CSV contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tnindex
from tnindex import cli, eta, geometry
from tnindex import index as index_module
from tnindex.charclasses import convergence_table
from tnindex.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE,
                         EXIT_VALIDATION, main)
from tnindex.eta import ROUTES, route_table
from tnindex.gauge import (InstantonChannel, InstantonData,
                           bulk_action_closed_form)
from tnindex.geometry import (Gauge, MetricSpec, Point, Variant, curvature_at,
                              hodge_star)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


INDEX_CONFIG = {
    "mode": "index",
    "grav": "lemma",
    "route": "bernoulli",
    "instanton": {"channels": [
        {"lam": 1.3, "mcharge": 1.3, "chern": 0},
        {"lam": 0.3, "mcharge": 0.3, "chern": 1},
    ]},
    "quad": {"n_r": 64},
}


def test_index_mode_flat_channels(tmp_path, capsys):
    cfg = write_config(tmp_path, INDEX_CONFIG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "index_report.json").read_text())
    assert abs(report["bulk"]) < 1e-8
    assert report["schema"] == "index-report/1"
    assert report["grav_mode"] == "lemma"


def test_index_report_deterministic(tmp_path):
    cfg = write_config(tmp_path, INDEX_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "index_report.json").read_bytes() == \
        (out2 / "index_report.json").read_bytes()


def test_eta_mode_far_lambda(tmp_path):
    """A holonomy two thousand periods from 0: every route's row meets
    Bernoulli within its reported error."""
    cfg = write_config(tmp_path, {"mode": "eta", "lambdas": [2000.3],
                                  "route": "all"})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "eta_routes.csv").read_text().splitlines()
    ref = eta.eta_bernoulli(2000.3)
    rows = [line.split(",") for line in lines[1:]]
    assert [row[1] for row in rows] == list(ROUTES)
    for _, _, a0, a2, _, error in rows:
        assert abs(float(a0) - ref.a0) <= float(error)
        assert abs(float(a2) - ref.a2) <= float(error)


def test_eta_mode_half_lambda(tmp_path):
    cfg = write_config(tmp_path, {"mode": "eta", "lambdas": [0.5],
                                  "route": "all"})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "eta_routes.csv").read_text().splitlines()
    assert lines[0] == "lambda,route,a0,a2coeff,integrated,error"
    assert len(lines) == 4
    for line in lines[1:]:
        assert abs(float(line.split(",")[2])) < 1e-6


def test_geometry_check_mode(tmp_path):
    out = tmp_path / "out"
    assert main(["--mode", "geometry-check", "--out", str(out)]) == EXIT_OK
    lines = (out / "geometry_check.csv").read_text().splitlines()
    assert lines[0] == "check,residual,bound,pass"
    assert all(line.endswith(",true") for line in lines[1:])


def per_point_curvature_rows(seed, l):
    """The Ricci and Hodge rows of geometry-check as one curvature_at call
    per point evaluates them, in the same draws of the seed's generator."""
    rng = np.random.default_rng(seed)
    spec = MetricSpec(variant=Variant.TN, l=l)
    ricci = star = 0.0
    for _ in range(20):
        p = Point.from_polar(float(rng.uniform(0.3, 10.0)),
                             float(rng.uniform(0.3, np.pi - 0.3)),
                             float(rng.uniform(0.0, 2.0 * np.pi)))
        sample = curvature_at(spec, p)
        ricci = max(ricci, float(np.abs(sample.ricci).max()))
        two_form = np.triu(rng.standard_normal((4, 4)), 1)
        two_form = two_form - two_form.T
        twice = hodge_star(sample.metric, hodge_star(sample.metric, two_form))
        star = max(star, float(np.abs(twice - two_form).max()))
    return [("ricci_flatness_max", ricci, 1e-6),
            ("hodge_involution_max", star, 1e-12)]


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("l", [0.2, 6.0])
def test_geometry_check_batches_its_curvature(tmp_path, monkeypatch, seed, l):
    """geometry-check takes the curvature of its 20 points from one batch,
    one _metric_jet_arrays call, and its Ricci and Hodge rows keep the
    bytes of one curvature_at call per point."""
    cfg = write_config(tmp_path, {"mode": "geometry-check", "seed": seed,
                                  "metric": {"l": l}})
    calls, jet_arrays = [], geometry._metric_jet_arrays

    def counted(*args):
        calls.append(len(args[1]))
        return jet_arrays(*args)

    monkeypatch.setattr(geometry, "_metric_jet_arrays", counted)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    assert calls == [20]
    lines = (out / "geometry_check.csv").read_text().splitlines()
    assert lines[1:3] == [",".join(cli._cell(x) for x in (*row, True))
                          for row in per_point_curvature_rows(seed, l)]


def test_pontryagin_mode_hits_target(tmp_path):
    cfg = write_config(tmp_path, {"mode": "pontryagin",
                                  "sweep": [64, 128]})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "pontryagin_convergence.csv").read_text().splitlines()
    final = float(lines[-1].split(",")[1])
    assert abs(final - 1.0 / 12.0) < 1e-3


def test_convergence_mode(tmp_path):
    cfg = write_config(tmp_path, {"mode": "convergence",
                                  "sweep": [32, 64, 128]})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "convergence_sweep.csv").read_text().splitlines()
    assert len(lines) == 4


def test_parse_error_exit_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "--mode", "eta"]) == EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"


def test_validation_error_exit_and_json(capsys):
    assert main(["--mode", "index"]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"


@pytest.mark.parametrize("mode", ["eta", "index", "geometry-check",
                                  "pontryagin", "convergence"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_unwritable_out_is_a_validation_error(tmp_path, capsys, monkeypatch,
                                              mode, below):
    """An out that is an existing regular file, or a directory that cannot
    be created under one, exits 3 with a ValidationError naming out, and
    before any computation."""
    def computed(*args, **kwargs):
        raise AssertionError("computed before out was checked")

    for name in ("assemble", "convergence_table", "route_table"):
        monkeypatch.setattr(cli, name, computed)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    out = blocker / below
    cfg = write_config(tmp_path, {**INDEX_CONFIG, "mode": mode})
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert err["message"].startswith(f"out {str(out)!r} ")
    assert blocker.read_text() == "not a directory"


def test_unknown_mode_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "frobnicate"})
    assert main(["--config", cfg]) == EXIT_VALIDATION


@pytest.mark.parametrize("mode, sweep", [
    ("pontryagin", []), ("convergence", []), ("convergence", [32]),
    ("convergence", [32, 64]), ("pontryagin", [32, 8]),
    ("pontryagin", [64.5]), ("pontryagin", "64"), ("pontryagin", ["64"])])
def test_bad_sweep_rejected(tmp_path, capsys, mode, sweep):
    cfg = write_config(tmp_path, {"mode": mode, "sweep": sweep})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "sweep" in err["message"]


@pytest.mark.parametrize("as_float, as_int", [
    ([32.0], [32]), ([64.0, 128], [64, 128])])
def test_integral_float_sweep_accepted(tmp_path, as_float, as_int):
    """A sweep entry given as an integral float runs as that integer: the
    same exit code and the same report, whose N_r column holds ints."""
    runs = []
    for sweep in (as_float, as_int):
        raw = {"mode": "pontryagin", "sweep": sweep}
        cfg = cli.load_config(raw, cli.build_parser().parse_args([]))
        assert cfg["sweep"] == as_int
        assert all(type(n) is int for n in cfg["sweep"])
        out = tmp_path / str(sweep)
        code = main(["--config", write_config(tmp_path, raw),
                     "--out", str(out)])
        runs.append((code, (out / "pontryagin_convergence.csv").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] != EXIT_VALIDATION


def test_one_entry_sweep_runs_in_pontryagin_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "pontryagin", "sweep": [32]})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert json.loads(capsys.readouterr().err)["error"] == "ConvergenceError"
    lines = (out / "pontryagin_convergence.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["N_r", "32"]


@pytest.mark.parametrize("section", [
    {"metric": 5}, {"metric": {"blend": [2.0, 4.0]}},
    {"instanton": "channels"}, {"quad": [64]}, {"series": "tol"}])
def test_non_object_section_rejected(tmp_path, capsys, section):
    cfg = write_config(tmp_path, dict(section, mode="eta"))
    assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "must be a JSON object" in err["message"]


@pytest.mark.parametrize("lambdas", [5, ["x"], [], [float("nan")],
                                     [0.3, 10**400]])
def test_bad_lambdas_rejected(tmp_path, capsys, lambdas):
    cfg = write_config(tmp_path, {"mode": "eta", "lambdas": lambdas})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "lambdas" in err["message"]
    assert not out.exists()


def test_non_integral_chern_rejected(tmp_path, capsys):
    def channels(chern):
        return dict(INDEX_CONFIG, instanton={"channels": [
            {"lam": 0.3, "mcharge": 1.0, "chern": chern}]})

    cfg = write_config(tmp_path, channels(-1.5))
    assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "chern" in err["message"]
    # an integral float is an integer
    as_float, as_int = tmp_path / "float", tmp_path / "int"
    assert main(["--config", write_config(tmp_path, channels(2.0)),
                 "--out", str(as_float)]) == EXIT_OK
    assert main(["--config", write_config(tmp_path, channels(2)),
                 "--out", str(as_int)]) == EXIT_OK
    assert (as_float / "index_report.json").read_bytes() == \
        (as_int / "index_report.json").read_bytes()


@pytest.mark.parametrize("series", [
    {"tol": float("nan")}, {"tol": float("inf")}, {"tol": float("-inf")},
    {"tol": 0}, {"tol": -1e-8}, {"tol": "1e-8"}, {"tol": True},
    {"tol": None}, {"tol": [1e-8]}])
def test_bad_series_rejected(tmp_path, capsys, series):
    cfg = write_config(tmp_path, {"mode": "eta", "route": "all",
                                  "series": series})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
    assert not out.exists()


# A key that names no field of its object, with that key: a removed option,
# a misspelling in each config object, and a misplaced plural.
UNKNOWN_KEYS = [
    ({"quad": {"n_r": 64, "scheme": "tanh-sinh"}}, "scheme"),
    ({"quad": {"n_r": 64, "scheme": "gauss-legendre-composite"}}, "scheme"),
    ({"quad": {"nr": 64}}, "nr"),
    ({"metric": {"blend": {"knd": "septic"}}}, "knd"),
    ({"instanton": {"channels": [{"lam": 0.3, "mchage": 1}]}}, "mchage"),
    ({"lambda": [0.3]}, "lambda"),
    ({"metric": {"varient": "TN"}}, "varient"),
    ({"instanton": {"channels": [{"lam": 0.3}], "chanels": []}}, "chanels"),
    ({"series": {"ncut": 50}}, "ncut"),
    ({"series": {"k_cutoff": 1500}}, "k_cutoff"),
    ({"series": {"p_cutoff": 20000}}, "p_cutoff"),
    ({"series": {"u_min": 1e-4}}, "u_min"),
    ({"series": {"u_max": 1e4}}, "u_max"),
    ({"series": {"n_u": 601}}, "n_u"),
]


@pytest.mark.parametrize("patch", [
    {"quad": {"n_r": 64, "tol": float("nan")}},
    {"quad": {"n_r": 64, "tol": float("inf")}},
    {"quad": {"n_r": 64, "r_max": float("inf")}},
    {"quad": {"n_r": float("inf")}},
    {"seed": float("inf")},
    {"metric": {"l": float("nan")}},
    {"metric": {"l": float("inf")}},
    {"metric": {"blend": {"r_out": float("inf")}}},
    {"quad": {"n_r": 64.9}},
    {"quad": {"n_r": 64, "n_ang": 2.5}},
    {"seed": 7.5}, {"seed": -1}, *[patch for patch, _ in UNKNOWN_KEYS]])
def test_bad_quad_rejected(tmp_path, capsys, patch):
    """Non-finite numbers and keys that nothing reads in the config are
    validation failures, never a report holding NaN or ignoring the key,
    a numerical failure or a traceback from int()."""
    cfg = write_config(tmp_path, dict(INDEX_CONFIG, **patch))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    # stderr holds the error object alone, no numpy warnings
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    # an unknown key is named
    assert all(repr(key) in err["message"]
               for unknown, key in UNKNOWN_KEYS if unknown is patch)
    assert not out.exists()


# A field given a value of the wrong JSON type, with the field's name: a
# numeric field given a JSON string or a bool (int() and float() would read
# "64" as 64 and true as 1) or an integer too large for a double, and a
# string field given a number or a list. The name is the field's dotted
# path in the config.
STRING_FIELDS = ("out", "metric.blend.kind")
NON_NUMBERS = [
    ({"quad": {"n_r": "64"}}, "n_r"),
    ({"quad": {"n_r": 64, "tol": "0.5"}}, "tol"),
    ({"quad": {"n_r": 64, "n_ang": True}}, "n_ang"),
    ({"series": {"tol": "1e-8"}}, "tol"),
    ({"metric": {"l": True}}, "metric.l"),
    ({"metric": {"t": "0.5"}}, "metric.t"),
    ({"metric": {"blend": {"r_in": "2"}}}, "r_in"),
    ({"instanton": {"channels": [{"lam": "0.3", "mcharge": 1.0}]}}, "lam"),
    ({"instanton": {"channels": [{"lam": 0.3, "mcharge": "1"}]}},
     "mcharge"),
    ({"instanton": {"channels": [{"lam": 0.3, "chern": True}]}}, "chern"),
    ({"seed": "7"}, "seed"),
    ({"quad": {"n_r": "64"}}, "quad.n_r"),
    ({"metric": {"blend": {"r_out": "4"}}}, "metric.blend.r_out"),
    ({"instanton": {"channels": [{"lam": 0.3}, {"lam": 0.6},
                                 {"lam": 0.1, "chern": "1"}]}},
     "instanton.channels[2].chern"),
    ({"mode": "pontryagin", "sweep": [64, "128"]}, "sweep[1]"),
    ({"quad": {"r_max": 10**400}}, "quad.r_max"),
    ({"quad": {"n_r": 10**400}}, "quad.n_r"),
    ({"instanton": {"channels": [{"lam": 10**400}]}},
     "instanton.channels[0].lam"),
    ({"seed": 10**400}, "seed"),
    ({"mode": "pontryagin", "sweep": [64, 10**400]}, "sweep[1]"),
    ({"out": 5}, "out"),
    ({"metric": {"blend": {"kind": ["septic"]}}}, "metric.blend.kind"),
]


@pytest.mark.parametrize("patch, field", NON_NUMBERS)
def test_non_number_rejected(tmp_path, capsys, patch, field):
    cfg = write_config(tmp_path, dict(INDEX_CONFIG, **patch))
    out = tmp_path / "out"
    # --out overrides the config's out, which is then not read
    args = [] if "out" in patch else ["--out", str(out)]
    assert main(["--config", cfg, *args]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    kind = "a string" if field in STRING_FIELDS else "a number"
    assert f"{field} must be {kind}" in err["message"]
    assert not out.exists()


def test_string_numbers_rejected_in_sweep_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "mode": "pontryagin", "quad": {"n_r": "64", "tol": "0.5"},
        "sweep": ["64"], "metric": {"l": True}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
    assert not out.exists()


# A document that exits 3 without flags exits 3 with the flags that
# replace its invalid values, and the message names the document's field:
# a flag overrides a valid value only. OUT stands for a fresh directory.
FLAG_OVERRIDES = [
    ({"mode": 5}, ["--mode", "index"], "mode"),
    ({"mode": "indx"}, ["--mode", "index"], "mode"),
    ({"route": 5}, ["--route", "bernoulli"], "route"),
    ({"route": "all"}, ["--route", "bernoulli"], "route"),
    ({"grav": [1]}, ["--grav", "lemma"], "grav"),
    ({"grav": "Lemma"}, ["--grav", "numeric"], "grav"),
    ({"out": 5}, ["--out", "OUT"], "out"),
    ({"mode": "eta", "route": 5, "grav": [1], "out": 5, "lambdas": [0.3]},
     ["--route", "bernoulli", "--grav", "lemma", "--out", "OUT"], "out"),
    ({"mode": "eta", "route": 5, "lambdas": [0.3]},
     ["--mode", "index", "--route", "bernoulli"], "route"),
]


@pytest.mark.parametrize("patch, flags, field", FLAG_OVERRIDES)
def test_flags_never_make_a_document_valid(tmp_path, capsys, monkeypatch,
                                           patch, flags, field):
    monkeypatch.chdir(tmp_path)  # the default out, should a run pass
    cfg = write_config(tmp_path, dict(INDEX_CONFIG, **patch))
    out = tmp_path / "out"
    for args in ([], [str(out) if a == "OUT" else a for a in flags]):
        assert main(["--config", cfg, *args]) == EXIT_VALIDATION, args
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(f"{field} must be "), args
    assert not out.exists()


@pytest.mark.parametrize("args, route", [([], "all"), (["--route", "all"],
                                                       "bernoulli")])
def test_route_all_rejected_in_index_mode(tmp_path, capsys, args, route):
    """'all' evaluates the three routes in eta mode; an index report takes
    one route, so there 'all' is a validation failure, from the config or
    the flag."""
    cfg = write_config(tmp_path, dict(INDEX_CONFIG, route=route))
    out = tmp_path / "out"
    assert main(["--config", cfg, *args, "--out", str(out)]) \
        == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "route" in err["message"]
    assert not out.exists()


def test_integral_float_fields_accepted(tmp_path):
    """An integer field given as an integral float, such as n_r 64.0, runs
    as that integer and writes the same report."""
    as_float, as_int = tmp_path / "float", tmp_path / "int"
    floats = dict(INDEX_CONFIG, quad={"n_r": 64.0}, seed=7.0)
    assert main(["--config", write_config(tmp_path, floats),
                 "--out", str(as_float)]) == EXIT_OK
    assert main(["--config", write_config(tmp_path, INDEX_CONFIG),
                 "--out", str(as_int)]) == EXIT_OK
    assert (as_float / "index_report.json").read_bytes() == \
        (as_int / "index_report.json").read_bytes()


@pytest.mark.parametrize("args", [
    ["--mode", "pontryagin"], ["--mode", "convergence"],
    ["--mode", "index", "--grav", "numeric"]])
def test_blend_past_r_max_rejected(tmp_path, capsys, args):
    """The README requires r_max beyond the blend: r_out 100 against the
    default r_max 80 is a validation failure, not a traceback."""
    cfg = write_config(tmp_path, dict(INDEX_CONFIG,
                                      metric={"blend": {"r_out": 100}}))
    out = tmp_path / "out"
    assert main(["--config", cfg, *args, "--out", str(out)]) \
        == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "r_out" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("channel", [
    {"lam": float("nan"), "mcharge": 1.0},
    {"lam": 0.3, "mcharge": float("inf")}])
def test_non_finite_channel_rejected(tmp_path, capsys, channel):
    cfg = write_config(tmp_path, dict(INDEX_CONFIG,
                                      instanton={"channels": [channel]}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    # stderr holds the error object alone, no numpy warnings
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "finite" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("channels", [
    [[1, 2]], [{"lam": 0.3}, {"mcharge": 1.0, "chern": 1}]])
def test_malformed_channel_rejected(tmp_path, capsys, channels):
    """A channel that is not an object, or has no lam, is named by its
    place in the config, not described in Python's words."""
    cfg = write_config(tmp_path, dict(INDEX_CONFIG,
                                      instanton={"channels": channels}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    where = f"instanton.channels[{len(channels) - 1}]"
    assert f"{where} must be a JSON object with a 'lam'" in err["message"]
    assert not out.exists()


def test_numerical_failure_exit(tmp_path, capsys):
    # genericity violation surfaces as a numerical-domain failure (exit 1)
    cfg = write_config(tmp_path, {
        "mode": "index", "grav": "lemma",
        "instanton": {"channels": [{"lam": 1.0, "mcharge": 0.0}]},
        "quad": {"n_r": 64}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GenericityError"


SWEEP = {"sweep": [32, 64, 128]}
ISOTROPY_CHECKED = {
    "pontryagin": SWEEP, "convergence": SWEEP,
    "index": {"grav": "lemma",
              "instanton": {"channels": [{"lam": 0.3, "mcharge": 1.0}]}}}


@pytest.mark.parametrize("mode", ["pontryagin", "convergence", "index"])
def test_isotropy_violation_exits_numerical(tmp_path, capsys, mode):
    """The one isotropy check of a sweep, and of the bulk in index mode
    with lemma gravity, still fires: a deliberately tight quad.tol flags
    the angular spread before any report is written."""
    cfg = write_config(tmp_path, {"mode": mode, "quad": {"tol": 1e-16},
                                  **ISOTROPY_CHECKED[mode]})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IsotropyError"
    assert list(out.iterdir()) == []


def bulk_document(tmp_path, mcharge):
    return write_config(tmp_path, {
        "mode": "index", "grav": "lemma",
        "instanton": {"channels": [{"lam": 0.3, "mcharge": mcharge}]}})


@pytest.mark.parametrize("mcharge", [1e153, 1e200])
def test_bulk_overflow_exits_with_convergence_error(tmp_path, capsys,
                                                    mcharge):
    """A charge whose bulk density overflows exits 1 with the typed
    ConvergenceError JSON and its history, and writes no report."""
    out = tmp_path / "out"
    assert main(["--config", bulk_document(tmp_path, mcharge),
                 "--out", str(out)]) == EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConvergenceError"
    assert [n for n, _ in err["history"]] == [128, 256]
    assert list(out.iterdir()) == []


def test_overflow_failure_stderr_is_one_json_document(tmp_path):
    """In a fresh interpreter, where numpy would print its warnings, the
    overflowing charge exits 1 with stderr holding the failure JSON and
    nothing else."""
    src = str(Path(tnindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "tnindex.cli", "--config",
         bulk_document(tmp_path, 1e200), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_NUMERICAL
    err = json.loads(done.stderr)
    assert err["error"] == "ConvergenceError"
    assert err["history"] == [[128, None], [256, None]]


@pytest.mark.parametrize("mcharge", [1e150, 1e-160, 5.6e-161])
def test_bulk_extreme_charges_meet_the_closed_form(tmp_path, mcharge):
    """A charge near the overflow edge, or one whose bulk is subnormal
    roundoff away from the lam term, still meets the closed form within
    errors.bulk."""
    out = tmp_path / "out"
    assert main(["--config", bulk_document(tmp_path, mcharge),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "index_report.json").read_text())
    exact = bulk_action_closed_form(
        InstantonData([InstantonChannel(0.3, mcharge)]))
    assert abs(report["bulk"] - exact) <= report["errors"]["bulk"]


def test_pontryagin_miss_emits_error_and_keeps_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "pontryagin",
                                  "metric": {"variant": "ExactD"},
                                  "quad": {"n_r": 32}, "sweep": [16, 32]})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConvergenceError"
    assert "1/12" in err["message"]
    lines = (out / "pontryagin_convergence.csv").read_text().splitlines()
    assert len(lines) == 3
    # the failure JSON carries the sweep rows (N_r, value, error, tail)
    assert [row[0] for row in err["history"]] == [16, 32]
    for row, line in zip(err["history"], lines[1:]):
        assert [repr(x) for x in row] == line.split(",")


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("mode", ["pontryagin", "convergence"])
@pytest.mark.parametrize("variant, ends", [("ExactD", ["r_min"]),
                                           ("TN", ["r_min", "r_max"])])
def test_non_finite_end_is_a_typed_failure(tmp_path, capsys, mode, variant,
                                           ends):
    """At l = 1e160 chern_simons overflows to NaN at the named ends: the
    sweep exits 1 before it writes a CSV, and its failure JSON holds no
    NaN token."""
    cfg = write_config(tmp_path, {"mode": mode, "sweep": [16, 32, 64],
                                  "metric": {"variant": variant, "l": 1e160}})
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert list(out.iterdir()) == []
    err = json.loads(capsys.readouterr().err.splitlines()[-1],
                     parse_constant=_reject_constant)
    assert err["error"] == "ConvergenceError"
    for end in ("r_min", "r_max"):
        assert (f"P({end})" in err["message"]) == (end in ends)
    assert [p is None for _, p in err["history"]] == [
        end in ends for end in ("r_min", "r_max")]


def test_underflowing_r_min_fails_before_any_curvature(tmp_path, capsys,
                                                      monkeypatch):
    """At r_min = 1e-80, r^4 underflows to zero under a finite u^2 and
    P(r_min) is infinite: the sweep exits 1 with the ends as its history,
    writes no CSV, and stops before the curvature kernel runs at all."""
    calls = []
    monkeypatch.setattr(geometry, "curvature_forms",
                        lambda *args: calls.append(args))
    cfg = write_config(tmp_path, {"mode": "pontryagin",
                                  "quad": {"r_min": 1e-80}})
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert list(out.iterdir()) == []
    assert calls == []
    err = json.loads(capsys.readouterr().err.splitlines()[-1],
                     parse_constant=_reject_constant)
    assert err["error"] == "ConvergenceError"
    assert err["message"] == "Chern-Simons end not finite: P(r_min) = inf"
    [(r_min, p_min), (r_max, p_max)] = err["history"]
    assert (r_min, p_min, r_max) == (1e-80, None, 80.0)
    assert p_max == pytest.approx(1.0 / 6.0, abs=1e-3)


def test_non_finite_history_is_written_as_null(capsys):
    cli._emit_error("ConvergenceError", "radial integral is not finite",
                    [(16, float("nan")), (32, float("inf"))])
    err = json.loads(capsys.readouterr().err, parse_constant=_reject_constant)
    assert err["history"] == [[16, None], [32, None]]


def test_eta_route_evaluates_only_that_route(tmp_path, monkeypatch):
    """--route bernoulli evaluates Bernoulli alone: the mode sum is never
    called, and at lambda = 1e-5 Poisson, which would refuse, is not
    either."""
    calls = []
    monkeypatch.setattr(eta, "eta_mode_sum",
                        lambda *args: calls.append(args))
    cfg = write_config(tmp_path, {"mode": "eta", "lambdas": [1e-5]})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--route", "bernoulli",
                 "--out", str(out)]) == EXIT_OK
    assert calls == []
    lines = (out / "eta_routes.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["bernoulli"]


@pytest.mark.parametrize("payload, args", [
    ({"mode": "eta", "lambdas": [0.01]}, ["--route", "poisson"]),
    (dict(INDEX_CONFIG, instanton={"channels": [{"lam": 1e-5}]}),
     ["--route", "poisson"])])
def test_poisson_refusal_exits_numerical(tmp_path, capsys, payload, args):
    """An unresolved Poisson route is a ConvergenceError naming the route,
    not a report within the series tolerance (eta) or a consistency
    failure blamed on the formula (index)."""
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, *args, "--out", str(out)]) \
        == EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConvergenceError"
    assert "poisson route" in err["message"]


@pytest.mark.parametrize("term, grav, route", [
    ("grav", "numeric", "bernoulli"), ("eta", "lemma", "mode_sum")])
def test_consistency_error_names_the_term_that_misses(tmp_path, capsys,
                                                      monkeypatch, term,
                                                      grav, route):
    """A cancellation failure names the term that misses its oracle by
    more than its error, here by 1e-3 against an error of 1e-9, and not
    the formula: numeric grav against rank/12, or the route's eta against
    the Bernoulli eta of the same channels."""
    if term == "grav":
        monkeypatch.setattr(index_module, "pontryagin_integral",
                            lambda spec, quad: (1.0 / 12.0 + 1e-3, 1e-9))
    else:
        def missing_mode_sum(lam):
            exact = eta.eta_bernoulli(lam)
            return eta.FormScalar(exact.a0 + 1e-3, exact.a2, 1e-9)
        monkeypatch.setattr(eta, "eta_mode_sum", missing_mode_sum)
    cfg = write_config(tmp_path, dict(INDEX_CONFIG, grav=grav,
                                      route=route))
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == \
        EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConsistencyError"
    named = {"grav": "grav misses rank/12 by 2.000e-03, beyond its error "
                     "2.000e-09",
             "eta": "the mode_sum eta misses the Bernoulli eta of the same "
                    "channels by"}
    assert named[term] in err["message"]
    other = "eta" if term == "grav" else "grav"
    assert named[other] not in err["message"]
    assert "mistranscribed" not in err["message"]


def test_main_reuses_one_parser_without_leaking_state(tmp_path, capsys,
                                                      monkeypatch):
    """main parses with one parser per process. A run with --tol, a parse
    error, a run without --tol and --help, in that order, each give the
    exit code, report bytes and output of a call on a fresh parser."""
    cfg = write_config(tmp_path, INDEX_CONFIG)
    calls = [["--tol", "1e-2"], ["--tol"], [], ["--help"]]

    def run(side):
        results = []
        for k, args in enumerate(calls):
            out = tmp_path / side / str(k)
            code = main(["--config", cfg, "--out", str(out), *args])
            report = out / "index_report.json"
            results.append((code, report.read_bytes() if report.exists()
                            else None, capsys.readouterr()))
        return results

    assert cli._parser() is cli._parser()
    shared = run("shared")
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert shared == run("fresh")
    assert [code for code, _, _ in shared] == [EXIT_OK, EXIT_PARSE, EXIT_OK,
                                               EXIT_OK]
    assert [json.loads(shared[k][1])["quadrature"]["tol"]
            for k in (0, 2)] == [1e-2, 1e-3]
    assert "usage: tn-index" in shared[3][2].out


def test_geometry_check_failure_emits_error(tmp_path, capsys, monkeypatch):
    # a wrong star3 breaks the d(omega) = *3 dV residual
    monkeypatch.setattr(cli, "star3", lambda v: np.zeros((3, 3)))
    out = tmp_path / "out"
    assert main(["--mode", "geometry-check", "--out", str(out)]) == \
        EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConsistencyError"
    assert "monopole_field_residual" in err["message"]
    lines = (out / "geometry_check.csv").read_text().splitlines()
    assert lines[3].startswith("monopole_field_residual,")
    assert lines[3].endswith(",false")


def test_geometry_check_flux_uses_the_charts(tmp_path, capsys,
                                            monkeypatch):
    # a sign-flipped north chart breaks the flux row and only that row
    factor = geometry._gauge_factor
    monkeypatch.setattr(
        geometry, "_gauge_factor",
        lambda r, x3, rho2, gauge: (-1.0 if gauge is Gauge.NORTH else 1.0)
        * factor(r, x3, rho2, gauge))
    out = tmp_path / "out"
    assert main(["--mode", "geometry-check", "--out", str(out)]) == \
        EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConsistencyError"
    assert err["message"].endswith(": monopole_flux_vs_minus_2pi")
    lines = (out / "geometry_check.csv").read_text().splitlines()
    assert lines[4].startswith("monopole_flux_vs_minus_2pi,")
    assert lines[4].endswith(",false")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS runs one thread on a single CPU, so "
                           "one and two threads cannot differ")
def test_reports_independent_of_blas_threads(tmp_path):
    pont = write_config(tmp_path, {"mode": "pontryagin",
                                   "metric": {"variant": "Homotopy", "t": 0.5},
                                   "quad": {"n_r": 64}, "sweep": [32, 64]},
                        name="pontryagin.json")
    # the mode sum adds its 35 terms with numpy's pairwise sum, and Poisson
    # its up to 27,109 terms with numpy's einsum loops, never a BLAS dot
    eta = write_config(tmp_path, {"mode": "eta", "route": "all"},
                       name="eta.json")
    # a weighted sum of 12,000 radial nodes: OpenBLAS splits a dot of more
    # than 10,000 terms across threads
    index = write_config(tmp_path, dict(INDEX_CONFIG,
                                        quad={"n_r": 12000, "n_ang": 2}),
                         name="index.json")
    src = str(Path(tnindex.__file__).resolve().parents[1])
    for cfg, name in ((pont, "pontryagin_convergence.csv"),
                      (eta, "eta_routes.csv"),
                      (index, "index_report.json")):
        # the one- and two-thread runs of a config go side by side
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{Path(cfg).stem}.threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            runs.append((out, subprocess.Popen(
                [sys.executable, "-m", "tnindex.cli", "--config", cfg,
                 "--out", str(out)], env=env, stderr=subprocess.PIPE)))
        reports = []
        for out, proc in runs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == EXIT_OK, stderr
            reports.append((out / name).read_bytes())
        assert reports[0] == reports[1], name


def test_eta_report_round_trips(tmp_path):
    cfg = write_config(tmp_path, INDEX_CONFIG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    text = (out / "index_report.json").read_text()
    doc = json.loads(text)
    assert {"bulk", "grav", "eta_contribution", "index_value",
            "nearest_integer", "integrality_defect", "errors",
            "quadrature", "series", "route", "grav_mode",
            "schema"} <= set(doc)


CSV_REPORTS = [
    ("eta", {"lambdas": [0.1, 0.6], "route": "all"}, "eta_routes.csv",
     "lambda,route,a0,a2coeff,integrated,error"),
    ("geometry-check", {}, "geometry_check.csv", "check,residual,bound,pass"),
    ("pontryagin", {"sweep": [64, 128]}, "pontryagin_convergence.csv",
     "N_r,value,error_estimate,tail_bound"),
    ("convergence", {"sweep": [64, 100, 128]}, "convergence_sweep.csv",
     "N_r,value,error_estimate,tail_bound"),
]


@pytest.mark.parametrize("mode, payload, name, header", CSV_REPORTS,
                         ids=[report[0] for report in CSV_REPORTS])
def test_csv_report_dialect(tmp_path, mode, payload, name, header):
    """Every CSV report has its header row, LF line endings only with a
    trailing LF, an integer N_r, true/false in pass, and as each float cell
    the repr of the value computed in process."""
    raw = dict(payload, mode=mode)
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, raw),
                 "--out", str(out)]) == EXIT_OK
    text = (out / name).read_bytes().decode()
    assert "\r" not in text and text.endswith("\n")
    first, *lines = text[:-1].split("\n")
    assert first == header
    cells = [line.split(",") for line in lines]
    cfg = cli.load_config(raw, cli.build_parser().parse_args([]))
    if mode == "geometry-check":
        assert [row[2:] for row in cells] == [
            [repr(bound), "true"] for bound in (1e-6, 1e-12, 1e-8, 1e-6)]
        assert all(repr(float(row[1])) == row[1] for row in cells)
        return
    if mode == "eta":
        rows = route_table(cfg["lambdas"], cfg["series"], ROUTES)
    else:
        rows = convergence_table(cfg["metric"], cfg["quad"], cfg["sweep"])
        assert [row[0] for row in cells] == [str(n) for n in cfg["sweep"]]
    assert cells == [[str(x) if isinstance(x, (str, int)) else repr(float(x))
                      for x in row] for row in rows]
