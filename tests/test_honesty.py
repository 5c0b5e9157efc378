"""bench/honesty.py: the Pontryagin honesty scan holds every README-grid
row within its error and tail bound of 1/12, grids that drop the blend
knots show up in it, and every bulk draw meets its closed form within its
error."""

import json
from pathlib import Path

import honesty
import pytest

from tnindex import charclasses
from tnindex.errors import ConvergenceError
from tnindex.quadrature import QuadratureSpec

ROOT = Path(__file__).resolve().parents[1]

# (variant, blend, l, n_r) of the scan rows that miss 1/12 by more than
# error + tail_bound on grids whose panels straddle the blend knots.
UNKNOTTED_DISHONEST = {
    ("Homotopy", "septic", 0.2, 256), ("ExactD", "septic", 0.2, 256),
    ("ExactD", "quintic", 6.0, 256), ("Homotopy", "quintic", 6.0, 256),
    ("Homotopy", "quintic", 0.01, 128), ("Homotopy", "quintic", 0.001, 128),
    ("ExactD", "septic", 100.0, 128), ("Homotopy", "septic", 100.0, 128),
    ("ExactD", "quintic", 0.001, 128), ("Homotopy", "quintic", 3.0, 64),
    ("ExactD", "quintic", 3.0, 64), ("Homotopy", "septic", 6.0, 64),
    ("ExactD", "septic", 6.0, 64)}


def dishonest(rows):
    return {(row["variant"], row["blend"], row["l"], row["n_r"])
            for row in rows if row["ratio"] > 1.0}


def scan():
    return honesty.scan_rows(honesty._configs()["scan"])


def test_every_scan_row_is_honest():
    """All 216 rows of the scan are sampled, none fails, none is above
    ratio 1, no n_r 256 row misses 1/12 by more than quad.tol, and every
    n_r 256 row's error + tail_bound is within quad.tol, so both sweep
    modes, whose verdict reads the last row's miss against that budget
    and the budget against quad.tol, pass every scan configuration."""
    rows, failures = scan()
    assert failures == [] and len(rows) == 216
    assert dishonest(rows) == set()
    assert not any(row["fails_tol"] for row in rows)
    quad = QuadratureSpec()
    assert all(row["error"] + row["tail_bound"] <= quad.tol
               for row in rows if row["n_r"] == quad.n_r)


def test_grids_without_knots_show_above_one(monkeypatch):
    """A density_knots that drops the blend knots brings back the 13 rows
    whose panels straddle them, above ratio 1."""
    monkeypatch.setattr(charclasses, "density_knots", lambda spec: ())
    rows, _ = scan()
    assert dishonest(rows) == UNKNOTTED_DISHONEST


def test_a_section_whose_sweeps_all_fail_lists_its_failures(monkeypatch):
    """With no row, the worst ratio is None and every failure is listed."""
    def failing(*args):
        raise ConvergenceError("no sweep")

    monkeypatch.setattr(charclasses, "convergence_table", failing)
    section = honesty.summarize(*honesty.scan_rows(
        honesty._configs()["scan"][:3]))
    assert section["rows"] == 0
    assert section["worst"] is None and section["worst_honest_ratio"] is None
    assert [f["error"] for f in section["failed"]] == ["ConvergenceError"] * 3


def test_honesty_file_schema(tmp_path):
    """One side at the full draw count: every section carries its row
    count, worst ratio with its configuration, the median and the largest
    miss of its last rows with the configuration of the largest, the rows
    above 1 and above quad.tol, its failures and its digest; moved is
    empty."""
    out = tmp_path / "honesty.json"
    assert honesty.main(["--side", f"here={ROOT}", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["moved"] == []
    assert doc["config"]["draws"]["count"] == honesty.DRAWS
    side = doc["sides"]["here"]
    assert {"commit", "dirty", "scan", "draws", "bulk"} <= set(side)
    for name, rows, per in (("scan", 216, 3), ("draws", 3 * honesty.DRAWS, 3),
                            ("bulk", honesty.BULK_DRAWS, 1)):
        section = side[name]
        assert set(section) == {"rows", "worst", "last_miss_median",
                                "last_miss_max", "worst_honest_ratio",
                                "above_1", "above_tol", "failed", "digest"}
        assert section["rows"] == rows - per * len(section["failed"])
        assert section["worst"]["ratio"] >= section["worst_honest_ratio"]
        assert all(row["ratio"] > 1.0 for row in section["above_1"])
        farthest = section["last_miss_max"]
        assert set(farthest) == set(section["worst"]) - {"ratio"} | {"miss"}
        assert 0.0 <= section["last_miss_median"] <= farthest["miss"]
    assert side["scan"]["above_1"] == side["draws"]["above_1"] == []
    for name in ("scan", "draws"):
        assert side[name]["last_miss_max"]["n_r"] == QuadratureSpec().n_r
        assert side[name]["last_miss_max"]["miss"] <= QuadratureSpec().tol
    assert side["bulk"]["above_1"] == side["bulk"]["failed"] == []


def test_miss_fields_read_the_last_rows_only():
    """The median and the largest miss come from the rows that last
    picks, the quad.n_r rows of a sweep by default, every row of the bulk;
    the largest carries its configuration.  A section without a last row
    records None for both."""
    rows = [dict(variant="ExactD", blend="septic", l=l, t=0.6, r_max=80.0,
                 n_ang=8, n_r=n_r, miss=miss, ratio=0.5, fails_tol=False)
            for l, n_r, miss in ((1.0, 128, 9.0), (1.0, 256, 1.0),
                                 (2.0, 256, 3.0), (3.0, 256, 2.0))]
    section = honesty.summarize(rows, [])
    assert section["last_miss_median"] == 2.0
    assert section["last_miss_max"] == dict(
        variant="ExactD", blend="septic", l=2.0, t=0.6, r_max=80.0, n_ang=8,
        n_r=256, miss=3.0)
    everything = honesty.summarize(rows, [], last=lambda row: True)
    assert everything["last_miss_median"] == 2.5
    assert everything["last_miss_max"]["miss"] == 9.0
    assert honesty.summarize(rows[:1], [])["last_miss_max"] is None
    assert honesty.summarize(rows[:1], [])["last_miss_median"] is None


def test_bulk_draws_cover_every_rank_and_kind():
    """The bulk section draws every rank 1..4 and every kind: lam = m
    exactly, lam within 1e-12 to 1e-2 of m, and lam and m apart, with l
    and n_r in their ranges."""
    configs = honesty._bulk_configs()
    assert len(configs) == honesty.BULK_DRAWS
    assert {len(cfg["channels"]) for cfg in configs} == {1, 2, 3, 4}
    assert {cfg["kind"] for cfg in configs} == set(honesty.BULK_KINDS)
    for cfg in configs:
        gaps = [abs(lam - m) for lam, m in cfg["channels"]]
        if cfg["kind"] == "equal":
            assert gaps == [0.0] * len(gaps)
        elif cfg["kind"] == "near":
            assert all(0.0 < gap <= 1.01e-2 for gap in gaps)
        assert 16 <= cfg["n_r"] <= 256 and 1e-3 <= cfg["l"] <= 1e3


def test_moved_lists_the_sections_whose_rows_differ():
    same = {name: {"digest": "0" * 64} for name in ("scan", "draws")}
    assert honesty.collect.moved({"parent": same, "change": dict(same)}) \
        == []
    other = dict(same, draws={"digest": "1" * 64})
    assert honesty.collect.moved({"parent": same, "change": other}) \
        == ["draws"]


def test_honesty_rejects_a_side_without_a_path():
    with pytest.raises(SystemExit):
        honesty.main(["--side", "parent", "--out", "unused.json"])
