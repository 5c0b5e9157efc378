"""bench/collect.py drives the CLI with the README configuration and the
mode arguments it lists, both of which must stay valid for the CLI, and
times the geometry kernels it names."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tnindex import cli, eta, geometry

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "collect", ROOT / "bench" / "collect.py")
collect = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(collect)


@pytest.mark.parametrize("mode", sorted(collect.MODES))
def test_collect_modes_load_the_readme_config(mode):
    args = cli.build_parser().parse_args(collect.MODES[mode])
    cfg = cli.load_config(collect.readme_config(ROOT), args)
    assert cfg["mode"] == args.mode


def test_collect_rejects_a_side_without_a_path():
    with pytest.raises(SystemExit):
        collect.main(["--side", "parent", "--out", "unused.json"])


def test_collect_wraps_names_that_geometry_has():
    """A renamed kernel would read as absent, its time silently gone."""
    for name in collect.KERNEL_SITES:
        assert callable(getattr(geometry, name, None)), name


def test_in_process_child_reads_a_missing_site_as_absent(tmp_path):
    """A timed site that geometry lacks leaves no key; the counts show
    the README sweep's one radial pass and two curvature chunks."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(collect.readme_config(ROOT)))
    child = subprocess.run(
        [sys.executable, "-c", collect.IN_PROCESS, str(config), "1",
         *collect.KERNEL_SITES, "_no_such_kernel"],
        env=collect.child_env(ROOT), cwd=tmp_path, check=True,
        capture_output=True, text=True)
    times = json.loads(child.stdout)
    assert set(times) == {
        *collect.KERNEL_SITES, "convergence_table",
        "convergence_table_minflt", "convergence_table_stime",
        "convergence_table_radial_coeffs_calls",
        "convergence_table_curvature_forms_calls", "bulk_action",
        "bulk_action_first", "load_config",
        *(f"eta_{route}_per_lambda" for route in eta.ROUTES)}
    assert times["convergence_table_radial_coeffs_calls"] == 1
    assert times["convergence_table_curvature_forms_calls"] == 2


def test_in_process_child_times_each_eta_route_per_lambda(tmp_path):
    """One time per lambda for each eta route the checkout has, in
    seconds: positive, and far below a second."""
    config = tmp_path / "config.json"
    readme = collect.readme_config(ROOT)
    config.write_text(json.dumps(readme))
    child = subprocess.run(
        [sys.executable, "-c", collect.IN_PROCESS, str(config), "2"],
        env=collect.child_env(ROOT), cwd=tmp_path, check=True,
        capture_output=True, text=True)
    times = json.loads(child.stdout)
    assert len(readme["lambdas"]) == 5
    for route in eta.ROUTES:
        assert 0.0 < times[f"eta_{route}_per_lambda"] < 0.05, route


def test_in_process_child_times_the_bulk_action(tmp_path):
    """The first bulk_action call of a fresh child and the best later call
    on the README channels and quadrature, in seconds: positive, and far
    below a second."""
    config = tmp_path / "config.json"
    readme = collect.readme_config(ROOT)
    config.write_text(json.dumps(readme))
    child = subprocess.run(
        [sys.executable, "-c", collect.IN_PROCESS, str(config), "2"],
        env=collect.child_env(ROOT), cwd=tmp_path, check=True,
        capture_output=True, text=True)
    times = json.loads(child.stdout)
    assert readme["instanton"]["channels"]
    for key in ("bulk_action_first", "bulk_action"):
        assert 0.0 < times[key] < 0.5, key


def test_in_process_main_child_times_each_mode_per_op(tmp_path):
    """main_<mode> holds the seconds of each of N calls of cli.main in one
    interpreter, and every mode writes its report."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(collect.readme_config(ROOT)))
    child = subprocess.run(
        [sys.executable, "-c", collect.IN_PROCESS_MAIN, str(config),
         str(tmp_path / "main"), "2", json.dumps(collect.MODES)],
        env=collect.child_env(ROOT), cwd=tmp_path, check=True,
        capture_output=True, text=True)
    times = json.loads(child.stdout)
    assert set(times) == {f"main_{mode}" for mode in collect.MODES}
    for mode in collect.MODES:
        assert len(times[f"main_{mode}"]) == 2, mode
        assert all(0.0 < t < 5.0 for t in times[f"main_{mode}"]), mode
        assert collect.report_digests(tmp_path / "main" / mode), mode


def test_summary_pools_per_op_times_over_rounds():
    runs = [{"eta_all": 0.3, "main_eta_all": [3.0, 1.0]},
            {"eta_all": 0.2, "main_eta_all": [2.0, 4.0]}]
    assert collect.summary(runs) == {
        "eta_all": {"min_s": 0.2, "median_s": 0.25},
        "main_eta_all": {"min_s": 1.0, "median_s": 2.5}}


def test_summary_keys_page_faults_as_counts():
    runs = [{"convergence_table_minflt": 250},
            {"convergence_table_minflt": 240}]
    assert collect.summary(runs) == {"convergence_table_minflt": {
        "min": 240, "median": 245.0}}


def test_report_digests_hash_every_report(tmp_path):
    """Each report's SHA-256, by file name; moved lists the modes whose
    digests differ between sides."""
    (tmp_path / "b.csv").write_bytes(b"N_r,value\n64,0.5\n")
    (tmp_path / "a.json").write_bytes(b"{}\n")
    digests = collect.report_digests(tmp_path)
    assert digests == {"a.json": hashlib.sha256(b"{}\n").hexdigest(),
                       "b.csv": hashlib.sha256(b"N_r,value\n64,0.5\n")
                       .hexdigest()}
    same = {mode: digests for mode in collect.MODES}
    assert collect.moved({"parent": same, "change": dict(same)}) == []
    other = dict(same, eta_all={"eta_routes.csv": "0" * 64})
    assert collect.moved({"parent": same, "change": other}) == ["eta_all"]
