"""bench/collect.py drives the CLI with the README configuration and the
mode arguments it lists, both of which must stay valid for the CLI, and
times the geometry kernels it names; those names, and the argument that
perfbench's tracer reads, must hold in geometry."""

import hashlib
import json
import sys
from pathlib import Path

import collect
import honesty
import numpy as np
import pytest
import reach

from tnindex import charclasses, cli, eta, geometry
from tnindex.quadrature import QuadratureSpec, sweep_grids

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mode", sorted(collect.MODES))
def test_collect_modes_load_the_readme_config(mode):
    args = cli.build_parser().parse_args(collect.MODES[mode])
    cfg = cli.load_config(collect.readme_config(ROOT), args)
    assert cfg["mode"] == args.mode


def test_collect_rejects_a_side_without_a_path():
    with pytest.raises(SystemExit):
        collect.main(["--side", "parent", "--out", "unused.json"])


def test_bench_scripts_take_only_a_side_and_an_out(capsys):
    """Rounds, sweeps per round, the honesty child and the reach seed are
    not options."""
    for main, option in ((collect.main, "--repeat"), (collect.main, "--inner"),
                         (honesty.main, "--child"), (reach.main, "--seed")):
        with pytest.raises(SystemExit, match="^2$"):
            main(["--side", "parent", "--out", "unused.json", option])
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_collect_wraps_names_that_geometry_has():
    """A renamed kernel would read as absent, its time or its count
    silently gone."""
    for name in (*collect.KERNEL_SITES, *collect.COUNTED_SITES):
        assert callable(getattr(geometry, name, None)), name


def test_metric_jet_arrays_takes_the_points_second(monkeypatch):
    """A wrapper of geometry._metric_jet_arrays that reads len(args[1])
    once the call ends, as perfbench's tracer does, counts the points each
    path evaluates: the chunks of a README sweep, curvature_batch,
    curvature_at with method "jet" and curvature_forms without jets."""
    points, kernel = [], geometry._metric_jet_arrays

    def traced(*args, **kwargs):
        try:
            return kernel(*args, **kwargs)
        finally:
            points.append(len(args[1]))

    monkeypatch.setattr(geometry, "_metric_jet_arrays", traced)
    spec = geometry.MetricSpec(variant=geometry.Variant.HOMOTOPY, t=0.6)
    quad = QuadratureSpec()
    charclasses.convergence_table(spec, quad, [64, 128, 256])
    assert points == [352, 352]
    assert sum(points) == len(sweep_grids(quad, [64, 128, 256]).points)
    xyz = np.outer(np.geomspace(0.1, 10.0, 5), [0.6, -0.3, 0.74])
    for call, expect in [
            (lambda: geometry.curvature_batch(spec, xyz), 5),
            (lambda: geometry.curvature_at(spec, geometry.Point(*xyz[0])), 1),
            (lambda: geometry.curvature_forms(spec, xyz[:3]), 3)]:
        points.clear()
        call()
        assert points == [expect]


@pytest.fixture(scope="module")
def readme_child(tmp_path_factory):
    """One IN_PROCESS child on the README config: 2 sweeps, the kernel
    sites and a site that geometry lacks."""
    tmp = tmp_path_factory.mktemp("child")
    config = tmp / "config.json"
    config.write_text(json.dumps(collect.readme_config(ROOT)))
    return collect.run_child(ROOT, ["-c", collect.IN_PROCESS, str(config),
                                    "2", *collect.KERNEL_SITES,
                                    "_no_such_kernel"], tmp)


def test_in_process_child_reads_a_missing_site_as_absent(readme_child):
    """A timed site that geometry lacks leaves no key; the counts show
    the README sweep's one radial pass and two curvature chunks."""
    assert set(readme_child) == {
        *collect.KERNEL_SITES, "convergence_table",
        "convergence_table_minflt", "convergence_table_stime",
        "convergence_table_radial_coeffs_calls",
        "convergence_table_curvature_forms_calls", "bulk_action",
        "bulk_action_first", "load_config",
        *(f"eta_{route}_per_lambda" for route in eta.ROUTES)}
    assert readme_child["convergence_table_radial_coeffs_calls"] == 1
    assert readme_child["convergence_table_curvature_forms_calls"] == 2


def test_in_process_child_times_each_eta_route_per_lambda(readme_child):
    """One time per lambda for each eta route the checkout has, in
    seconds: positive, and far below a second."""
    assert len(collect.readme_config(ROOT)["lambdas"]) == 5
    for route in eta.ROUTES:
        assert 0.0 < readme_child[f"eta_{route}_per_lambda"] < 0.05, route


def test_in_process_child_times_the_bulk_action(readme_child):
    """The first bulk_action call of a fresh child and the best later call
    on the README channels and quadrature, in seconds: positive, and far
    below a second."""
    assert collect.readme_config(ROOT)["instanton"]["channels"]
    for key in ("bulk_action_first", "bulk_action"):
        assert 0.0 < readme_child[key] < 0.5, key


def test_in_process_main_child_times_each_mode_per_op(tmp_path):
    """main_<mode> holds the seconds of each of N calls of cli.main in one
    interpreter, and every mode writes its report."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(collect.readme_config(ROOT)))
    times = collect.run_child(ROOT, [
        "-c", collect.IN_PROCESS_MAIN, str(config), str(tmp_path / "main"),
        "2", json.dumps(collect.MODES)], tmp_path)
    assert set(times) == {f"main_{mode}" for mode in collect.MODES}
    for mode in collect.MODES:
        assert len(times[f"main_{mode}"]) == 2, mode
        assert all(0.0 < t < 5.0 for t in times[f"main_{mode}"]), mode
        assert collect.report_digests(tmp_path / "main" / mode), mode


def test_a_failing_child_raises_with_its_exit_code_and_stderr():
    with pytest.raises(RuntimeError, match="^child exited 1: boom$"):
        collect.run_child(ROOT, ["-c", "import sys; sys.exit('boom')"])


def test_a_failing_main_child_names_its_mode(tmp_path):
    """cli.main's own failure JSON and the child's exit message reach the
    error, not the child's program."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"metric": {"l": 1e160}}))
    modes = {"geometry_check": collect.MODES["geometry_check"]}
    with pytest.raises(RuntimeError) as failed:
        collect.run_child(ROOT, ["-c", collect.IN_PROCESS_MAIN, str(config),
                                 str(tmp_path / "main"), "1",
                                 json.dumps(modes)], tmp_path)
    message = str(failed.value)
    assert message.startswith("child exited 1: {\"error\": "
                              "\"DomainError\"")
    assert "metric determinant is not finite" in message
    assert message.endswith("cli.main exited 1 in mode geometry_check")
    assert "import json" not in message


def test_a_failing_wall_run_raises_with_the_failure_json(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"metric": {"l": 1e160}}))
    argv = [sys.executable, "-m", "tnindex.cli", "--config", str(config),
            "--out", str(tmp_path / "out"), *collect.MODES["geometry_check"]]
    with pytest.raises(RuntimeError) as failed:
        collect.wall(argv, collect.child_env(ROOT), tmp_path)
    code, _, stderr = str(failed.value).partition(": ")
    assert code == "child exited 1"
    assert json.loads(stderr) == {
        "error": "DomainError",
        "message": "metric determinant is not finite: inf"}


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


def test_source_lines_count_lines_and_code_lines(tmp_path):
    """src_lines counts every line as wc -l does; src_code_lines leaves out
    blank lines, comments and the docstrings of the module, its classes
    and its functions, but keeps any other string."""
    (tmp_path / "a.py").write_text(
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "def f():\n"
        '    """One line."""\n'
        '    return """not\n'
        'a docstring"""\n')
    (tmp_path / "b.py").write_text(
        "class C:\n"
        '    """Class\n'
        '    docstring."""\n'
        "\n"
        "    async def g(self):\n"
        "        pass\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert collect.source_lines(tmp_path) == {"src_lines": 16,
                                              "src_code_lines": 7}
