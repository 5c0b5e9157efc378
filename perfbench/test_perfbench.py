"""Tests of the benchmark itself: the result schema, the oracle checks, exact
counts and the refusal to run without the program.

    python3 -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
import time

import pytest

import run

run.import_program()
import workloads  # noqa: E402  (needs tnindex on the path)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name, trace, seed=3):
    return run.run_workload(name, seed, 0, trace, tiny=True, setup_reps=1)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_schema(name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = _tiny(name, trace)
        line = json.loads(json.dumps(run.final_line(result)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert isinstance(line["attempted"], int) and line["attempted"] >= 2
        assert {n: m["unit"] for n, m in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in BENCH[key]}
        assert all(isinstance(m["value"], float)
                   for m in line["metrics"].values())


def test_workload_names_match_benchmark_file():
    assert [w["name"] for w in BENCH["workloads"]] == \
        list(workloads.WORKLOADS)


def test_forced_failure_is_counted():
    near = 1.0 + 5e-7   # closer to an integer than the program accepts
    result = run.run_workload(
        "eta_sweep", 0, 0, False, setup_reps=1,
        blocks=[[{"lambdas": [0.3]}, {"lambdas": [near]}]])
    assert (result["attempted"], result["failed"]) == (3, 1)
    failed = [op for op in result["ops"] if op["problems"]]
    assert failed[0]["exit"] == 1
    assert failed[0]["draw"] == {"lambdas": [near]}
    assert result["metrics"]["fail_frac"][0] == pytest.approx(1 / 3)
    # a typed refusal is a failure, not a wrong answer
    assert result["correct"] is True


def test_op_counts_do_not_depend_on_seed_or_host_speed():
    # 2 s is four eta blocks: three regular draws and one near an integer
    # each, and the repeated first op, a regular draw.
    for seed in (1, 2):
        result = run.run_workload("eta_sweep", seed, 2, False, setup_reps=1)
        assert (result["blocks"], result["attempted"], result["failed"]) \
            == (4, 17, 4)
    assert workloads.WORKLOADS["grav_sweep"].blocks_for(0) == 1


@pytest.mark.parametrize("name", ["grav_sweep", "index_bulk", "eta_sweep"])
def test_counts_repeat_exactly(name):
    def counts():
        result = _tiny(name, True, seed=5)
        exact = {k: v for k, (v, unit) in result["layers"].items()
                 if unit.startswith("count")}
        for k in ("fail_frac", "err_digits_p50"):
            exact[k] = result["metrics"][k][0]
        return exact

    first = counts()
    assert any(first.values())
    assert counts() == first


def test_same_seed_same_draws():
    rng_a, rng_b = random.Random(11), random.Random(11)
    for w in workloads.WORKLOADS.values():
        assert w.block(rng_a, 0, False) == w.block(rng_b, 0, False)


GRAV_OK = b"N_r,value,error_estimate,tail_bound\n64,0.0834,0.0002,0.0\n"
ETA_OK = (b"lambda,route,a0,a2coeff,integrated,error\n"
          b"0.3,mode_sum,-0.2,-0.04333333333,-0.021666666665,1e-08\n"
          b"0.3,poisson,-0.2,-0.04333333333,-0.021666666665,1e-08\n"
          b"0.3,bernoulli,-0.2,-0.043333333333333335,-0.021666666666666667,"
          b"0.0\n")


@pytest.mark.parametrize("name,cfg,good,bad", [
    ("grav_sweep", {"sweep": [64]}, GRAV_OK,
     [GRAV_OK.replace(b"\n", b"\r\n"), GRAV_OK.replace(b"0.0834", b"nan"),
      GRAV_OK.replace(b"0.0834", b"0.0837"), GRAV_OK.replace(b"N_r", b"n"),
      GRAV_OK.replace(b"0.0834", b"0;0834")]),
    ("eta_sweep", {"lambdas": [0.3]}, ETA_OK,
     [ETA_OK.replace(b"mode_sum,-0.2,", b"mode_sum,-0.2001,"),
      ETA_OK.replace(b"poisson,", b"bernoulli,"),
      ETA_OK.replace(b"-0.021666666666666667", b"inf")]),
])
def test_checks_reject_broken_outputs(name, cfg, good, bad):
    check = workloads.WORKLOADS[name].check
    assert check(cfg, good).problems == []
    for data in bad:
        assert check(cfg, data).problems, data


def test_repeat_must_write_the_same_bytes(tmp_path):
    runner = run.Runner(None, workloads.WORKLOADS["grav_sweep"], None,
                        tmp_path, None)
    report = tmp_path / "pontryagin_convergence.csv"
    report.write_bytes(GRAV_OK)
    runner.first_output = GRAV_OK.replace(b"0.0002", b"0.00021")
    op = run.Op(4, {"sweep": [64]}, 0.0, 0, False)
    runner._check(op, report, repeat=True)
    assert op.problems and op.wrong


def test_index_check_uses_closed_form():
    cfg = {"instanton": {"channels": [{"lam": 0.3, "mcharge": 1.0,
                                       "chern": -1}]}}
    data = workloads.InstantonData([workloads.InstantonChannel(0.3, 1.0, -1)])
    exact = workloads.index_formula(
        data, workloads.bulk_action_closed_form(data))
    report = {"schema": "index-report/1", "bulk": 0.0, "grav": 0.0,
              "eta_contribution": 0.0, "index_value": exact + 0.01,
              "nearest_integer": 0, "integrality_defect": 0.0,
              "route": "bernoulli", "grav_mode": "lemma",
              "errors": {"bulk": 0.02, "grav": 0.0, "eta": 0.0,
                         "cancellation_residual": 0.0},
              "quadrature": {}, "series": {}}
    check = workloads.WORKLOADS["index_bulk"].check

    def encode(obj):
        return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()

    assert check(cfg, encode(report)).problems == []
    report["errors"]["bulk"] = 0.005
    assert check(cfg, encode(report)).problems
    assert check(cfg, encode(report).replace(b"0.005", b"NaN")).problems


def test_tail_needs_ten_ops_beyond():
    assert run.tail([1.0] * 10) is None
    value, level = run.tail([float(i) for i in range(20)])
    assert value == 9.0 and level == 50.0


def test_refuses_without_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eta_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sampler_runs_only_within_long_ops():
    with run.Sampler(lambda: sum(range(1000))) as sampler:
        time.sleep(2 * run.SAMPLE_PERIOD_S)
        assert sampler.samples == []        # no op running
        sampler.op_start = time.perf_counter() - run.SAMPLE_AFTER_S
        time.sleep(3.5 * run.SAMPLE_PERIOD_S)
        sampler.op_start = None
        taken = len(sampler.samples)
        time.sleep(2 * run.SAMPLE_PERIOD_S)
    assert taken >= 2 and len(sampler.samples) == taken
    assert not sampler._thread.is_alive()
    assert sampler.within(0.0, time.perf_counter()) == \
        [s for _, s in sampler.samples]
