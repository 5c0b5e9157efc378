"""Seeded, oracle-checked benchmark of the tn-index workflows.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates tn-index configurations from the seed and runs them through
``tnindex.cli.main`` in this one process: a closed loop with one client.
A run does a fixed number of ops, as many as take ``--seconds`` on a 2-core
shared virtual machine, so the ops it attempts and fails repeat exactly for
a seed and ``--seconds`` on any host.
Every output file is checked against the repo's oracles and the README
contract. The run prints a metric table, then one JSON line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The program is imported from ``src/`` of the checkout that holds this file;
without it the benchmark prints no result and exits with code 2. Scratch
files go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
SETUP_REPS = 9
DIGITS_FLOOR = 1e-16
NPROC = len(os.sched_getaffinity(0))
# A thread runs the reference kernel every SAMPLE_PERIOD_S seconds within an
# op that has lasted SAMPLE_AFTER_S; an op that holds at least MIN_SAMPLES of
# these runs is timed against them.
SAMPLE_PERIOD_S = 0.5
SAMPLE_AFTER_S = 1.0
MIN_SAMPLES = 4

# The end-to-end metrics on the last line. op_s_p50, op_s_tail, ops_per_s
# and fail_frac are printed too, but host speed on a shared machine swings by
# up to 2x for seconds at a time, which moves wall times by more than any
# usable bound. op_cost_p50 divides each op's time by that of a fixed numpy
# reference kernel on the same CPU: the mean of its runs during the op, or of
# its runs just before and after a short op.
END_TO_END = {"setup_s": "s", "op_cost_p50": "ref", "err_digits_p50": "digits",
              "peak_rss_mb": "MB"}

# Per-layer metrics read from the outputs, not from the trace.
OUTPUT_ERRORS = {
    "grav_sweep": ("charclasses.grav_abs_err", "charclasses.grav_err_bound"),
    "index_bulk": ("gauge.bulk_abs_err", "gauge.bulk_err_bound"),
}

# A fresh interpreter imports the package and loads the first config; it
# prints its import time once done, and the parent times it until then.
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import tnindex.cli as cli
t1 = time.perf_counter()
with open(sys.argv[2]) as fh:
    cli.load_config(json.load(fh), cli.build_parser().parse_args(sys.argv[3:]))
print(t1 - t0, flush=True)
"""


class ProgramMissing(Exception):
    """The checkout holds no importable tnindex source tree."""


def import_program():
    """Import tnindex from this checkout's ``src/`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import tnindex.cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import tnindex from {SRC}: {exc}") \
            from None
    if SRC.resolve() not in Path(tnindex.cli.__file__).resolve().parents:
        raise ProgramMissing(f"tnindex was imported from "
                             f"{tnindex.cli.__file__}, not from {SRC}")
    return tnindex.cli


def pin_blas_threads():
    """Fix BLAS threads before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "nproc": NPROC,
            "cpus": sorted(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


@dataclass
class Op:
    index: int
    draw: dict
    seconds: float
    exit: int | None
    traced: bool
    ref_s: float = math.nan     # reference kernel time during the op
    problems: list = field(default_factory=list)
    verdict: object = None
    # A wrong op broke the output contract: it exited 0 with a bad output,
    # crashed, or failed without the README error object. A failure the
    # program reports the documented way is failed but not wrong.
    wrong: bool = False

    @property
    def passed(self) -> bool:
        return not self.problems

    @property
    def digits(self) -> float:
        if not self.passed:
            return 0.0
        return -math.log10(max(self.verdict.abs_err, DIGITS_FLOOR))


def _error_json(text: str) -> bool:
    """Whether stderr ends with the README's {"error", "message"} object."""
    lines = text.strip().splitlines()
    try:
        obj = json.loads(lines[-1]) if lines else None
    except ValueError:
        return False
    return isinstance(obj, dict) and {"error", "message"} <= set(obj)


def kernel_seconds(kernel) -> float:
    """CPU seconds the calling thread spends in one run of ``kernel``."""
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


class Sampler:
    """Runs the reference kernel in a thread every ``SAMPLE_PERIOD_S`` once
    the current op has lasted ``SAMPLE_AFTER_S``; shorter ops run alone.

    Host speed switches between levels about 1.6x apart every few seconds,
    each CPU on its own, so a kernel run before and after a 6 s op says
    little about the speed during it. With the process on one CPU the thread
    samples the speed the op runs at."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.op_start = None     # set by the runner while an op runs
        self.samples = []        # (perf_counter after the run, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            start = self.op_start
            if start is None or \
                    time.perf_counter() - start < SAMPLE_AFTER_S:
                continue
            seconds = kernel_seconds(self.kernel)
            self.samples.append((time.perf_counter(), seconds))

    def within(self, start: float, end: float) -> list:
        return [s for t, s in self.samples if start <= t <= end]

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


class Runner:
    """Runs one op: writes the config, calls ``cli.main``, checks the file
    it wrote. The op's time covers the call and the check."""

    def __init__(self, cli, workload, tracer, op_dir: Path, sampler):
        self.cli = cli
        self.workload = workload
        self.tracer = tracer
        self.op_dir = op_dir
        self.sampler = sampler
        self.first_output = None
        self.last_ref = None

    def reference_seconds(self) -> float:
        return kernel_seconds(self.sampler.kernel)

    def config_path(self, draw: dict) -> Path:
        path = self.op_dir / "config.json"
        path.write_text(json.dumps({**draw, "out": str(self.op_dir)}))
        return path

    def op(self, index: int, draw: dict, traced: bool,
           repeat: bool = False) -> Op:
        report = self.op_dir / self.workload.output
        report.unlink(missing_ok=True)
        argv = [*self.workload.argv, "--config", str(self.config_path(draw))]
        if self.last_ref is None:
            self.last_ref = self.reference_seconds()
        stderr = io.StringIO()
        if traced:
            self.tracer.op = index
            self.tracer.install()
        start = self.sampler.op_start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                if traced:
                    code = self.tracer.call("cli.main", self.cli.main, argv)
                else:
                    code = self.cli.main(argv)
        except Exception as exc:  # the loop goes on; the op has failed
            code, crash = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            if traced:
                self.tracer.uninstall()
        op = Op(index, draw, 0.0, code, traced)
        if code == 0:
            self._check(op, report, repeat)
        elif code is None:
            op.problems.append(crash)
            op.wrong = True
        else:
            op.problems.append(f"exit {code}: {stderr.getvalue().strip()}")
            op.wrong = not _error_json(stderr.getvalue())
        end = time.perf_counter()
        self.sampler.op_start = None
        op.seconds = end - start
        after = self.reference_seconds()
        inside = self.sampler.within(start, end)
        op.ref_s = statistics.fmean(inside) if len(inside) >= MIN_SAMPLES \
            else 0.5 * (self.last_ref + after)
        self.last_ref = after
        return op

    def _check(self, op: Op, report: Path, repeat: bool):
        try:
            data = report.read_bytes()
        except OSError as exc:
            op.problems.append(f"no output: {exc}")
        else:
            op.verdict = self.workload.check(op.draw, data)
            op.problems.extend(op.verdict.problems)
            if repeat and self.first_output not in (None, data):
                op.problems.append("output differs from the first op's "
                                   "bytes for the same config")
            if op.index == 0:
                self.first_output = data
        op.wrong = bool(op.problems)


class SetupTimer:
    """Times fresh interpreters until ``import tnindex.cli`` and the first
    ``load_config`` are done. The runs are spread over the timed phase,
    between ops: host speed switches every few seconds, and runs made back
    to back would all see one speed."""

    def __init__(self, cli_argv, draw: dict, op_dir: Path, reps: int):
        config = op_dir / "setup_config.json"
        config.write_text(json.dumps({**draw, "out": str(op_dir)}))
        self.argv = [sys.executable, "-c", SETUP_CHILD, str(SRC),
                     str(config), *cli_argv]
        self.reps = reps
        self.setups, self.imports = [], []

    def due(self, done: float):
        """Run the set-ups whose share of the run has passed; ``done`` is
        the share of the ops already run."""
        while len(self.setups) < self.reps and \
                done >= len(self.setups) / self.reps:
            start = time.perf_counter()
            with subprocess.Popen(self.argv, stdout=subprocess.PIPE,
                                  text=True) as proc:
                line = proc.stdout.readline()
                self.setups.append(time.perf_counter() - start)
                proc.stdout.read()
                if proc.wait(timeout=60) != 0 or not line:
                    raise RuntimeError("set-up interpreter failed")
            self.imports.append(float(line))


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def tail(times: list):
    """(time, percentile level) of the highest percentile with at least ten
    ops beyond it, or None with fewer than eleven ops."""
    n = len(times)
    if n < 11:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, setup_reps: int = SETUP_REPS,
                 blocks=None) -> dict:
    """Run one workload and return its result record. ``blocks`` replaces
    the seeded generator, for tests; ``tiny`` shrinks the quadrature."""
    cli = import_program()
    from tracer import Tracer
    from workloads import WORKLOADS, reference_kernel

    workload = WORKLOADS[name]
    rng = random.Random(seed)
    if blocks is None:
        blocks = [workload.block(rng, i, tiny)
                  for i in range(workload.blocks_for(seconds))]
    # The last op repeats the first config and must write the same bytes.
    draws = [draw for block in blocks for draw in block]
    draws.append(draws[0])
    op_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    op_dir.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    setup = SetupTimer(workload.argv, draws[0], op_dir, setup_reps)

    def traced(index):
        # Two ops in three are traced, the rest give the untraced times the
        # tracing overhead is taken against. A period of three never lines
        # up with the blocks of four draws.
        return trace and index % 3 != 2

    tracer = Tracer()
    ops = []
    start = time.perf_counter()
    with Sampler(reference_kernel) as sampler:
        runner = Runner(cli, workload, tracer, op_dir, sampler)
        for index, draw in enumerate(draws):
            ops.append(runner.op(index, draw, traced(index),
                                 repeat=index == len(draws) - 1))
            setup.due(len(ops) / len(draws))
    wall = time.perf_counter() - start
    load_after = os.getloadavg()

    times = [op.seconds for op in ops]
    passed = [op for op in ops if op.passed]
    metrics = {
        "setup_s": (_median(setup.setups), "s"),
        "op_cost_p50": (_median([op.seconds / op.ref_s for op in ops]),
                        "ref"),
        "op_s_p50": (_median(times), "s"),
        "ref_s_p50": (_median([op.ref_s for op in ops]), "s"),
        "ops_per_s": (len(passed) / sum(times), "1/s"),
        "err_digits_p50": (_median([op.digits for op in ops]), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "fail_frac": ((len(ops) - len(passed)) / len(ops), "ratio"),
    }
    op_tail = tail(times)
    if op_tail is not None:
        metrics["op_s_tail"] = (op_tail[0], "s")

    layers = {}
    if trace:
        with_trace = [op.seconds for op in ops if op.traced]
        without = [op.seconds for op in ops if not op.traced]
        layers = tracer.layer_metrics(len(with_trace))
        layers["cli.import_s"] = (_median(setup.imports), "s")
        layers.update(output_metrics(name, ops))
        layers["trace.overhead_s"] = (
            _median(with_trace) - _median(without) if without else 0.0,
            "s/op")

    env = environment()
    env.update(load_before=load_before, load_after=load_after,
               load_exceeded_nproc=max(load_before[0], load_after[0])
               > NPROC)
    return {
        "workload": name, "seed": seed, "trace": bool(trace),
        "seconds": seconds, "wall_s": wall, "blocks": len(blocks),
        "env": env, "metrics": metrics, "layers": layers,
        "op_s_tail": None if op_tail is None else {
            "value": op_tail[0], "level": op_tail[1], "samples": len(ops)},
        "absent": tracer.absent,
        "attempted": len(ops), "failed": len(ops) - len(passed),
        "correct": not any(op.wrong for op in ops),
        "ops": [{"index": op.index, "draw": op.draw, "seconds": op.seconds,
                 "ref_s": op.ref_s, "digits": op.digits, "exit": op.exit,
                 "traced": op.traced,
                 "problems": op.problems} for op in ops],
        "spans": tracer.span_records(),
    }


def output_metrics(name: str, ops: list) -> dict:
    """Per-layer error figures taken from the checked outputs."""
    verdicts = [op.verdict for op in ops if op.verdict is not None]
    out = {metric: (0.0, "abs") for pair in OUTPUT_ERRORS.values()
           for metric in pair}
    if name in OUTPUT_ERRORS:
        err, bound = OUTPUT_ERRORS[name]
        out[err] = (_median([v.abs_err for v in verdicts]), "abs")
        out[bound] = (_median([v.bound for v in verdicts]), "abs")
    eta = name == "eta_sweep"
    out["eta.route_max_abs_err"] = (
        max((v.abs_err for v in verdicts), default=0.0) if eta else 0.0,
        "abs")
    out["eta.poisson_bound_violations"] = (
        sum(v.poisson_violations for v in verdicts) / len(ops), "count/op")
    return out


def final_line(result: dict) -> dict:
    """The last stdout line: end-to-end metrics untraced, per-layer traced."""
    source = result["layers"] if result["trace"] else {
        name: result["metrics"][name] for name in END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in source.items()}}


def print_report(result: dict):
    print(f"# {result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])}: {result['attempted']} ops in "
          f"{result['blocks']} blocks, {result['failed']} failed, "
          f"{result['wall_s']:.2f} s timed")
    print("# env " + json.dumps(result["env"]))
    tail_info = result["op_s_tail"]
    for name, (value, unit) in {**result["metrics"],
                                **result["layers"]}.items():
        note = ""
        if name == "op_s_tail":
            note = (f"  (p{tail_info['level']:.1f} of "
                    f"{tail_info['samples']} ops)")
        print(f"{name:36s} {value:14.6g} {unit}{note}")
    if tail_info is None:
        print(f"{'op_s_tail':36s} {'-':>14s} s  (needs 11 ops, "
              f"have {result['attempted']})")
    for site in result["absent"]:
        print(f"# absent: {site} is not in the program; its metrics read 0")
    failed = [op for op in result["ops"] if op["problems"]]
    for op in failed[:5]:
        print(f"# failed op {op['index']}: draw {json.dumps(op['draw'])}: "
              f"{op['problems'][0][:200]}")
    if len(failed) > 5:
        print(f"# ... {len(failed) - 5} more failed ops in the result file")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grav_sweep", "index_bulk", "eta_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_blas_threads()
    # One CPU for the ops and the kernel sampler, see Sampler.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(
        json.dumps({k: v for k, v in result.items() if k != "spans"},
                   indent=1, default=str) + "\n")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")
    print_report(result)
    print(json.dumps(final_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
