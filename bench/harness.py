"""Set-up, timed repetitions, output verdicts and the traced run.

``run.py`` pins the thread pools and puts ``src/`` on the path before this
module (which imports the package) is loaded.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

import calibration
import checks
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
REFERENCE_SEED = 0
REFERENCE_FILE = BENCH / f"reference_seed{REFERENCE_SEED}.json"
SETUP_REPEATS = 9
MAX_REPEATS = 50

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import fairmaxcut.cli\n"
    "print(time.perf_counter() - t)\n"
)


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> str:
    return (f"cpu {_cpu_model()!r}, nproc {len(os.sched_getaffinity(0))}, "
            f"python {platform.python_version()}, numpy {numpy.__version__}, threads pinned to 1")


def _import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


def load_reference(workload: str, seed: int):
    """The recorded reference outputs of this workload, when ``seed`` is the
    seed they were recorded for; otherwise None."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        table = json.load(fh)
    return table[workload] if seed == REFERENCE_SEED else None


def setup(workload: str, seed: int):
    """Generate and write the inputs and load the reference, several times;
    returns the op set, the reference and the median set-up time at the
    reference speed."""
    speed = calibration.Speed()
    times, ops, reference = [], None, None
    for _ in range(SETUP_REPEATS):
        speed.sample()
        imported = _import_seconds()
        start = perf_counter()
        ops = workloads.build(workload, seed, WORK / workload)
        reference = load_reference(workload, seed)
        times.append(imported + perf_counter() - start)
    print(f"setup raw median {statistics.median(times):.4f} s of {SETUP_REPEATS}, "
          f"speed factor {speed.factor():.4f}")
    return ops, reference, speed.factor() * statistics.median(times)


def _run_op(op, tracer=None):
    """Time one op; returns its seconds and its result, or the exception it
    raised."""
    start = perf_counter()
    try:
        result = op.call() if tracer is None else tracer.run_op(op.id, op.call)
    except (Exception, SystemExit) as exc:
        result = exc
    return perf_counter() - start, result


def _collect(op, result):
    if isinstance(result, BaseException):
        print(f"error: {op.id} raised {type(result).__name__}: {result}", file=sys.stderr)
        return None
    return op.collect(result)


def run_repeat(ops, speed=None):
    """Run the op set once, sampling ``speed`` between ops when given.
    Returns each op's wall and CPU seconds and its output (None where the
    op raised)."""
    walls, cpus, results = [], [], []
    with contextlib.redirect_stdout(io.StringIO()):
        for op in ops:
            cpu0 = _cpu_seconds()
            seconds, result = _run_op(op)
            cpus.append(_cpu_seconds() - cpu0)
            walls.append(seconds)
            results.append(result)
            if speed is not None:
                speed.after_op(seconds)
    return walls, cpus, [_collect(op, r) for op, r in zip(ops, results)]


def run_paired(ops, tracer):
    """Run every op untraced and traced, back to back, so that both runs of
    an op see the same machine state; the order alternates from op to op.
    Returns both op-set times and both output lists."""
    seconds = {False: 0.0, True: 0.0}
    outputs = {False: [], True: []}
    with contextlib.redirect_stdout(io.StringIO()):
        for i, op in enumerate(ops):
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                try:
                    spent, result = _run_op(op, tracer if traced else None)
                finally:
                    tracer.uninstall()
                seconds[traced] += spent
                outputs[traced].append(_collect(op, result))
    return seconds[False], seconds[True], outputs[False], outputs[True]


class Verdicts:
    """Per-op correctness across repeats.  The first repeat is checked in
    full; later repeats must reproduce its outputs exactly."""

    def __init__(self, ops, reference):
        self.ops = ops
        self.reference = reference
        self.first = None
        self.first_ok = None
        self.attempted = 0
        self.failed = 0

    def add(self, outputs) -> None:
        if self.first is None:
            self.first = outputs
            self.first_ok = []
            for op, out in zip(self.ops, outputs):
                ref = None if self.reference is None else self.reference.get(op.id)
                problems = ["raised"] if out is None else checks.check(op, out, ref)
                for problem in problems:
                    print(f"check failed: {op.id}: {problem}", file=sys.stderr)
                self.first_ok.append(not problems)
            oks = self.first_ok
        else:
            oks = [ok and out is not None and out == first
                   for ok, out, first in zip(self.first_ok, outputs, self.first)]
        self.attempted += len(oks)
        self.failed += oks.count(False)


def _percentile90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(ops, verdicts, seconds: float) -> dict:
    """End-to-end metrics of closed-loop repeats of the op set, at the
    reference speed (see calibration.py).  Each op's latency is its mean
    over the repeats; ``wall_s`` and ``cpu_s`` are the op set's mean."""
    speed = calibration.Speed()
    speed.sample()
    walls, cpus = [[] for _ in ops], [[] for _ in ops]
    start, repeats = perf_counter(), 0
    while True:
        repeat_start = perf_counter()
        wall, cpu, outputs = run_repeat(ops, speed)
        verdicts.add(outputs)
        for op_walls, op_cpus, w, c in zip(walls, cpus, wall, cpu):
            op_walls.append(w)
            op_cpus.append(c)
        repeats += 1
        now = perf_counter()
        if repeats >= MAX_REPEATS or now - start + (now - repeat_start) > seconds:
            break
    factor = speed.factor()
    latencies = [statistics.fmean(op_walls) for op_walls in walls]
    print(f"repeats {repeats} of {len(ops)} ops; op latency samples {len(ops)}, "
          f"each the mean of {repeats}")
    print(f"raw wall {sum(latencies):.4f} s; speed kernel mean "
          f"{statistics.fmean(speed.samples):.5f} s of {len(speed.samples)} samples, "
          f"factor {factor:.4f}")
    return {
        "wall_s": (factor * sum(latencies), "s"),
        "cpu_s": (factor * sum(statistics.fmean(op_cpus) for op_cpus in cpus), "s"),
        "op_s.p50": (factor * statistics.median(latencies), "s"),
        "op_s.p90": (factor * _percentile90(latencies), "s"),
    }


def trace(ops, verdicts, span_file: Path) -> dict:
    """Per-layer metrics of one traced pass, paired op by op with an
    untraced pass for the tracing overhead."""
    tracer = Tracer()
    plain_s, traced_s, plain, traced = run_paired(ops, tracer)
    verdicts.add(plain)
    verdicts.add(traced)
    tracer.write(span_file)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    layered = sum(value for name, (value, _) in metrics.items()
                  if name.endswith(".self_s") or name in ("instances.load_s", "reports.render_s"))
    print(f"ops untraced {plain_s:.4f} s, traced {traced_s:.4f} s; layer self times + "
          f"cli.self_s = {layered:.4f} s, bookkeeping {metrics['trace.count_s'][0]:.4f} s")
    return metrics


def main(workload: str, seed: int, seconds: float, traced: bool) -> int:
    print(f"environment: {environment()}")
    ops, reference, setup_s = setup(workload, seed)
    verdicts = Verdicts(ops, reference)
    print(f"workload {workload}, seed {seed}, {len(ops)} ops, reference "
          f"{'compared' if reference is not None else 'not recorded for this seed'}")

    if traced:
        metrics = trace(ops, verdicts, WORK / f"trace-{workload}-s{seed}.jsonl")
    else:
        metrics = measure(ops, verdicts, seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    error_rate = verdicts.failed / verdicts.attempted
    print(f"error_rate {error_rate} ratio ({verdicts.failed} of {verdicts.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
