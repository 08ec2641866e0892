#!/usr/bin/env python3
"""Closed-loop benchmark of the TRIDENT reproduction.

    python3 perfbench/run.py --workload inject --seed 1 --seconds 10 \
        --trace 0

One client in one process issues each op only after the previous one
returns.  The run imports the program from ``src/`` of the checkout it
sits in, warms up (untimed), then times a fixed number of whole rounds
of ops, enough to last at least ``--seconds`` on the reference machine,
checks every op's output, and prints one JSON object as its last line
of output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the
traced rounds, plus the tracing overhead as traced minus untraced
ops/s.  See ``layers.py`` for the metric table and ``workloads.py`` for
the workloads.
"""

from __future__ import annotations

import os
import statistics
import time

#: Seconds ``_calibration_loop`` takes on the reference machine.  This
#: 2-vCPU VM speeds up and slows down by a quarter within a minute, for
#: the program and for plain Python alike, so every gated time is scaled
#: by this over the loop's time measured next to it: the metrics are in
#: reference-machine seconds, and the raw clock readings go on the
#: ``context`` line.  The loop runs no program code, so a change to the
#: program never moves it.
CALIBRATION_REF_S = 0.012
#: An op's speed factor uses the median of this many calibration
#: samples taken around it.
CALIBRATION_WINDOW = 5


def _calibration_loop() -> int:
    """Fixed pure-Python work, like an interpreter's: integer
    arithmetic, dict stores and small allocations."""
    total = 0
    table = {}
    items = []
    for i in range(40_000):
        total += i * i % 7
        table[i & 1023] = (i, total)
        if i & 15 == 0:
            items.append(str(i))
    return total + len(items)


def calibration_seconds(samples: int = 1) -> float:
    """Median time of ``samples`` runs of the calibration loop."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _process_age() -> float:
    """Seconds since this process started (10 ms resolution)."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE_AT_TOP = _process_age()
_TOP = time.perf_counter()
#: Calibration samples from before the imports; with those taken after
#: set-up they scale setup_s.  Their own time is not set-up time.
_EARLY_CALIBRATIONS = [calibration_seconds() for _ in range(3)]
_CALIBRATION_SPENT = time.perf_counter() - _TOP

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of runs (stores, set-up children), inside the checkout.
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Extra set-ups, each in a fresh process, beside the run's own; setup_s
#: is the median of all of them.
SETUP_CHILDREN = 2
#: Fresh interpreters timed for import.repro_cli_s.
IMPORT_SAMPLES = 3
#: The op latency tail on the context line is the highest percentile
#: with at least this many samples beyond it.  It is recorded, not
#: gated: on replay it is a full garbage collection over a heap that
#: grows with every op, and its run-to-run spread is too wide to bound.
TAIL_BEYOND = 10
CHILD_TIMEOUT = 170


def _steal_ticks() -> int:
    """Hypervisor steal ticks of all CPUs so far (``/proc/stat``)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, ValueError, IndexError):
        return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Op:
    __slots__ = ("index", "op", "output", "error", "seconds", "cpu",
                 "traced", "calibration", "scaled")

    def __init__(self, index, op, traced):
        self.index = index
        self.op = op
        self.traced = traced
        self.output = self.error = None
        self.seconds = self.cpu = self.calibration = self.scaled = 0.0


def round_count(workload, seconds: float) -> int:
    """Whole rounds that take at least ``seconds`` on the reference
    machine, and at least two.

    The count is fixed by ``--seconds``, not by the clock, so every run
    of a workload does the same work: the same ops, the same heap growth
    and the same garbage collections, on any commit.
    """
    return max(2, math.ceil(seconds / workload.round_seconds))


def timed_phase(workload, rounds: int, tracer) -> list[Op]:
    """Run ``rounds`` whole rounds of ops; odd rounds run traced when
    there is a tracer."""
    ops: list[Op] = []
    for index in range(rounds):
        traced = tracer is not None and index % 2 == 1
        uninstall = spans.install(tracer) if traced else None
        try:
            for op in workload.round(index):
                record = Op(len(ops), op, traced)
                workload.prepare(op, record.index)
                record.calibration = calibration_seconds()
                if traced:
                    tracer.begin_op(record.index)
                cpu = time.process_time()
                start = time.perf_counter()
                try:
                    record.output = workload.run(op)
                except Exception as exc:  # a failed op, counted below
                    record.error = f"{type(exc).__name__}: {exc}"
                record.seconds = time.perf_counter() - start
                record.cpu = time.process_time() - cpu
                if traced:
                    tracer.end_op()
                ops.append(record)
        finally:
            if uninstall is not None:
                uninstall()
    half = CALIBRATION_WINDOW // 2
    for record in ops:
        window = ops[max(0, record.index - half):record.index + half + 1]
        speed = CALIBRATION_REF_S / statistics.median(
            r.calibration for r in window)
        record.scaled = record.seconds * speed
    return ops


def check(workload, ops) -> None:
    """Fill in ``error`` for every op whose output is wrong."""
    expected: dict = {}
    for record in ops:
        if record.error is not None:
            continue
        key = workload.key(record.op)
        if key not in expected:
            try:
                expected[key] = (workload.expected(record.op), None)
            except Exception as exc:
                expected[key] = (None, f"reference failed: "
                                       f"{type(exc).__name__}: {exc}")
        want, error = expected[key]
        if error is None and record.output != want:
            error = f"output {record.output!r} != expected {want!r}"
        record.error = error


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile
    with TAIL_BEYOND samples beyond it, never below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def child_setup(args) -> dict:
    """set-up times of one more set-up, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_seconds() -> float:
    """Median time to ``import repro.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, check=True)
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def end_to_end(ops, setups, peak_rss):
    """Times in reference-machine seconds; ops per second of op time."""
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": len(ops) / sum(r.scaled for r in ops),
        "op_p50_s": statistics.median(r.scaled for r in ops),
        "peak_rss_mb": peak_rss,
    }


def per_layer(tracer, ops, steal):
    traced = [r for r in ops if r.traced]
    untraced = [r for r in ops if not r.traced]
    n = len(traced)
    selfs = tracer.self_times()
    counters = tracer.counters
    values = {metric: selfs.get(span, 0.0) / n
              for span, metric in layers.SPAN_METRICS.items()}
    for name in ("bench.builds", "cache.hits", "cache.misses",
                 "cache.bytes_written", "sched.shards", "fi.trials",
                 "interp.dyn_instr", "interp.skipped_instr",
                 "interp.snapshot_bytes", "interp.codegen_fallbacks",
                 "batch.divergences", "batch.reconverged", "batch.drains",
                 "profiling.dyn_instr", "query.hits", "query.misses",
                 "runtime.gc_s", "runtime.gc_full"):
        values[name] = counters.get(name, 0) / n
    trials_s = tracer.total_seconds("fi.trials")
    dyn = counters.get("interp.dyn_instr", 0)
    values["interp.instr_per_s"] = dyn / trials_s if trials_s else 0.0
    values["batch.drain_frac"] = (counters.get("batch.drain_instr", 0) / dyn
                                  if dyn else 0.0)
    values["op_cpu_s"] = statistics.median(r.cpu for r in untraced)
    values["vm.steal_ticks"] = steal
    values["vm.calibration_s"] = statistics.median(r.calibration
                                                   for r in ops)
    op_seconds = sum(r.seconds for r in traced)
    covered = tracer.covered_seconds()
    values["trace.coverage"] = covered / op_seconds
    values["trace.unattributed_s"] = (op_seconds - covered) / n

    values["trace.overhead_ops_per_s"] = (
        n / sum(r.scaled for r in traced)
        - len(untraced) / sum(r.scaled for r in untraced))
    values["import.repro_cli_s"] = import_seconds()
    return values


def run(args, workdir: Path) -> int:
    workload = workloads.make(args.workload, args.seed, workdir)
    workload.setup()
    raw_setup = (_AGE_AT_TOP + time.perf_counter() - _TOP
                 - _CALIBRATION_SPENT)
    calibration = statistics.median(
        _EARLY_CALIBRATIONS + [calibration_seconds() for _ in range(3)])
    setup = {"setup_s": raw_setup * CALIBRATION_REF_S / calibration,
             "raw_setup_s": raw_setup, "calibration_s": calibration}
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro was imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = spans.Tracer() if args.trace else None
    steal = _steal_ticks()
    started = time.perf_counter()
    rounds = round_count(workload, args.seconds)
    ops = timed_phase(workload, rounds, tracer)
    phase_seconds = time.perf_counter() - started
    steal = _steal_ticks() - steal
    peak_rss = _peak_rss_mb()

    check(workload, ops)
    failed = [r for r in ops if r.error is not None]
    for record in ops:
        print(f"op {record.index} {workload.key(record.op)} "
              f"{json.dumps(record.output, sort_keys=True)}")
    for record in failed[:5]:
        print(f"FAILED op {record.index} {workload.key(record.op)}: "
              f"{record.error}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(tracer, ops, steal)
        units = {name: unit for name, unit, *_ in layers.PER_LAYER}
    else:
        setups = [setup] + [child_setup(args)
                            for _ in range(SETUP_CHILDREN)]
        metrics = end_to_end(ops, setups, peak_rss)
        units = {name: unit for name, unit, _ in layers.END_TO_END}
        op_tail, percentile, beyond = tail([r.scaled for r in ops])
        context = {
            "workload": args.workload, "seed": args.seed,
            "rounds": rounds, "phase_s": phase_seconds,
            "setups": setups,
            "raw_ops_per_s": len(ops) / phase_seconds,
            "raw_op_p50_s": statistics.median(r.seconds for r in ops),
            "calibration_p50_s": statistics.median(r.calibration
                                                   for r in ops),
            "op_tail_s": op_tail,
            "op_tail_percentile": percentile,
            "op_tail_samples_beyond": beyond,
            "op_cpu_p50_s": statistics.median(r.cpu for r in ops),
            "steal_ticks": steal,
            "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
        }
        print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print setup_s and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it never existed


if __name__ == "__main__":
    sys.exit(main())
