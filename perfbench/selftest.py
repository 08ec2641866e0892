#!/usr/bin/env python3
"""Run every workload briefly and check the benchmark against itself.

    python3 perfbench/selftest.py

It checks that:

* ``BENCHMARK.json`` names the workloads and metrics of ``layers.py``,
  with the same units;
* every workload, untraced and traced, exits 0 with a correct result
  that carries every metric with its unit;
* each per-layer metric is non-zero on the workloads ``layers.py`` maps
  it to, and the traced spans cover at least 90% of op wall time;
* ``inject`` and ``inject_batch`` give the same counts op for op;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  own files, the command fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

MIN_COVERAGE = 0.9


def run(workload: str, trace: int, cwd: Path = ROOT):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", "0",
                           "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_counts(proc) -> dict:
    counts = {}
    for line in proc.stdout.splitlines():
        if line.startswith("op "):
            _op, _index, key, body = line.split(" ", 3)
            counts.setdefault(key, set()).add(body)
    return counts


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)
            print("FAIL", message)

    expect([w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS),
           "BENCHMARK.json workloads differ from layers.WORKLOADS")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
           == [tuple(m) for m in layers.END_TO_END],
           "BENCHMARK.json end_to_end differs from layers.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [m[:3] for m in layers.PER_LAYER],
           "BENCHMARK.json per_layer differs from layers.PER_LAYER")

    fi_counts = {}
    for workload in layers.WORKLOADS:
        for trace, table in ((0, layers.END_TO_END), (1, layers.PER_LAYER)):
            proc = run(workload, trace)
            try:
                result = result_of(proc)
            except (AssertionError, ValueError, IndexError) as exc:
                expect(False, f"{workload} trace {trace}: {exc}")
                continue
            print(f"{workload} trace {trace}: attempted "
                  f"{result['attempted']}, failed {result['failed']}")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace}: ops failed their check")
            metrics = result["metrics"]
            expect(sorted(metrics) == sorted(m[0] for m in table),
                   f"{workload} trace {trace}: metric names differ")
            for name, unit, *rest in table:
                got = metrics.get(name, {})
                expect(got.get("unit") == unit,
                       f"{workload}: {name} unit {got.get('unit')!r}")
                on = rest[-1] if trace else layers.WORKLOADS
                if workload in on:
                    expect(got.get("value", 0) > 0,
                           f"{workload}: {name} is {got.get('value')}")
            if trace:
                expect(metrics["trace.coverage"]["value"] >= MIN_COVERAGE,
                       f"{workload}: spans cover only "
                       f"{metrics['trace.coverage']['value']:.1%}")
            elif workload.startswith("inject"):
                fi_counts[workload] = op_counts(proc)

    shared = set(fi_counts.get("inject", {})) & set(
        fi_counts.get("inject_batch", {}))
    expect(len(shared) == 11, f"inject tiers share {len(shared)} ops, not 11")
    for key in sorted(shared):
        expect(fi_counts["inject"][key] == fi_counts["inject_batch"][key]
               and len(fi_counts["inject"][key]) == 1,
               f"cross-tier counts differ for {key}")

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("inject", 0, cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(proc.returncode != 0 and not last.startswith("{"),
               "without the program source the command did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # a run in progress still uses it

    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
