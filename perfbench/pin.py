#!/usr/bin/env python3
"""Regenerate ``expected.json``: the pinned outputs of workload seed 0.

    python3 perfbench/pin.py

Campaign counts come from the closure reference tier, never from a tier
a workload times; analysis outputs from the closure tier's golden run
and an isolated, store-free model; the fig5 rendering from a cold pass
whose campaigns run on the closure tier.  Rerun this only when the
program's outputs are meant to change, and say so in the change.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    scratch = HERE.parent / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=scratch))
    try:
        inject = workloads.Inject(0, workdir, "closure")
        analyze = workloads.Analyze(0, workdir)
        replay = workloads.Replay(0, workdir)
        pins = {
            "inject": {inject.key(op): inject.reference(op)
                       for op in inject.plan()},
            "analyze": {analyze.key(op): analyze.reference(op)
                        for op in analyze.plan()},
        }
        from repro.cache import configure_cache
        from repro.harness.context import Workspace
        from repro.harness.runner import run_experiment

        configure_cache(workdir / "fig5")
        config = dataclasses.replace(replay.config(), interp_tier="closure")
        render = run_experiment("fig5", Workspace(config)).render()
        pins["replay"] = {replay.key(None): render}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # a run in progress still uses it
    workloads.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {workloads.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
