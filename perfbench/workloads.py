"""The four workloads: what one op is, how it is checked, and why.

Every op is cold or warm by construction, never by accident: before an
op the runner calls :meth:`Workload.prepare` (untimed), which points the
process-wide artifact store at that op's own directory and drops the
in-memory query stores, exactly as a fresh ``repro`` process would
start.  Op inputs are drawn from the workload seed (``replay`` has
none); a run repeats one round of distinct ops in a seed-shuffled order
per round, so every run of a workload executes the same mix of programs
and its figures compare across seeds.

Checks run after the timed phase.  Expected outputs come from
``expected.json`` (pinned for workload seed 0 by ``pin.py``) when the op
is pinned there; otherwise they are recomputed outside the timed phase
on an independent path: fault-injection counts on the closure reference
tier, analysis outputs against the closure tier's golden run and an
isolated, store-free model, fig5 replays against the cold pass that
filled the store.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

PINS = Path(__file__).resolve().parent / "expected.json"

#: Injection runs per campaign op (the CLI default of ``repro inject``).
FI_RUNS = 1000
FI_SCALE = "test"
ANALYZE_SCALE = "default"
ANALYZE_SAMPLES = 3000
#: ``repro experiment fig5`` as the CLI runs it: test scale, 400 FI and
#: model samples, experiment seed 2018.  The command has no input to
#: vary, so every replay run, whatever its workload seed, replays the
#: same store; its ops then do the same work, and the garbage
#: collections that the growing heap triggers land on the same ops.
FIG5_SCALE = "test"
FIG5_SAMPLES = 400
FIG5_SEED = 2018
REPLAY_ROUND = 10
#: Input of the untimed warm-up op; not part of any op plan.
WARMUP = ("blackscholes", 0, 1)


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sdc_map_digest(sdc_map: dict) -> str:
    return text_digest(json.dumps(sorted(sdc_map.items())))


def _rng(*parts) -> random.Random:
    return random.Random(":".join(["perfbench", *map(str, parts)]))


class Workload:
    """One workload of one run: a seeded op plan plus its checks."""

    family = ""
    #: Seconds one round takes on the reference machine (2 vCPUs,
    #: Python 3.11); sets how many rounds fill ``--seconds``.
    round_seconds = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.pins = load_pins().get(self.family, {})

    def setup(self) -> None:
        """Imports plus the untimed warm-up (counted in ``setup_s``)."""
        raise NotImplementedError

    def plan(self) -> list:
        """The distinct ops of this run, drawn from the seed."""
        raise NotImplementedError

    def round(self, index: int) -> list:
        ops = list(self.plan())
        _rng(self.family, self.seed, "round", index).shuffle(ops)
        return ops

    def prepare(self, op, index: int) -> None:
        """Untimed per-op set-up: an empty store of the op's own."""
        from repro.cache import configure_cache
        from repro.query.engine import reset_query_stores

        reset_query_stores()
        configure_cache(self.workdir / f"op{index}")

    def run(self, op):
        """The timed op; returns its output for the check."""
        raise NotImplementedError

    def key(self, op) -> str:
        return "/".join(map(str, op))

    def expected(self, op):
        """Reference output, pinned or recomputed off the timed path."""
        pinned = self.pins.get(self.key(op))
        return pinned if pinned is not None else self.reference(op)

    def reference(self, op):
        raise NotImplementedError


class Inject(Workload):
    """Cold 1000-run FI campaigns through ``run_store_campaign``."""

    family = "inject"

    def __init__(self, seed: int, workdir: Path, tier: str):
        super().__init__(seed, workdir)
        self.tier = tier
        self.round_seconds = 5.6 if tier == "codegen" else 4.4

    def setup(self) -> None:
        import repro.cli  # noqa: F401  (the import a CLI user pays)

        self.prepare(WARMUP, -1)
        self.run(WARMUP)

    def plan(self) -> list:
        from repro.bench.registry import BENCHMARK_NAMES

        rng = _rng(self.family, self.seed)
        return [(name, rng.randrange(1 << 16), rng.randrange(1 << 30))
                for name in BENCHMARK_NAMES]

    def _campaign(self, op, tier: str):
        from repro.sched import executor
        from repro.sched.spec import CampaignSettings, ModuleSpec

        name, input_seed, campaign_seed = op
        return executor.run_store_campaign(
            FI_RUNS, campaign_seed,
            spec=ModuleSpec.from_benchmark(name, FI_SCALE, input_seed),
            settings=CampaignSettings(interp_tier=tier),
        )

    def run(self, op):
        result = self._campaign(op, self.tier)
        if result.from_cache:
            raise RuntimeError("a cold op was served from the store")
        return dict(result.counts)

    def reference(self, op):
        from repro.cache import configure_cache

        configure_cache(enabled=False)
        return dict(self._campaign(op, "closure").counts)


class Analyze(Workload):
    """Cold ``repro analyze``: profile, TRIDENT, overall SDC/crash,
    per-instruction SDC map, against an empty store."""

    family = "analyze"
    round_seconds = 4.0

    def setup(self) -> None:
        import repro.cli  # noqa: F401

        self.prepare(WARMUP[:2], -1)
        self.run(WARMUP[:2])

    def plan(self) -> list:
        from repro.bench.registry import BENCHMARK_NAMES

        rng = _rng(self.family, self.seed)
        return [(name, rng.randrange(1 << 16)) for name in BENCHMARK_NAMES]

    def run(self, op):
        from repro.bench import registry
        from repro.cache import (
            disk,
            fingerprint,
            load_cached_profile,
            profile_key,
            store_cached_profile,
        )
        from repro.core import simple_models
        from repro.profiling.profiler import ProfilingInterpreter

        name, input_seed = op
        module = registry.build_module(name, ANALYZE_SCALE, input_seed)
        cache = disk.get_cache()
        key = profile_key(fingerprint.module_fingerprint(module))
        if load_cached_profile(cache, key) is not None:
            raise RuntimeError("a cold op was served from the store")
        profile, outputs = ProfilingInterpreter(module).run()
        store_cached_profile(cache, key, profile, outputs)
        model = simple_models.create_model("trident", module, profile)
        return self._summary(model, profile.dynamic_count, outputs)

    @staticmethod
    def _summary(model, dynamic_count: int, outputs) -> dict:
        return {
            "overall_sdc": model.overall_sdc(samples=ANALYZE_SAMPLES),
            "overall_crash": model.overall_crash(samples=ANALYZE_SAMPLES),
            "sdc_map_sha256": sdc_map_digest(model.sdc_map()),
            "dynamic_count": dynamic_count,
            "outputs_sha256": text_digest("\n".join(outputs)),
        }

    def reference(self, op):
        """The closure tier's golden run for outputs and instruction
        count; an isolated model with no store for the predictions."""
        from repro.bench.registry import build_module
        from repro.cache import configure_cache
        from repro.core.simple_models import create_model
        from repro.interp.engine import ExecutionEngine
        from repro.profiling.profiler import ProfilingInterpreter

        configure_cache(enabled=False)
        name, input_seed = op
        module = build_module(name, ANALYZE_SCALE, input_seed)
        golden = ExecutionEngine(module, tier="closure").golden()
        profile, _outputs = ProfilingInterpreter(module).run()
        model = create_model("trident", module, profile, warm=False)
        return self._summary(model, golden.dynamic_count, golden.outputs)


class Replay(Workload):
    """Warm ``repro experiment fig5`` re-runs against a filled store."""

    family = "replay"
    round_seconds = 1.5

    def setup(self) -> None:
        import repro.cli  # noqa: F401

        self.store = self.workdir / "store"
        self.prepare(None, -1)
        self.cold = self.run(None)["render_sha256"]
        self.prepare(None, -1)
        self.run(None)  # one warm op, untimed

    def config(self):
        from repro.harness.context import ExperimentConfig

        return ExperimentConfig(scale=FIG5_SCALE, fi_samples=FIG5_SAMPLES,
                                model_samples=FIG5_SAMPLES,
                                seed=FIG5_SEED)

    def plan(self) -> list:
        return [None] * REPLAY_ROUND

    def prepare(self, op, index: int) -> None:
        from repro.cache import configure_cache
        from repro.query.engine import reset_query_stores

        reset_query_stores()
        configure_cache(self.store)  # same store, fresh counters

    def run(self, op):
        from repro.cache import get_cache
        from repro.harness import runner
        from repro.harness.context import Workspace

        result = runner.run_experiment("fig5", Workspace(self.config()))
        stats = get_cache().stats
        return {"render_sha256": text_digest(result.render()),
                "misses": stats.misses, "writes": stats.writes}

    def key(self, op) -> str:
        return str(FIG5_SEED)

    def expected(self, op):
        pinned = self.pins.get(self.key(op))
        if pinned is not None and text_digest(pinned) != self.cold:
            raise RuntimeError("the cold fig5 pass differs from the pin")
        return {"render_sha256": self.cold, "misses": 0, "writes": 0}


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "inject":
        return Inject(seed, workdir, "codegen")
    if name == "inject_batch":
        return Inject(seed, workdir, "batch")
    if name == "analyze":
        return Analyze(seed, workdir)
    if name == "replay":
        return Replay(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
