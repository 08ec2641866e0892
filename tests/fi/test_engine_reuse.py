"""Engine reuse: one compilation per worker per module revision.

Compiling an :class:`ExecutionEngine` (closure specialization of every
instruction) is the expensive per-module step; a campaign must pay it
once per worker and amortize it across every shard, round, and trial.
``engine_build_count`` counts compilations process-wide, so these tests
lock the invariant by measuring deltas.
"""

from __future__ import annotations

import pytest

from repro.fi import FaultInjector
from repro.interp import engine_build_count
from repro.sched import ModuleSpec, ShardSpec, run_shard
from repro.sched import shard as sched_shard
from tests.conftest import cached_module


@pytest.fixture
def fresh_worker(monkeypatch):
    """Simulate a fresh pool worker: clear the per-process injector
    cache without leaking state into other tests."""
    monkeypatch.setattr(sched_shard, "_WORKER_SPEC", None)
    monkeypatch.setattr(sched_shard, "_WORKER_INJECTOR", None)


def shard(spec, start, count, seed=1, checkpoint=True, stride=0,
          tier=None, lanes=0):
    return ShardSpec(
        module=spec, start=start, count=count, seed=seed,
        checkpoint=checkpoint, checkpoint_stride=stride,
        interp_tier=tier, batch_lanes=lanes,
    )


class TestInjectorReuse:
    def test_campaign_compiles_exactly_once(self):
        before = engine_build_count()
        injector = FaultInjector(cached_module("pathfinder"))
        assert engine_build_count() == before + 1
        injector.campaign(60, seed=1)
        injector.campaign(60, seed=2)
        injector.run_span(0, 40, 3)
        assert engine_build_count() == before + 1

    def test_checkpoint_capture_reuses_engine(self):
        injector = FaultInjector(cached_module("hotspot"))
        before = engine_build_count()
        assert injector.checkpoints() is not None
        injector.run_span(0, 40, 1)
        injector.configure_checkpoints(True, stride=100)
        injector.run_span(0, 40, 1)
        assert engine_build_count() == before


class TestWorkerReuse:
    def test_same_spec_shards_share_one_build(self, fresh_worker):
        spec = ModuleSpec.from_benchmark("pathfinder", "test")
        before = engine_build_count()
        run_shard(shard(spec, 0, 30))
        assert engine_build_count() == before + 1
        run_shard(shard(spec, 30, 30))
        run_shard(shard(spec, 60, 30, checkpoint=False, tier="closure"))
        run_shard(shard(spec, 90, 30, tier="codegen", lanes=8))  # toggling
        assert engine_build_count() == before + 1            # knobs keeps it

    def test_new_module_revision_recompiles(self, fresh_worker):
        before = engine_build_count()
        run_shard(shard(ModuleSpec.from_benchmark("pathfinder", "test"),
                        0, 20))
        run_shard(shard(ModuleSpec.from_benchmark("nw", "test"), 0, 20))
        assert engine_build_count() == before + 2

    def test_direct_injector_bypasses_worker_cache(self, fresh_worker):
        injector = FaultInjector(cached_module("pathfinder"))
        before = engine_build_count()
        result = run_shard(shard(ModuleSpec(), 0, 20), injector=injector)
        assert engine_build_count() == before  # no materialization
        assert sched_shard._WORKER_INJECTOR is None  # cache untouched
        assert sum(result.counts.values()) == 20


class TestModuleBuilds:
    @pytest.fixture
    def builds(self, monkeypatch, tmp_path):
        """Every ``registry.build_module`` call, against an empty store."""
        from repro.bench import registry
        from repro.cache import configure_cache

        calls = []
        build_module = registry.build_module

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build_module(*args, **kwargs)

        monkeypatch.setattr(registry, "build_module", counting_build)
        configure_cache(tmp_path / "store")
        yield calls
        configure_cache(None)

    def test_cold_store_campaign_builds_the_module_once(self, builds):
        """The module that computes the store key also backs the
        in-process injector: one build per cold serial campaign."""
        from repro.sched import run_store_campaign

        result = run_store_campaign(
            40, seed=3, spec=ModuleSpec.from_benchmark("pathfinder", "test"),
        )
        assert not result.from_cache
        assert len(builds) == 1

    def test_cold_daemon_job_builds_the_module_once(self, builds):
        """The module ``Scheduler.submit`` keys the job on is the one
        ``execute`` runs: one build per cold job, none kept after it."""
        from repro.sched import CampaignRequest, Scheduler

        scheduler = Scheduler()
        job = scheduler.submit(CampaignRequest(
            spec=ModuleSpec.from_benchmark("pathfinder", "test"),
            runs=40, seed=3,
        ))
        scheduler.execute(job)
        assert job.status == "done" and not job.result.from_cache
        assert len(builds) == 1
        assert not scheduler._modules
