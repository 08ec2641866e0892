"""The campaign record: declared merge rules, persistence and replay.

Every :class:`CampaignResult` field declares how it merges and whether
it is stored; merging, the campaign and shard store envelopes and the
executor's shard merge are all generic over those declarations.  These
tests lock the declarations themselves, the round trip through the
store, agreement between a sharded campaign and a plain merge of its
spans, and replay of envelopes written before the record was declared
(``data/legacy_envelopes.json``).
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cache import configure_cache, get_cache, shard_key
from repro.cache.artifacts import CAMPAIGN_KIND, SHARD_KIND
from repro.fi import OUTCOMES, CampaignResult, FaultInjector
from repro.fi.campaign import DRIVER, MAX, OR, SUM
from repro.sched import (
    CampaignExecutor,
    CampaignSettings,
    ModuleSpec,
    ShardResult,
    campaign_request_key,
    run_store_campaign,
)
from tests.conftest import cached_module

LEGACY = json.loads(
    (Path(__file__).parent / "data" / "legacy_envelopes.json").read_text()
)

#: Fields that describe one execution and are never stored.
UNPERSISTED = {"wall_seconds", "workers", "degraded", "interrupted",
               "from_cache", "shards_resumed"}


@pytest.fixture
def fresh_cache(tmp_path):
    cache = configure_cache(tmp_path / "store")
    yield cache
    configure_cache(None)


def non_default(f):
    """A value of the field's type that differs from its default."""
    default = getattr(CampaignResult(), f.name)
    if isinstance(default, bool):
        return not default
    if isinstance(default, dict):
        return {outcome: i + 3 for i, outcome in enumerate(OUTCOMES)}
    if isinstance(default, list):
        return [(0, 40), (80, 20)]
    if isinstance(default, str):
        return "batch"
    return default + 7


class TestDeclarations:
    def test_every_field_declares_exactly_one_rule(self):
        for f in fields(CampaignResult):
            assert set(f.metadata) == {"rule", "persist"}, f.name
            assert f.metadata["rule"] in (SUM, MAX, OR, DRIVER), f.name
            assert isinstance(f.metadata["persist"], bool), f.name

    def test_unpersisted_fields_are_the_driver_facts(self):
        declared = {f.name for f in fields(CampaignResult)
                    if not f.metadata["persist"]}
        assert declared == UNPERSISTED


class TestRoundTrip:
    def test_every_persisted_field_survives_the_store(self):
        result = CampaignResult()
        persisted = [f for f in fields(CampaignResult)
                     if f.name not in UNPERSISTED]
        for f in persisted:
            setattr(result, f.name, non_default(f))
        rebuilt = CampaignResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        for f in persisted:
            assert getattr(rebuilt, f.name) == getattr(result, f.name), \
                f.name
        assert rebuilt.from_cache

    def test_shard_envelope_round_trip(self):
        span = FaultInjector(cached_module("pathfinder")).run_span(0, 30, 2)
        shard = ShardResult(0, 30, span)
        rebuilt = ShardResult.from_dict(
            json.loads(json.dumps(shard.to_dict()))
        )
        assert rebuilt.to_dict() == shard.to_dict()
        assert rebuilt.counts == span.counts


def statistics(result: CampaignResult) -> dict:
    """Every merged field except wall-clock timings."""
    return {
        f.name: getattr(result, f.name) for f in fields(CampaignResult)
        if f.metadata["rule"] != DRIVER and not f.name.endswith("_seconds")
    }


class TestShardedEqualsMerged:
    def test_three_shard_executor_equals_merge_of_spans(self):
        module = cached_module("pathfinder")
        seed = 13

        def injector():
            return FaultInjector(module, interp_tier="batch", batch_lanes=8)

        sharded = CampaignExecutor(
            injector=injector(),
            settings=CampaignSettings(chunk_size=40, interp_tier="batch",
                                      batch_lanes=8),
        ).run(120, seed=seed)
        reference = injector()
        merged = CampaignResult()
        for start in (0, 40, 80):
            merged = merged.merge(reference.run_span(start, 40, seed))
        assert sharded.completed_ranges == [(0, 120)]
        assert statistics(sharded) == statistics(merged)
        assert sharded.batch_lanes == 8


@pytest.mark.usefixtures("fresh_cache")
class TestLegacyEnvelopes:
    SPEC = ModuleSpec.from_dict(LEGACY["spec"])

    def settings(self, **knobs) -> CampaignSettings:
        return CampaignSettings(interp_tier=LEGACY["interp_tier"],
                                batch_lanes=LEGACY["batch_lanes"], **knobs)

    def key(self) -> str:
        return campaign_request_key(
            self.SPEC.materialize(), LEGACY["runs"], LEGACY["seed"],
            self.settings(),
        )

    def fresh_counts(self) -> dict:
        return FaultInjector(cached_module(self.SPEC.benchmark)).campaign(
            LEGACY["runs"], seed=LEGACY["seed"]
        ).counts

    def test_campaign_envelope_replays(self):
        envelope = LEGACY["campaign"]
        get_cache().store(CAMPAIGN_KIND, self.key(), envelope)
        result = run_store_campaign(
            LEGACY["runs"], LEGACY["seed"], spec=self.SPEC,
            settings=self.settings(),
        )
        assert result.from_cache
        assert result.counts == self.fresh_counts()
        stored = result.to_dict()
        for name, value in envelope.items():
            assert stored[name] == value, name
        assert not result.checkpoint_degraded

    def test_shard_envelope_resumes(self):
        envelope = LEGACY["shard"]
        assert ShardResult.from_dict(envelope).to_dict() == envelope
        get_cache().store(
            SHARD_KIND,
            shard_key(self.key(), envelope["start"], envelope["count"]),
            envelope,
        )
        result = run_store_campaign(
            LEGACY["runs"], LEGACY["seed"], spec=self.SPEC,
            settings=self.settings(chunk_size=envelope["count"]),
        )
        assert result.shards_resumed == 1
        assert result.counts == self.fresh_counts()
        assert result.batch_lanes == envelope["perf"]["batch_lanes"]
