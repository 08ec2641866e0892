"""Typed artifacts: profiles, golden summaries, model results, campaigns."""

from __future__ import annotations

import pytest

from repro.cache import (
    GoldenSummary,
    bind_model_results,
    campaign_key,
    golden_key,
    load_cached_profile,
    load_golden_summary,
    load_model_results,
    model_results_key,
    module_fingerprint,
    profile_digest,
    profile_key,
    store_cached_profile,
    store_golden_summary,
    store_model_results,
)
from repro.core.simple_models import build_model
from repro.fi.campaign import OUTCOMES, SDC, CampaignResult, FaultInjector
from repro.interp.engine import ExecutionEngine
from repro.profiling import ProfilingInterpreter
from repro.profiling.serialize import profile_to_dict
from tests.conftest import cached_module, cached_profile


@pytest.fixture(scope="module")
def pathfinder():
    module = cached_module("pathfinder")
    profile, outputs = cached_profile("pathfinder")
    return module, profile, outputs


class TestProfileArtifacts:
    def test_roundtrip_preserves_content(self, cache, pathfinder):
        module, profile, outputs = pathfinder
        key = profile_key(module_fingerprint(module))
        assert store_cached_profile(cache, key, profile, outputs)
        restored = load_cached_profile(cache, key)
        assert restored is not None
        assert profile_to_dict(restored) == profile_to_dict(profile)
        assert profile_digest(restored) == profile_digest(profile)

    def test_digest_ignores_wall_clock(self, pathfinder):
        module, _profile, _outputs = pathfinder
        first, _ = ProfilingInterpreter(module).run()
        second, _ = ProfilingInterpreter(module).run()
        second.profiling_seconds = first.profiling_seconds + 1.0
        assert profile_digest(first) == profile_digest(second)

    def test_key_depends_on_profiler_knobs(self):
        fp = "f" * 64
        assert profile_key(fp) == profile_key(fp, sample_cap=32, seed=2018)
        assert profile_key(fp) != profile_key(fp, sample_cap=64)
        assert profile_key(fp) != profile_key(fp, seed=1)

    def test_malformed_payload_is_a_miss(self, cache):
        key = profile_key("f" * 64)
        cache.store("profile", key, {"not-a-profile": True})
        assert load_cached_profile(cache, key) is None


class TestGoldenSummary:
    def test_substitutes_for_a_real_golden_run(self, cache, pathfinder):
        module, _profile, _outputs = pathfinder
        golden = ExecutionEngine(module).golden()
        summary = GoldenSummary.from_run(golden)
        key = golden_key(module_fingerprint(module))
        assert store_golden_summary(cache, key, summary)
        restored = load_golden_summary(cache, key)

        assert restored.outputs == golden.outputs
        assert restored.dynamic_count == golden.dynamic_count
        assert restored.instruction_counts() == golden.instruction_counts()

        # An injector built on the summary classifies like one built on
        # the real run (same outputs/counts drive the classification).
        injector = FaultInjector(module, golden=restored)
        result = injector.campaign(20, seed=7)
        reference = FaultInjector(module).campaign(20, seed=7)
        assert result.counts == reference.counts


class TestModelResults:
    def test_roundtrip_and_int_keys(self, cache):
        results = {3: 0.25, 17: 0.0, 4: 1.0}
        store_model_results(cache, "k" * 64, results)
        assert load_model_results(cache, "k" * 64) == results

    def test_bind_warms_and_writes_back(self, cache, pathfinder):
        module, profile, _outputs = pathfinder
        cold = build_model("trident", module, profile)
        assert bind_model_results(cache, cold, "trident") == 0
        cold_map = cold.sdc_map()  # triggers the write-back sink

        warm = build_model("trident", module, profile)
        restored = bind_model_results(cache, warm, "trident")
        assert restored == len(cold_map) > 0
        assert warm.sdc_map() == cold_map

    def test_key_separates_models_and_extras(self, pathfinder):
        module, profile, _outputs = pathfinder
        model = build_model("trident", module, profile)
        base = model_results_key(module, profile, "trident", model.config)
        assert base == model_results_key(
            module, profile, "trident", model.config
        )
        assert base != model_results_key(
            module, profile, "fs", model.config
        )
        assert base != model_results_key(
            module, profile, "trident", model.config, extra=0.125
        )


class TestCampaignArtifacts:
    def test_result_roundtrip(self):
        result = CampaignResult()
        result.counts[SDC] = 7
        result.counts["benign"] = 13
        result.cpu_seconds = 1.5
        result.runs_requested = 20
        result.rounds = 2
        restored = CampaignResult.from_dict(result.to_dict())
        assert restored.counts == result.counts
        assert restored.from_cache
        assert restored.cpu_seconds == 1.5
        assert restored.runs_requested == 20
        assert restored.wall_seconds == 0.0

    def test_unknown_outcome_rejected(self):
        data = CampaignResult().to_dict()
        data["counts"]["mystery"] = 1
        with pytest.raises(ValueError, match="unknown campaign outcome"):
            CampaignResult.from_dict(data)

    def test_key_ignores_parallelism_without_stopping_rule(self):
        fp = "a" * 64
        assert campaign_key(fp, 100, 0, round_size=50) == \
            campaign_key(fp, 100, 0, round_size=200)
        assert campaign_key(fp, 100, 0) != campaign_key(fp, 101, 0)
        assert campaign_key(fp, 100, 0) != campaign_key(fp, 100, 1)

    def test_key_honours_stopping_rule_knobs(self):
        fp = "a" * 64
        base = campaign_key(fp, 100, 0, ci_halfwidth=0.01, round_size=50)
        assert base == campaign_key(fp, 100, 0, ci_halfwidth=0.01,
                                    round_size=50)
        assert base != campaign_key(fp, 100, 0, ci_halfwidth=0.01,
                                    round_size=200)
        assert base != campaign_key(fp, 100, 0, ci_halfwidth=0.02,
                                    round_size=50)
        assert base != campaign_key(fp, 100, 0)

    def test_all_outcomes_serialized(self):
        data = CampaignResult().to_dict()
        assert set(data["counts"]) == set(OUTCOMES)
