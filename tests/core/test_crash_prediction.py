"""Crash-probability prediction (extension beyond the paper)."""

import random

import pytest

from repro.core import Trident
from repro.fi import CRASHED, FaultInjector
from tests.conftest import cached_module, cached_profile


@pytest.fixture(scope="module")
def setup():
    module = cached_module("nw")
    profile, _ = cached_profile("nw")
    return module, profile, Trident(module, profile)


class TestCrashPrediction:
    def test_in_unit_interval(self, setup):
        _module, _profile, model = setup
        for iid in model.eligible:
            assert 0.0 <= model.instruction_crash(iid) <= 1.0

    def test_address_chains_crash_prone(self, setup):
        """Instructions feeding addresses (gep indexes) must have much
        higher predicted crash probability than pure value chains."""
        module, profile, model = setup
        gep_feeders = []
        other = []
        for iid in model.eligible:
            inst = module.instruction(iid)
            feeds_gep = any(u.opcode == "gep" for u in inst.users)
            (gep_feeders if feeds_gep else other).append(
                model.instruction_crash(iid)
            )
        assert gep_feeders and other
        assert (sum(gep_feeders) / len(gep_feeders)
                > sum(other) / len(other))

    def test_overall_close_to_fi(self, setup):
        module, _profile, model = setup
        campaign = FaultInjector(module).campaign(400, seed=3)
        predicted = model.overall_crash(samples=400, seed=1)
        assert predicted == pytest.approx(
            campaign.crash_probability, abs=0.15
        )

    def test_ranks_instructions_like_fi(self, setup):
        """Spearman-style check: instructions FI crashes often on should
        get higher predictions than ones it never crashes on."""
        module, _profile, model = setup
        injector = FaultInjector(module)
        iids = model.eligible[:40]
        campaigns = injector.per_instruction_campaign(iids, 30, seed=9)
        crashy = [i for i in iids
                  if campaigns[i].probability(CRASHED) > 0.5]
        calm = [i for i in iids
                if campaigns[i].probability(CRASHED) < 0.1]
        if not crashy or not calm:
            pytest.skip("benchmark lacks contrast at this sample size")
        mean_crashy = sum(model.instruction_crash(i) for i in crashy) / len(crashy)
        mean_calm = sum(model.instruction_crash(i) for i in calm) / len(calm)
        assert mean_crashy > mean_calm

    def test_resultless_is_zero(self, setup):
        module, _profile, model = setup
        store_iid = next(
            inst.iid for inst in module.instructions()
            if inst.opcode == "store"
        )
        assert model.instruction_crash(store_iid) == 0.0


@pytest.mark.parametrize("name", ["libquantum", "lulesh", "pathfinder"])
def test_overall_crash_equals_unmemoized_mean(name):
    """``instruction_crash`` memoizes per instruction; the sampled mean
    must equal the same mean with every pick propagated afresh."""
    module = cached_module(name)
    profile, _ = cached_profile(name)
    model = Trident(module, profile, shared_queries=False)
    picks = random.Random(4).choices(
        model.eligible, weights=model._weights, k=600
    )
    fresh = Trident(module, profile, shared_queries=False)
    expected = sum(
        fresh.propagator.propagate(module.instruction(iid)).crash_probability
        for iid in picks
    ) / 600
    assert len(set(picks)) < len(picks)  # repeats exercise the memo
    assert model.overall_crash(samples=600, seed=4) == expected
    assert model.overall_crash(samples=600, seed=4) == expected
