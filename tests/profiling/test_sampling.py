"""The profiler's sampling fast paths against their reference forms.

Each wrapped site draws its reservoir slots with an inlined
``getrandbits`` rejection loop and computes P(crash | address-bit flip)
by one set intersection.  Both must equal, bit for bit, the forms the
profile digests were pinned with: ``Random.randrange(seen)`` on the
site's substream, and a test of each of the 64 flipped addresses.  The
CI matrix runs these on every supported interpreter, since the draw
relies on how CPython's ``randrange`` consumes its generator.
"""

import random

import pytest

from repro.bench import build_module
from repro.cache import profile_digest
from repro.interp.memory import GlobalLayout
from repro.profiling import ProfilingInterpreter
from repro.profiling.profile import ProgramProfile
from repro.profiling.profiler import (
    _ProfState,
    _site_seed,
    address_crash_probability,
)

SITE = ("f", 3)


def run_site(cap: int, seed: int, instances: int) -> list:
    """Offer instances 1..``instances`` to one sampled site."""
    prof = _ProfState(ProgramProfile(), seed, {7: SITE}, cap)
    reservoirs: dict = {}
    profiled = prof.sampled(
        7, reservoirs, lambda state, frame: None,
        lambda state, frame: frame,
    )
    for instance in range(1, instances + 1):
        profiled(None, instance)
    return reservoirs[7]


def reference_site(cap: int, seed: int, instances: int) -> list:
    """The reservoir as sampled with ``randrange`` on the substream."""
    rng = random.Random(_site_seed(seed, *SITE))
    reservoir: list = []
    for seen in range(1, instances + 1):
        if len(reservoir) < cap:
            reservoir.append(seen)
            continue
        slot = rng.randrange(seen)
        if slot < cap:
            reservoir[slot] = seen
    return reservoir


def around_powers_of_two(top: int) -> list[int]:
    return sorted({(1 << k) + d for k in range(1, top + 1)
                   for d in (-1, 0, 1)} - {1})


class TestDraw:
    @pytest.mark.parametrize("n", around_powers_of_two(14))
    def test_first_draw_equals_randrange(self, n):
        """With ``sample_cap = n - 1`` the reservoir after instance
        ``n`` reveals the site's first draw exactly."""
        seeds = range(40) if n <= 1024 else range(3)
        for seed in seeds:
            reservoir = run_site(n - 1, seed, n)
            replaced = [slot for slot, kept in enumerate(reservoir)
                        if kept != slot + 1]
            slot = replaced[0] if replaced else n - 1
            assert replaced in ([], [slot])
            if replaced:
                assert reservoir[slot] == n
            expected = random.Random(_site_seed(seed, *SITE)).randrange(n)
            assert slot == expected, (n, seed)

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 32])
    def test_reservoir_equals_randrange_sampling(self, cap):
        for seed in range(25):
            assert (run_site(cap, seed, 3000)
                    == reference_site(cap, seed, 3000)), seed

    def test_long_stream_crosses_two_to_the_sixteen(self):
        for seed in range(2):
            assert (run_site(2, seed, (1 << 16) + 2)
                    == reference_site(2, seed, (1 << 16) + 2))

    def test_cap_below_one_is_rejected(self):
        module = build_module("pathfinder", "test", 0)
        with pytest.raises(ValueError, match="sample_cap"):
            ProfilingInterpreter(module, sample_cap=0)


def crash_probability_loop(address: int, valid) -> float:
    invalid = 0
    for bit in range(64):
        if (address ^ (1 << bit)) not in valid:
            invalid += 1
    return invalid / 64


class TestAddressCrashProbability:
    def test_equals_the_bit_loop_on_a_benchmark_layout(self):
        valid = set(GlobalLayout(build_module("hotspot", "test", 0))
                    .valid_addresses)
        rng = random.Random(5)
        addresses = sorted(valid)[:200] + [
            rng.getrandbits(64) for _ in range(200)
        ] + [0, 1, (1 << 64) - 1]
        for address in addresses:
            assert (address_crash_probability(address, valid)
                    == crash_probability_loop(address, valid)), address

    def test_flips_onto_valid_neighbours(self):
        # Dense ranges, so most low-bit flips of an address stay valid.
        for base in (0, 0x1000, 1 << 40):
            valid = set(range(base, base + 4096))
            valid |= {base ^ (1 << bit) for bit in range(0, 64, 3)}
            for address in list(range(base, base + 4096, 37)) + [base]:
                got = address_crash_probability(address, valid)
                assert got == crash_probability_loop(address, valid)
                assert got < 1.0


#: ``profile_digest`` at ``sample_cap=4``, default scale, input seed 0,
#: pinned before the sampling fast paths: with few slots, far more
#: instances replace a reservoir entry than at the default cap of 32.
CAP4_PINNED = {
    "libquantum":
        "efd566715da81e4b31582026b59bfb3da9a0183a2891ba1b8f87a84f7b26f850",
    "lulesh":
        "ab4355c5ba4af065ffea4646754fbfbe373cfcfa16ee504ad62cc5becc82934b",
    "sad":
        "57aa7dbf6e2c505161e29b126fe740dfcbd4f5fb6865397840f9d1dcf1374a3a",
}


@pytest.mark.parametrize("name", sorted(CAP4_PINNED))
def test_small_cap_profile_digest_pinned(name):
    module = build_module(name, "default", 0)
    profile, _ = ProfilingInterpreter(module, sample_cap=4).run()
    assert profile_digest(profile) == CAP4_PINNED[name]
