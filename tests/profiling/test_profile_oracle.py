"""Cross-version profile oracle: pinned profile digests.

Every benchmark at ``test`` and ``default`` scale (input seed 0) must
profile to exactly these digests.  They pin the whole profile
(counts, branch and select directions, operand and crash-probability
reservoirs, memory dependencies) minus its wall-clock time, so any
change to profiling semantics, sampling order or the IR builders shows
up here.  Re-pin only for a deliberate, documented profile change.
"""

import pytest

from repro.bench import build_module
from repro.cache import profile_digest
from repro.profiling import ProfilingInterpreter

PINNED = {
    ("libquantum", "test"):
        "0141010a016528f0ff617eaed0ac24060fd2a7c89207424f552c3743353edc2f",
    ("blackscholes", "test"):
        "455b7ca1cf26ac5ebcd608130a907a4ab2aaa753bae2d54892552f6bd20d9b8d",
    ("sad", "test"):
        "3fb4fecbe57f032bde72d138c6054dea22e5fdcd8fb6853cc1c50416603e9c9b",
    ("bfs_parboil", "test"):
        "6dc9f454a3d76d652f4f7d3f63d7268f0f4e0810fcacbf18edaaa6570209306c",
    ("hercules", "test"):
        "40e33f932eda959dfb9c50853d3d22543016d519357a614c95b34f2d0cbd1e67",
    ("lulesh", "test"):
        "a8db21cbd4c5120e998ddb663c2f1b4ab1d5ce49479508446d1aa9a4755b8af2",
    ("puremd", "test"):
        "d8c87cb8003fe84d649063591c9af5691eae47e89abf42fc1bcb1df5c2db559a",
    ("nw", "test"):
        "181b1baa8107a6adde6d80af8a6aaa001eeb543d8b5d695b94d6a0f6defd167f",
    ("pathfinder", "test"):
        "6b8607ddad470207fb834ea1a2d3ce6ed2f5dc160201e242e6bfc9f5a18f931c",
    ("hotspot", "test"):
        "7410b6b059ba8aa888a20420486a93fa615c721f30827735c5ce75bb01353d78",
    ("bfs_rodinia", "test"):
        "67bf68d3dc86669f3610ac62291dde2f1cc97d903751ab59888b0e0188368f05",
    ("libquantum", "default"):
        "aff841b513b6f604cd230c832b0a4973740777827c11c778f8eae3678982c16e",
    ("blackscholes", "default"):
        "73e344ca9559a25d39fb52c296d6ad9ae7c14d35cb0a6c9e0e7462abc31c0143",
    ("sad", "default"):
        "ec70bd0cf5c2f596d2531388e60764325a2966257fb76fe557902955c141e90f",
    ("bfs_parboil", "default"):
        "66291a1980406e5722d3ee5301b25fd5f15120d870e74c0bac102585d6d1918e",
    ("hercules", "default"):
        "9ef801e1a352a3f6b6cdd52dc281db30d011317981edea8bc9687ecdac8f1e68",
    ("lulesh", "default"):
        "ea93ceec0235ef9c3779172f70f56a753995619b7b6a3ad3f68a6f62b7521167",
    ("puremd", "default"):
        "9b925fa73bb3ef6964ab6476cf7e8514acc5c00590fb5e52029890a5a8dc08a8",
    ("nw", "default"):
        "1001f1893c8eb2b7e84bfce2dda8fa265dfe09c8c59e7b55529eaed274d4b37f",
    ("pathfinder", "default"):
        "536e103f44e61490109238376aa5dbd617994d5f939e69aeccd0d3d3a24ad161",
    ("hotspot", "default"):
        "1692e489f373799f630be7bd7e6693c1a3a94200c0c03d4d94931ffb0e19032b",
    ("bfs_rodinia", "default"):
        "4f3e4903609a4f8baebb665b496197df9233ba661659cffc3ba27810364ed39b",
}


@pytest.mark.parametrize("name,scale", sorted(PINNED))
def test_profile_digest_pinned(name, scale):
    profile, _ = ProfilingInterpreter(build_module(name, scale, 0)).run()
    assert profile_digest(profile) == PINNED[name, scale]
