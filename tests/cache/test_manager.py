"""AnalysisManager: sharing, hit counting, fingerprint invalidation."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.analysis.controldep import ControlDependence
from repro.cache import AnalysisManager, analysis_manager_for
from repro.ir.instructions import BinOp
from repro.query.keys import LocalIndex
from tests.conftest import build_accumulator_module


@pytest.fixture
def module():
    return build_accumulator_module()


@pytest.fixture
def main(module):
    return module.functions["main"]


class TestCaching:
    def test_second_get_returns_same_object(self, module, main):
        manager = AnalysisManager(module)
        first = manager.control_dependence(main)
        second = manager.control_dependence(main)
        assert isinstance(first, ControlDependence)
        assert first is second
        assert manager.misses == 1 and manager.hits == 1

    def test_kinds_are_independent(self, module, main):
        manager = AnalysisManager(module)
        manager.loop_info(main)
        manager.postdominators(main)
        manager.dominators(main)
        assert manager.misses == 3 and manager.hits == 0

    def test_unknown_kind_raises(self, module, main):
        with pytest.raises(KeyError, match="unknown analysis"):
            AnalysisManager(module).get("does-not-exist", main)

    def test_shared_manager_per_module(self, module):
        assert analysis_manager_for(module) is analysis_manager_for(module)
        other = build_accumulator_module()
        assert analysis_manager_for(other) is not analysis_manager_for(module)

    def test_derived_caches_do_not_keep_their_module_alive(self):
        module = build_accumulator_module()
        manager = analysis_manager_for(module)
        manager.control_dependence(module.functions["main"])
        index = LocalIndex.of(module)
        alive = weakref.ref(module)
        del module, manager, index
        gc.collect()
        assert alive() is None


class TestInvalidation:
    def _mutate(self, module) -> None:
        binop = next(
            i for i in module.instructions()
            if isinstance(i, BinOp) and i.op == "add"
        )
        binop.op = "sub"
        module.finalize()

    def test_mutation_invalidates(self, module, main):
        manager = analysis_manager_for(module)
        before = manager.control_dependence(main)
        old_fingerprint = manager.fingerprint
        self._mutate(module)
        assert manager.fingerprint != old_fingerprint
        after = manager.control_dependence(main)
        assert after is not before
        assert manager.invalidations == 1

    def test_noop_refinalize_keeps_entries(self, module, main):
        manager = analysis_manager_for(module)
        before = manager.postdominators(main)
        module.finalize()  # bumps revision, identical IR
        assert manager.postdominators(main) is before
        assert manager.invalidations == 0

    def test_manual_invalidate(self, module, main):
        manager = AnalysisManager(module)
        before = manager.loop_info(main)
        manager.invalidate()
        assert manager.loop_info(main) is not before
