"""The profiling interpreter and the profile it produces."""

import pytest

from repro.interp import ExecutionEngine, InterpreterBug
from repro.ir import I32, FunctionBuilder, Module
from repro.ir.instructions import Branch, Store
from repro.profiling import ProfilingInterpreter
from tests.conftest import cached_module, cached_profile


class TestAgreementWithEngine:
    def test_outputs_match(self, accumulator_module):
        profile, outputs = ProfilingInterpreter(accumulator_module).run()
        golden = ExecutionEngine(accumulator_module).golden()
        assert outputs == golden.outputs

    def test_dynamic_count_matches(self, accumulator_module):
        profile, _ = ProfilingInterpreter(accumulator_module).run()
        golden = ExecutionEngine(accumulator_module).golden()
        assert profile.dynamic_count == golden.dynamic_count

    def test_instruction_counts_match(self, accumulator_module):
        profile, _ = ProfilingInterpreter(accumulator_module).run()
        golden = ExecutionEngine(accumulator_module).golden()
        assert profile.inst_counts == golden.instruction_counts()

    @pytest.mark.parametrize("name", ["pathfinder", "nw", "libquantum"])
    def test_benchmarks_agree(self, name):
        module = cached_module(name)
        profile, outputs = cached_profile(name)
        golden = ExecutionEngine(module).golden()
        assert outputs == golden.outputs
        assert profile.dynamic_count == golden.dynamic_count


class TestFailurePath:
    def test_faulting_program_raises_naming_module(self):
        module = Module("divzero")
        f = FunctionBuilder(module, "main")
        d = f.local("d", I32, init=0)
        f.out(f.c(100) / d.get())
        f.done()
        module.finalize()
        with pytest.raises(InterpreterBug, match="divzero"):
            ProfilingInterpreter(module).run()

    def test_unbounded_recursion_raises_naming_module(self):
        module = Module("recurse")
        f = FunctionBuilder(module, "rec", [I32], ["n"], I32)
        f.ret(f.call("rec", [f.arg(0) + 1], I32))
        f.done()
        main = FunctionBuilder(module, "main")
        main.out(main.call("rec", [main.c(0)], I32))
        main.done()
        module.finalize()
        with pytest.raises(InterpreterBug, match="recurse"):
            ProfilingInterpreter(module).run()

    def test_infinite_loop_exceeds_budget(self):
        # The budget is checked per block, so even a loop that never
        # exits stops within one block of max_dynamic.
        module = Module("spin")
        f = FunctionBuilder(module, "main")
        n = f.local("n", I32, init=0)
        f.while_(lambda: n.get() == n.get(), lambda: n.set(n.get() + 1))
        f.out(n.get())
        f.done()
        module.finalize()
        with pytest.raises(InterpreterBug, match="spin"):
            ProfilingInterpreter(module, max_dynamic=10_000).run()

    def test_budget_is_a_limit_not_a_target(self, accumulator_module):
        dynamic = ExecutionEngine(accumulator_module).golden().dynamic_count
        profile, _ = ProfilingInterpreter(
            accumulator_module, max_dynamic=dynamic
        ).run()
        assert profile.dynamic_count == dynamic
        with pytest.raises(InterpreterBug, match="accumulator"):
            ProfilingInterpreter(
                accumulator_module, max_dynamic=dynamic - 1
            ).run()


class TestBranchProfile:
    def test_biased_loop_branch(self):
        module = Module("m")
        f = FunctionBuilder(module, "main")
        f.for_range(0, 100, lambda i: f.out(i))
        f.done()
        module.finalize()
        profile, _ = ProfilingInterpreter(module).run()
        branch = next(
            inst for inst in module.instructions()
            if isinstance(inst, Branch) and inst.is_conditional
        )
        # Loop continues 100 times, exits once: P(taken) = 100/101.
        assert profile.branch_taken_probability(branch.iid) == pytest.approx(
            100 / 101
        )

    def test_unexecuted_branch_defaults_half(self, accumulator_module):
        profile, _ = ProfilingInterpreter(accumulator_module).run()
        assert profile.branch_taken_probability(99999) == 0.5

    def test_direction_probability_complements(self, pathfinder_profile):
        for iid in list(pathfinder_profile.branch_counts):
            taken = pathfinder_profile.branch_direction_probability(iid, True)
            not_taken = pathfinder_profile.branch_direction_probability(
                iid, False
            )
            assert taken + not_taken == pytest.approx(1.0)


class TestMemoryDependencies:
    def build_producer_consumer(self, n=8):
        module = Module("m")
        f = FunctionBuilder(module, "main")
        arr = f.array("a", I32, n)
        f.for_range(0, n, lambda i: arr.__setitem__(i, i))
        total = f.local("t", I32, init=0)
        f.for_range(0, n, lambda i: total.set(total.get() + arr[i]))
        f.out(total.get())
        f.done()
        return module.finalize()

    def test_store_load_edge_exists(self):
        module = self.build_producer_consumer()
        profile, _ = ProfilingInterpreter(module).run()
        stores = [i for i in module.instructions() if isinstance(i, Store)]
        array_store = max(
            stores, key=lambda s: profile.store_instances.get(s.iid, 0)
        )
        edges = profile.loads_reading(array_store.iid)
        assert edges, "array store must have a reader"
        # Every instance of the array store is read exactly once.
        assert any(weight == pytest.approx(1.0) for _l, weight in edges)

    def test_read_fraction_full(self):
        module = self.build_producer_consumer()
        profile, _ = ProfilingInterpreter(module).run()
        stores = [i for i in module.instructions() if isinstance(i, Store)]
        array_store = max(
            stores, key=lambda s: profile.store_instances.get(s.iid, 0)
        )
        assert profile.store_read_fraction(array_store.iid) == pytest.approx(1.0)

    def test_dead_store_has_no_readers(self):
        module = Module("m")
        f = FunctionBuilder(module, "main")
        arr = f.array("a", I32, 4)
        f.for_range(0, 4, lambda i: arr.__setitem__(i, i))  # never read
        f.out(f.c(0))
        f.done()
        module.finalize()
        profile, _ = ProfilingInterpreter(module).run()
        store = next(
            i for i in module.instructions()
            if isinstance(i, Store) and profile.store_instances.get(i.iid, 0) >= 4
        )
        assert profile.loads_reading(store.iid) == []
        assert profile.store_read_fraction(store.iid) == 0.0

    def test_pruning_collapses_loop_dependencies(self):
        module = self.build_producer_consumer(n=32)
        profile, _ = ProfilingInterpreter(module).run()
        stats = profile.memdep_stats
        assert stats.dynamic_dependencies > stats.static_edges
        assert stats.pruned_fraction > 0.5

    def test_benchmark_pruning_positive(self, benchmark_name):
        profile, _ = cached_profile(benchmark_name)
        assert profile.memdep_stats.pruned_fraction > 0.0


class TestSamplesAndCrashProbabilities:
    def test_operand_samples_capped(self, pathfinder_profile):
        for samples in pathfinder_profile.operand_samples.values():
            assert len(samples) <= 32

    def test_crash_probability_high_for_sparse_space(self, pathfinder_profile):
        # Valid data is tiny inside a 64-bit space: most single-bit
        # address flips must crash.
        probs = [
            pathfinder_profile.crash_probability(iid)
            for iid in pathfinder_profile.crash_prob_samples
        ]
        assert probs
        assert all(p > 0.6 for p in probs)

    def test_execution_probability_clamped(self, pathfinder_profile):
        iids = list(pathfinder_profile.inst_counts)
        hot = max(iids, key=pathfinder_profile.count)
        cold = min(iids, key=pathfinder_profile.count)
        assert pathfinder_profile.execution_probability(hot, cold) == 1.0
        assert 0.0 <= pathfinder_profile.execution_probability(cold, hot) <= 1.0
