"""Profiling interpreter: one instrumented fault-free execution.

Profiling runs on the closure tier of :class:`ExecutionEngine`: a
private subclass wraps the step closures of the sampled instruction
kinds and the conditional-branch fetches with observer hooks, so the
profile comes from the very semantics that fault injection executes.

Collected facts (Sec. IV-A "profiling phase"):

* execution counts of every static instruction,
* direction counts of every conditional branch and select,
* a reservoir of operand values per instruction (for the fs tuples),
* P(crash | address-bit flip) samples at loads/stores, computed against
  the live memory validity set (the paper approximates this from the
  program's allocated memory size),
* the pruned memory dependency graph: static store→load edges with
  dynamic dependency counts, plus per-store read fractions.
"""

from __future__ import annotations

import random
import time
from hashlib import blake2b

from ..interp.codegen import TIER_CLOSURE
from ..interp.engine import _T_CBR, ExecutionEngine
from ..interp.errors import InterpreterBug
from ..interp.result import OK
from ..ir.instructions import BinOp, Cast, FCmp, ICmp, Load, Select, Store
from ..ir.module import Module
from .profile import ProgramProfile

_ADDRESS_BITS = 64

#: Domain separation for per-site sampling substreams (<=16 bytes).
_SITE_PERSON = b"repro-prof-site"


def _site_seed(seed: int, function_name: str, local_index: int) -> int:
    """Deterministic sub-seed for one instruction site.

    Sampling used to draw from one shared RNG stream, so inserting an
    instruction *anywhere* perturbed the reservoirs of every later
    instruction in the run.  Keying each site's stream on its
    (function, local position) — never the module-wide iid — makes the
    sampled slices of untouched functions bit-identical across
    transforms, the property function-granular profile digests need.
    Same substream protocol as :mod:`repro.fi.seeds`.
    """
    digest = blake2b(
        f"{seed}:{function_name}:{local_index}".encode(),
        digest_size=8, person=_SITE_PERSON,
    ).digest()
    return int.from_bytes(digest, "big")


class ProfilingInterpreter:
    """Runs a module once and produces a :class:`ProgramProfile`."""

    def __init__(self, module: Module, sample_cap: int = 32,
                 max_dynamic: int = 50_000_000, seed: int = 2018):
        if not module.is_finalized:
            raise ValueError("finalize the module before profiling")
        self.module = module
        self.sample_cap = sample_cap
        self.max_dynamic = max_dynamic
        self.seed = seed
        #: iid -> (function name, function-local index): the stable site
        #: identity each sampling substream is keyed on.
        self.sites: dict[int, tuple[str, int]] = {}
        for function in module.functions.values():
            for local, inst in enumerate(function.instructions()):
                self.sites[inst.iid] = (function.name, local)

    def run(self) -> tuple[ProgramProfile, list[str]]:
        """Profile one fault-free execution; returns (profile, outputs)."""
        started = time.perf_counter()
        profile = ProgramProfile()
        state = _ProfState(profile, self.seed, self.sites, self.sample_cap)
        result = _ProfilingEngine(self.module, state, self.max_dynamic).run()
        if result.outcome != OK:
            raise InterpreterBug(
                f"profiling run of {self.module.name} failed: "
                f"{result.outcome} ({result.crash_reason})"
            )

        # Flush pending store instances for read-fraction accounting.
        for store_iid, readers in state.last_writer.values():
            state.finish_instance(store_iid, readers)
        profile.inst_counts = result.instruction_counts()
        profile.dynamic_count = result.dynamic_count
        profile.footprint_bytes = result.footprint_bytes
        profile.memdep_stats.dynamic_dependencies = state.dynamic_deps
        profile.memdep_stats.static_edges = len(profile.mem_edges)
        profile.profiling_seconds = time.perf_counter() - started
        return profile, result.outputs


class _ProfilingEngine(ExecutionEngine):
    """The closure tier with observer hooks around the sampled steps.

    Each wrapper counts its site's dynamic instances (the reservoirs'
    ``seen``), calls the :class:`_ProfState` hooks that precede the
    instruction, runs the engine's own step, then the hooks that follow.
    """

    def __init__(self, module: Module, prof: "_ProfState",
                 max_dynamic: int):
        self.prof = prof
        super().__init__(module, max_dynamic=max_dynamic, tier=TIER_CLOSURE)

    def _compile_step(self, compiled, inst, step_index: int):
        step = super()._compile_step(compiled, inst, step_index)
        prof = self.prof
        iid = inst.iid
        seen = 0

        if isinstance(inst, (BinOp, ICmp, FCmp)):
            fetch_lhs = self._fetch(compiled, inst.lhs)
            fetch_rhs = self._fetch(compiled, inst.rhs)

            def profiled(state, frame):
                nonlocal seen
                seen += 1
                prof.sample_operands(
                    iid, (fetch_lhs(frame), fetch_rhs(frame)), seen
                )
                step(state, frame)
        elif isinstance(inst, Cast):
            fetch = self._fetch(compiled, inst.value)

            def profiled(state, frame):
                nonlocal seen
                seen += 1
                prof.sample_operands(iid, (fetch(frame),), seen)
                step(state, frame)
        elif isinstance(inst, Select):
            fetch_cond = self._fetch(compiled, inst.cond)
            fetch_true = self._fetch(compiled, inst.true_value)
            fetch_false = self._fetch(compiled, inst.false_value)
            select_counts = prof.profile.select_counts

            def profiled(state, frame):
                nonlocal seen
                seen += 1
                cond = 1 if fetch_cond(frame) else 0
                select_counts.setdefault(iid, [0, 0])[cond] += 1
                prof.sample_operands(
                    iid, (cond, fetch_true(frame), fetch_false(frame)), seen
                )
                step(state, frame)
        elif isinstance(inst, Load):
            fetch_pointer = self._fetch(compiled, inst.pointer)

            def profiled(state, frame):
                nonlocal seen
                seen += 1
                address = fetch_pointer(frame)
                prof.sample_memory_access(
                    iid, address, seen, state.memory.valid
                )
                step(state, frame)
                prof.record_load(iid, address)
        elif isinstance(inst, Store):
            fetch_pointer = self._fetch(compiled, inst.pointer)
            fetch_value = self._fetch(compiled, inst.value)

            def profiled(state, frame):
                nonlocal seen
                seen += 1
                address = fetch_pointer(frame)
                prof.sample_memory_access(
                    iid, address, seen, state.memory.valid
                )
                silent = fetch_value(frame) == state.memory.cells.get(address)
                step(state, frame)
                prof.record_store(iid, address, silent)
        else:
            return step
        return profiled

    def _compile_terminator(self, compiled, cblock, inst, block_map) -> None:
        super()._compile_terminator(compiled, cblock, inst, block_map)
        if cblock.term_kind != _T_CBR:
            return
        fetch, true_block, false_block = cblock.term_payload
        branch_counts = self.prof.profile.branch_counts
        iid = inst.iid

        def taken(frame):
            direction = 1 if fetch(frame) else 0
            branch_counts.setdefault(iid, [0, 0])[direction] += 1
            return direction

        cblock.term_payload = (taken, true_block, false_block)


class _ProfState:
    """Profile-building hooks and the state they share across the run."""

    __slots__ = (
        "profile", "last_writer", "seed", "sites", "sample_cap",
        "dynamic_deps", "_rngs",
    )

    def __init__(self, profile, seed, sites, sample_cap):
        self.profile = profile
        #: addr -> [store_iid, set-of-reader-load-iids]
        self.last_writer: dict[int, list] = {}
        self.seed = seed
        self.sites = sites
        self.sample_cap = sample_cap
        self.dynamic_deps = 0
        self._rngs: dict[int, random.Random] = {}

    def rng_for(self, iid: int) -> random.Random:
        """This instruction site's private sampling substream."""
        rng = self._rngs.get(iid)
        if rng is None:
            name, local = self.sites[iid]
            rng = random.Random(_site_seed(self.seed, name, local))
            self._rngs[iid] = rng
        return rng

    def sample_operands(self, iid: int, operands: tuple, seen: int) -> None:
        """Reservoir-sample the operand tuple of one dynamic instance.

        ``seen`` counts this site's dynamic instances, this one included.
        """
        reservoir = self.profile.operand_samples.setdefault(iid, [])
        if len(reservoir) < self.sample_cap:
            reservoir.append(operands)
            return
        slot = self.rng_for(iid).randrange(seen)
        if slot < self.sample_cap:
            reservoir[slot] = operands

    def sample_memory_access(self, iid: int, address: int, seen: int,
                             valid) -> None:
        """Sample P(crash) over single-bit flips of this access address,
        against the live memory validity set ``valid``."""
        reservoir = self.profile.crash_prob_samples.setdefault(iid, [])
        if len(reservoir) >= self.sample_cap:
            slot = self.rng_for(iid).randrange(seen)
            if slot >= self.sample_cap:
                return
        else:
            slot = len(reservoir)
        invalid = 0
        for bit in range(_ADDRESS_BITS):
            if (address ^ (1 << bit)) not in valid:
                invalid += 1
        crash_prob = invalid / _ADDRESS_BITS
        if slot < len(reservoir):
            reservoir[slot] = crash_prob
        else:
            reservoir.append(crash_prob)

    def record_store(self, iid: int, address: int,
                     silent: bool = False) -> None:
        profile = self.profile
        previous = self.last_writer.get(address)
        if previous is not None:
            self.finish_instance(previous[0], previous[1])
        self.last_writer[address] = [iid, None]
        profile.store_instances[iid] = profile.store_instances.get(iid, 0) + 1
        if silent:
            profile.silent_stores[iid] = profile.silent_stores.get(iid, 0) + 1

    def finish_instance(self, store_iid: int, readers) -> None:
        """Close out one store instance: record who read it."""
        profile = self.profile
        if readers:
            profile.store_instances_read[store_iid] = (
                profile.store_instances_read.get(store_iid, 0) + 1
            )
            key = (store_iid, frozenset(readers))
        else:
            key = (store_iid, frozenset())
        sets = profile.store_reader_sets
        sets[key] = sets.get(key, 0) + 1

    def record_load(self, iid: int, address: int) -> None:
        entry = self.last_writer.get(address)
        if entry is None:
            return
        self.dynamic_deps += 1
        key = (entry[0], iid)
        edges = self.profile.mem_edges
        edges[key] = edges.get(key, 0) + 1
        if entry[1] is None:
            entry[1] = {iid}
        else:
            entry[1].add(iid)
