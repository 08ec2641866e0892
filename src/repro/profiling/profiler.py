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
_FLIP_MASKS = tuple(1 << bit for bit in range(_ADDRESS_BITS))

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


def address_crash_probability(address: int, valid) -> float:
    """P(crash) over the single-bit flips of an access address: the
    share of the 64 flipped addresses outside the validity set ``valid``.

    The flips are distinct, so counting the valid ones by one set
    intersection gives the same count, and float, as testing each.
    """
    hits = len(valid.intersection([address ^ mask for mask in _FLIP_MASKS]))
    return (_ADDRESS_BITS - hits) / _ADDRESS_BITS


class ProfilingInterpreter:
    """Runs a module once and produces a :class:`ProgramProfile`."""

    def __init__(self, module: Module, sample_cap: int = 32,
                 max_dynamic: int = 50_000_000, seed: int = 2018):
        if not module.is_finalized:
            raise ValueError("finalize the module before profiling")
        if sample_cap < 1:
            raise ValueError(f"sample_cap must be >= 1, got {sample_cap}")
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

    Each sampled site's step is wrapped by :meth:`_ProfState.sampled`,
    which keeps that site's reservoir; the per-instance hooks that must
    see every dynamic instance (select directions, memory dependencies,
    silent stores) run inside the wrapped step.
    """

    def __init__(self, module: Module, prof: "_ProfState",
                 max_dynamic: int):
        self.prof = prof
        super().__init__(module, max_dynamic=max_dynamic, tier=TIER_CLOSURE)

    def _compile_step(self, compiled, inst, step_index: int):
        step = super()._compile_step(compiled, inst, step_index)
        prof = self.prof
        profile = prof.profile
        iid = inst.iid

        if isinstance(inst, (BinOp, ICmp, FCmp)):
            fetch_lhs = self._fetch(compiled, inst.lhs)
            fetch_rhs = self._fetch(compiled, inst.rhs)
            return prof.sampled(
                iid, profile.operand_samples, step,
                lambda state, frame: (fetch_lhs(frame), fetch_rhs(frame)),
            )
        if isinstance(inst, Cast):
            fetch = self._fetch(compiled, inst.value)
            return prof.sampled(
                iid, profile.operand_samples, step,
                lambda state, frame: (fetch(frame),),
            )
        if isinstance(inst, Select):
            fetch_cond = self._fetch(compiled, inst.cond)
            fetch_true = self._fetch(compiled, inst.true_value)
            fetch_false = self._fetch(compiled, inst.false_value)
            select_counts = profile.select_counts

            def counted(state, frame):
                cond = 1 if fetch_cond(frame) else 0
                select_counts.setdefault(iid, [0, 0])[cond] += 1
                step(state, frame)

            return prof.sampled(
                iid, profile.operand_samples, counted,
                lambda state, frame: (1 if fetch_cond(frame) else 0,
                                      fetch_true(frame), fetch_false(frame)),
            )
        if isinstance(inst, (Load, Store)):
            fetch_pointer = self._fetch(compiled, inst.pointer)
            if isinstance(inst, Load):
                record_load = prof.record_load

                def recorded(state, frame):
                    address = fetch_pointer(frame)
                    step(state, frame)
                    record_load(iid, address)
            else:
                fetch_value = self._fetch(compiled, inst.value)
                record_store = prof.record_store

                def recorded(state, frame):
                    address = fetch_pointer(frame)
                    silent = (fetch_value(frame)
                              == state.memory.cells.get(address))
                    step(state, frame)
                    record_store(iid, address, silent)

            return prof.sampled(
                iid, profile.crash_prob_samples, recorded,
                lambda state, frame: address_crash_probability(
                    fetch_pointer(frame), state.memory.valid
                ),
            )
        return step

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
        "dynamic_deps",
    )

    def __init__(self, profile, seed, sites, sample_cap):
        self.profile = profile
        #: addr -> [store_iid, set-of-reader-load-iids]
        self.last_writer: dict[int, list] = {}
        self.seed = seed
        self.sites = sites
        self.sample_cap = sample_cap
        self.dynamic_deps = 0

    def sampled(self, iid: int, reservoirs: dict, step, capture):
        """Wrap ``step`` with site ``iid``'s reservoir sampler.

        Every dynamic instance counts toward the site's ``seen``; the
        sample ``capture(state, frame)`` is taken, before ``step`` runs,
        only for an instance the reservoir keeps: the first
        ``sample_cap`` instances, then each instance whose draw from
        ``randrange(seen)`` on the site's substream lands below the cap.
        The reservoir list is created on the site's first execution, so
        ``reservoirs`` keeps first-execution order.
        """
        cap = self.sample_cap
        name, local = self.sites[iid]
        site_seed = _site_seed(self.seed, name, local)
        seen = 0
        reservoir = None
        getrandbits = None

        def profiled(state, frame):
            nonlocal seen, reservoir, getrandbits
            seen += 1
            if seen > cap:
                # Random.randrange(seen), bit for bit: CPython's
                # _randbelow_with_getrandbits rejection loop.
                k = seen.bit_length()
                slot = getrandbits(k)
                while slot >= seen:
                    slot = getrandbits(k)
                if slot < cap:
                    reservoir[slot] = capture(state, frame)
            else:
                if seen == 1:
                    reservoir = reservoirs.setdefault(iid, [])
                reservoir.append(capture(state, frame))
                if seen == cap:
                    getrandbits = random.Random(site_seed).getrandbits
            step(state, frame)

        return profiled

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
