"""Fast execution engine for the mini-IR.

The engine compiles every instruction once into a small Python closure
("step"); running a program is then a tight loop over per-block step
lists.  This is what makes LLFI-style fault-injection campaigns (many
thousands of complete executions) tractable in pure Python.

Fault injection is built in: a run can be armed with an
:class:`Injection` naming a static instruction, the k-th dynamic
occurrence of it, and a bit to flip in its destination register — exactly
the fault model of the paper (transient fault in a computational
element's output, Sec. II-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.bitutils import flip_bit_typed, mask, to_signed
from ..ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Detect,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Output,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.module import Module
from ..ir.values import Argument, Constant, GlobalVariable, Value
from .checkpoint import FrameSnap, GoldenCapture, Snapshot
from .codegen import TIER_BATCH, TIER_CODEGEN, generate_function, resolve_tier
from .errors import (
    ArithmeticTrap,
    DetectionTrap,
    HangFault,
    InterpreterBug,
    MemoryFault,
    StackOverflow,
)
from .intrinsics import call_intrinsic, is_intrinsic
from .memory import GlobalLayout, MemoryState
from .ops import (
    default_value,
    eval_cast,
    eval_fcmp,
    eval_float_binop,
    eval_icmp,
    eval_int_binop,
    format_output,
    reinterpret_loaded,
)
from .result import CRASH, DETECTED, HANG, OK, RunResult

_MASK64 = mask(64)

#: ``next_capture`` of runs that take no snapshots: beyond any budget.
_NEVER = 1 << 62

#: Engines compiled in this process.  Campaign workers must build one
#: engine per (module revision) and reuse it for every run; the
#: regression tests in ``tests/fi/test_engine_reuse.py`` watch this.
_ENGINE_BUILDS = 0


def engine_build_count() -> int:
    """How many ExecutionEngines this process has compiled so far."""
    return _ENGINE_BUILDS


@dataclass(frozen=True)
class Injection:
    """A single-bit transient fault in one dynamic instruction instance."""

    iid: int          # static instruction id (must produce a result)
    occurrence: int   # 1-based dynamic occurrence of that instruction
    bit: int          # bit position to flip in the destination register


def _maybe_inject(state, value, value_type):
    """Occurrence bookkeeping + bit flip for the armed injection.

    Shared by the closure tier, the codegen tier's inject variants, and
    the phi-move helper: every code location that can produce the armed
    instruction's value must route through this exact bookkeeping.
    """
    state.occurrence += 1
    if state.occurrence != state.inject_occurrence:
        return value
    state.activated = True
    return flip_bit_typed(value, state.inject_bit, value_type)


def _apply_phi_moves(state, frame, block, previous) -> None:
    """Parallel phi copy for entering ``block`` from ``previous``.

    Evaluate every incoming value first, then assign with per-phi
    injection checks — the one definition both interpreter loops (and
    the codegen tier's block-entry path) share, so they cannot diverge.
    """
    if block.phi_moves is None:
        return
    moves = block.phi_moves.get(previous)
    if moves:
        values = [fetch(frame) for _d, fetch, _i, _t in moves]
        for (dest, _fetch, iid, value_type), value in zip(moves, values):
            if state.inject_iid == iid:
                value = _maybe_inject(state, value, value_type)
            frame.slots[dest] = value


class _Frame:
    """One activation record: value slots plus per-frame alloca cache."""

    __slots__ = ("slots", "allocas", "owned", "compiled", "caller",
                 "block", "previous", "step_index")

    def __init__(self, n_slots: int, compiled=None, caller=None):
        self.slots = [None] * n_slots
        self.allocas: dict[int, int] = {}
        self.owned: list[int] = []
        #: Where a snapshot finds this frame: its function, the calling
        #: frame, the block the closure loop is in (entered from
        #: ``previous``) and the call step it is suspended at, if any.
        self.compiled = compiled
        self.caller = caller
        self.block = None
        self.previous = None
        self.step_index = -1


class _State:
    """Per-run mutable state shared across frames."""

    __slots__ = (
        "memory", "outputs", "dynamic_count", "budget", "block_counts",
        "inject_iid", "inject_occurrence", "inject_bit", "occurrence",
        "activated", "call_depth", "call", "ret_value", "codegen", "frame",
        "next_capture",
    )

    def __init__(self, memory: MemoryState, budget: int, n_blocks: int = 0):
        self.memory = memory
        self.outputs: list[str] = []
        self.dynamic_count = 0
        self.budget = budget
        #: Dense per-block execution counters, indexed by the engine's
        #: global block ordinal; converted to the block -> count mapping
        #: of RunResult at run end.
        self.block_counts: list[int] = [0] * n_blocks
        self.inject_iid = -1
        self.inject_occurrence = 0
        self.inject_bit = 0
        self.occurrence = 0
        self.activated = False
        self.call_depth = 0
        #: The engine's ``_call``, reached by call steps of both tiers.
        self.call = None
        #: Return-value mailbox of the codegen tier's block functions.
        self.ret_value = None
        #: Whether calls run generated block functions where they exist
        #: (never during a capture pass: only the closure loop snapshots).
        self.codegen = False
        #: Innermost frame entered by ``_call``; a snapshot walks its
        #: ``caller`` chain (resumed runs take no snapshots).
        self.frame = None
        #: Dynamic index of the next snapshot; plain runs never reach it.
        self.next_capture = _NEVER


class _CaptureState(_State):
    """Extra bookkeeping for the snapshot-capturing golden pass."""

    __slots__ = ("stride", "snapshots", "max_snapshots")

    def __init__(self, memory: MemoryState, budget: int, stride: int,
                 max_snapshots: int, n_blocks: int = 0):
        super().__init__(memory, budget, n_blocks)
        self.stride = stride
        self.next_capture = stride
        self.snapshots: list[Snapshot] = []
        self.max_snapshots = max_snapshots


# Terminator kinds.
_T_JUMP, _T_CBR, _T_RET = 0, 1, 2


class _CompiledBlock:
    __slots__ = ("block", "steps", "step_insts", "term_kind", "term_payload",
                 "cost", "phi_moves", "ordinal", "local_index")

    def __init__(self, block):
        self.block = block
        self.steps = []
        #: Source instruction of each step, parallel to ``steps`` — the
        #: checkpoint layer maps a suspended step index back to the call
        #: instruction whose return value a resumed frame must place.
        self.step_insts = []
        self.term_kind = _T_RET
        self.term_payload = None
        self.cost = 0
        #: predecessor _CompiledBlock -> [(dest_slot, fetch, iid, type)]
        self.phi_moves = None
        #: Module-global index into the dense block-counter array.
        self.ordinal = -1
        #: Index into the owning function's codegen dispatch tables.
        self.local_index = -1


class _CompiledFunction:
    __slots__ = ("function", "n_args", "n_slots", "slot_of", "blocks",
                 "entry", "cg_fast", "cg_inject", "cg_covered", "cg_iids",
                 "cg_tables")

    def __init__(self, function):
        self.function = function
        self.n_args = len(function.args)
        self.slot_of: dict[int, int] = {}
        next_slot = self.n_args
        for inst in function.instructions():
            if inst.has_result:
                self.slot_of[id(inst)] = next_slot
                next_slot += 1
        self.n_slots = next_slot
        self.blocks: dict = {}
        self.entry = None
        #: Codegen tier: block functions by local index (None = this
        #: function runs on the closure tier), their injection-capable
        #: twins, the per-block-function sets of iids those twins guard,
        #: and memoized per-injection dispatch tables.
        self.cg_fast = None
        self.cg_inject = None
        self.cg_covered = None
        self.cg_iids = frozenset()
        self.cg_tables: dict = {}

    def cg_table(self, inject_iid: int):
        """Dispatch table for one armed iid: the inject variant is
        selected only for block functions that guard that iid, so
        every other block runs with zero injection overhead."""
        if inject_iid < 0 or inject_iid not in self.cg_iids:
            return self.cg_fast
        table = self.cg_tables.get(inject_iid)
        if table is None:
            table = [
                inject if inject_iid in covered else fast
                for fast, inject, covered in zip(
                    self.cg_fast, self.cg_inject, self.cg_covered)
            ]
            self.cg_tables[inject_iid] = table
        return table


class ExecutionEngine:
    """Compiles a finalized module and executes it (optionally with a fault)."""

    def __init__(self, module: Module, max_dynamic: int = 20_000_000,
                 stack_limit: int = 256, tier: str | None = None):
        if not module.is_finalized:
            raise ValueError("finalize the module before building an engine")
        if "main" not in module.functions:
            raise ValueError("module has no main function")
        if module.functions["main"].args:
            raise ValueError("main must take no arguments")
        self.module = module
        self.max_dynamic = max_dynamic
        self.stack_limit = stack_limit
        self.layout = GlobalLayout(module)
        self._compiled: dict[str, _CompiledFunction] = {}
        for function in module.functions.values():
            self._compiled[function.name] = _CompiledFunction(function)
        for compiled in self._compiled.values():
            self._compile_function(compiled)
        # Global block ordinals index the dense per-run counter array
        # shared by both tiers and by checkpoint snapshots.
        order: list = []
        ordinals: dict = {}
        for compiled in self._compiled.values():
            for local_index, cblock in enumerate(compiled.blocks.values()):
                cblock.local_index = local_index
                cblock.ordinal = len(order)
                ordinals[cblock.block] = cblock.ordinal
                order.append(cblock.block)
        self._block_order = order
        self._ordinals = ordinals
        self._n_blocks = len(order)
        #: iid -> (home IR block, step position) for the checkpoint layer.
        self._homes: dict[int, tuple] | None = None
        self.tier = resolve_tier(tier)
        self.codegen_functions = 0
        self.codegen_fallbacks = 0
        self._codegen_built = False
        self._batch_runner = None
        self._analyses = None
        # The batch tier drains diverged lanes on generated block
        # functions, so it implies the codegen representation.
        self._codegen_on = self.tier in (TIER_CODEGEN, TIER_BATCH)
        if self._codegen_on:
            self._build_codegen()
        global _ENGINE_BUILDS
        _ENGINE_BUILDS += 1

    def _build_codegen(self) -> None:
        """Generate the codegen tier once, with per-function fallback.

        A function the generator cannot translate simply keeps running
        on the closure tier (``cg_fast is None``) — the same
        degradation-over-divergence contract as checkpointing.
        """
        if self._codegen_built:
            return
        self._codegen_built = True
        for compiled in self._compiled.values():
            try:
                fast, inject, covered, _source = generate_function(
                    self, compiled
                )
            except Exception:
                self.codegen_fallbacks += 1
            else:
                compiled.cg_fast = fast
                compiled.cg_inject = inject
                compiled.cg_covered = covered
                compiled.cg_iids = frozenset().union(*covered)
                self.codegen_functions += 1

    def configure_tier(self, tier: str | None) -> None:
        """(Re)select the execution tier for subsequent runs.

        Both representations coexist on one engine, so campaign workers
        can honor a per-span tier knob without recompiling anything —
        the engine-reuse invariant in ``tests/fi/test_engine_reuse.py``.
        """
        self.tier = resolve_tier(tier)
        self._codegen_on = self.tier in (TIER_CODEGEN, TIER_BATCH)
        if self._codegen_on:
            self._build_codegen()

    def block_ordinal(self, block) -> int:
        """Index of an IR block in the dense counter array."""
        return self._ordinals[block]

    def _block_counts_map(self, counts: list) -> dict:
        """Dense counter array -> the block -> count mapping of RunResult."""
        order = self._block_order
        return {order[index]: count
                for index, count in enumerate(counts) if count}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, injection: Injection | None = None,
            budget: int | None = None) -> RunResult:
        """Execute main once; classify crashes/hangs/detections."""
        memory = MemoryState(self.layout)
        state = _State(memory, budget or self.max_dynamic, self._n_blocks)
        state.call = self._call
        state.codegen = self._codegen_on
        if injection is not None:
            target = self.module.instruction(injection.iid)
            if not target.has_result:
                raise ValueError(
                    f"instruction #{injection.iid} has no destination register"
                )
            if not 0 <= injection.bit < target.type.bits:
                raise ValueError(
                    f"bit {injection.bit} out of range for {target.type}"
                )
            state.inject_iid = injection.iid
            state.inject_occurrence = injection.occurrence
            state.inject_bit = injection.bit

        outcome, crash_reason = OK, ""
        try:
            self._call(self._compiled["main"], [], state)
        except (MemoryFault, ArithmeticTrap, StackOverflow) as fault:
            outcome, crash_reason = CRASH, str(fault)
        except HangFault as fault:
            outcome, crash_reason = HANG, str(fault)
        except DetectionTrap as fault:
            outcome, crash_reason = DETECTED, str(fault)

        return RunResult(
            outcome=outcome,
            outputs=state.outputs,
            dynamic_count=state.dynamic_count,
            crash_reason=crash_reason,
            activated=state.activated,
            block_counts=self._block_counts_map(state.block_counts),
            footprint_bytes=state.memory.footprint_bytes,
        )

    def golden(self) -> RunResult:
        """Fault-free reference run; raises if the program itself fails."""
        result = self.run()
        if result.outcome != OK:
            raise InterpreterBug(
                f"golden run of {self.module.name} failed: "
                f"{result.outcome} ({result.crash_reason})"
            )
        return result

    # ------------------------------------------------------------------
    # Interpretation loop
    # ------------------------------------------------------------------

    def _call(self, compiled: _CompiledFunction, args: list, state: _State,
              caller_step: int = -1):
        if state.call_depth >= self.stack_limit:
            raise StackOverflow(f"call depth exceeded {self.stack_limit}")
        state.call_depth += 1
        caller = state.frame
        if caller is not None:
            caller.step_index = caller_step  # suspended at this call step
        frame = _Frame(compiled.n_slots, compiled, caller)
        frame.slots[: compiled.n_args] = args
        state.frame = frame
        try:
            if state.codegen and compiled.cg_fast is not None:
                return self._cg_run(
                    compiled, frame, compiled.entry.local_index, state
                )
            return self._loop(compiled, frame, compiled.entry, None, state)
        finally:
            state.frame = caller
            state.call_depth -= 1
            state.memory.free(frame.owned)

    def _cg_run(self, compiled, frame, index: int, state: _State):
        """The codegen tier's driver: each generated block function
        executes one (super)block iteration — successor phi moves
        included — and returns the next block's local index (-1 = ret)."""
        table = compiled.cg_table(state.inject_iid)
        while index >= 0:
            index = table[index](state, frame)
        return state.ret_value

    def _enter_block(self, compiled, frame, block, previous, state: _State):
        """Resume execution at the top of ``block`` (entered from
        ``previous``) on whichever tier ``compiled`` runs on."""
        if state.codegen and compiled.cg_fast is not None:
            _apply_phi_moves(state, frame, block, previous)
            return self._cg_run(compiled, frame, block.local_index, state)
        return self._loop(compiled, frame, block, previous, state)

    def _loop(self, compiled, frame, block, previous, state: _State):
        """The closure tier's block dispatch loop, from the top of
        ``block``.

        The snapshot check sits at the very top of the loop — before the
        pending block's phi moves, cost, and count — so a snapshot sees
        only *completed* block iterations in every frame but the callers
        suspended mid-block at a call step.
        """
        block_counts = state.block_counts
        while True:
            frame.block = block
            frame.previous = previous
            if state.dynamic_count >= state.next_capture:
                self._take_snapshot(state)
            _apply_phi_moves(state, frame, block, previous)
            state.dynamic_count += block.cost
            if state.dynamic_count > state.budget:
                raise HangFault(state.dynamic_count)
            block_counts[block.ordinal] += 1
            for step in block.steps:
                step(state, frame)
            kind = block.term_kind
            if kind == _T_JUMP:
                previous = block
                block = block.term_payload
            elif kind == _T_CBR:
                fetch, true_block, false_block = block.term_payload
                previous = block
                block = true_block if fetch(frame) else false_block
            else:  # _T_RET
                fetch = block.term_payload
                return fetch(frame) if fetch is not None else None

    # ------------------------------------------------------------------
    # Checkpoint-and-fork execution (see repro.interp.checkpoint)
    # ------------------------------------------------------------------

    def capture(self, stride: int, max_snapshots: int = 256) -> GoldenCapture:
        """One instrumented golden run capturing resumable snapshots.

        Snapshots are taken at block boundaries, the first one at or
        after dynamic index ``stride`` and then every ``stride``
        instructions, up to ``max_snapshots``.  Raises
        :class:`InterpreterBug` if the fault-free program does not
        complete (the same contract as :meth:`golden`).
        """
        if stride < 1:
            raise ValueError(f"capture stride must be >= 1, got {stride}")
        state = _CaptureState(MemoryState(self.layout), self.max_dynamic,
                              stride, max_snapshots, self._n_blocks)
        state.call = self._call
        try:
            self._call(self._compiled["main"], [], state)
        except (MemoryFault, ArithmeticTrap, StackOverflow, HangFault,
                DetectionTrap) as fault:
            raise InterpreterBug(
                f"golden capture of {self.module.name} failed: {fault}"
            ) from fault
        result = RunResult(
            outcome=OK,
            outputs=state.outputs,
            dynamic_count=state.dynamic_count,
            block_counts=self._block_counts_map(state.block_counts),
            footprint_bytes=state.memory.footprint_bytes,
        )
        return GoldenCapture(self, result, state.snapshots, stride)

    def _take_snapshot(self, state: _CaptureState) -> None:
        chain = []
        frame = state.frame
        while frame is not None:
            chain.append(frame)
            frame = frame.caller
        chain.reverse()
        last = len(chain) - 1
        frames = tuple(
            FrameSnap(
                frame.compiled, tuple(frame.slots), dict(frame.allocas),
                tuple(frame.owned), frame.block, frame.previous,
                frame.step_index if index < last else -1,
            )
            for index, frame in enumerate(chain)
        )
        memory = state.memory
        state.snapshots.append(Snapshot(
            dynamic_count=state.dynamic_count,
            frames=frames,
            cells=dict(memory.cells),
            valid=set(memory.valid),
            stack_cursor=memory.stack_cursor,
            footprint_bytes=memory.footprint_bytes,
            outputs_len=len(state.outputs),
            block_counts=list(state.block_counts),
        ))
        if len(state.snapshots) >= state.max_snapshots:
            state.next_capture = _NEVER  # schedule exhausted
        else:
            state.next_capture = state.dynamic_count + state.stride

    def instruction_home(self, iid: int):
        """(home IR block, step position) of an instruction, or None.

        Position is the index in the home block's step list; phis are
        -1 (they execute as edge moves before any step).  Terminators
        and instructions of other modules have no home here.
        """
        if self._homes is None:
            homes: dict[int, tuple] = {}
            for compiled in self._compiled.values():
                for cblock in compiled.blocks.values():
                    for position, inst in enumerate(cblock.step_insts):
                        homes[inst.iid] = (cblock.block, position)
                    for phi in cblock.block.phis():
                        homes[phi.iid] = (cblock.block, -1)
            self._homes = homes
        return self._homes.get(iid)

    def resume_run(self, capture: GoldenCapture, snapshot: Snapshot,
                   injection: Injection | None = None,
                   budget: int | None = None) -> RunResult:
        """Restore ``snapshot`` and execute the remaining suffix.

        Equivalent to :meth:`run` with the same injection whenever the
        injection point lies at-or-after the snapshot (the scheduler's
        :meth:`GoldenCapture.snapshot_for` guarantees it): the restored
        state is bit-identical to the cold run's state at that point,
        and the engine holds no wall-clock or RNG state that could make
        the suffix diverge.
        """
        occurrence = 0
        if injection is not None:
            # The prefix already executed this many occurrences of the
            # target; the armed occurrence must fire in the suffix.
            occurrence = capture.prefix_occurrence(snapshot, injection.iid)
        return self.resume_snapshot(
            snapshot, injection, budget,
            occurrence=occurrence,
            outputs=capture.result.outputs[: snapshot.outputs_len],
        )

    def resume_snapshot(self, snapshot: Snapshot,
                        injection: Injection | None = None,
                        budget: int | None = None, *,
                        occurrence: int = 0,
                        outputs: list | None = None,
                        activated: bool = False) -> RunResult:
        """Execute a suffix from an explicit mid-run state.

        The general form of :meth:`resume_run`: callers provide the
        occurrence count the prefix already consumed and the output
        buffer as of the snapshot.  The batch tier uses this to drain a
        diverged lane — its snapshot is synthesized from lockstep state
        rather than a golden capture, and a lane whose fault already
        fired hands over ``activated=True`` with its occurrence count so
        the armed instance cannot fire twice.
        """
        state = _State(
            MemoryState.restored(
                dict(snapshot.cells), set(snapshot.valid),
                snapshot.stack_cursor, snapshot.footprint_bytes,
            ),
            budget or self.max_dynamic,
        )
        state.call = self._call
        state.codegen = self._codegen_on
        state.outputs = list(outputs) if outputs is not None else []
        state.dynamic_count = snapshot.dynamic_count
        state.block_counts = list(snapshot.block_counts)
        state.activated = activated
        if injection is not None:
            target = self.module.instruction(injection.iid)
            if not target.has_result:
                raise ValueError(
                    f"instruction #{injection.iid} has no destination register"
                )
            if not 0 <= injection.bit < target.type.bits:
                raise ValueError(
                    f"bit {injection.bit} out of range for {target.type}"
                )
            state.inject_iid = injection.iid
            state.inject_occurrence = injection.occurrence
            state.inject_bit = injection.bit
            state.occurrence = occurrence

        outcome, crash_reason = OK, ""
        try:
            self._resume_frame(snapshot, 0, state)
        except (MemoryFault, ArithmeticTrap, StackOverflow) as fault:
            outcome, crash_reason = CRASH, str(fault)
        except HangFault as fault:
            outcome, crash_reason = HANG, str(fault)
        except DetectionTrap as fault:
            outcome, crash_reason = DETECTED, str(fault)

        return RunResult(
            outcome=outcome,
            outputs=state.outputs,
            dynamic_count=state.dynamic_count,
            crash_reason=crash_reason,
            activated=state.activated,
            block_counts=self._block_counts_map(state.block_counts),
            footprint_bytes=state.memory.footprint_bytes,
        )

    def _resume_frame(self, snapshot: Snapshot, depth: int, state: _State):
        """Rebuild one activation record and continue its execution.

        Outer frames are suspended at a call step: the callee (the next
        frame) resumes first, then its return value is placed exactly
        as the call step would have (injection hook included) and the
        block's remaining steps run.  The innermost frame resumes at
        the top of the block loop, where the capture was taken.
        """
        frec = snapshot.frames[depth]
        compiled = frec.compiled
        state.call_depth += 1
        frame = _Frame(compiled.n_slots)
        frame.slots[:] = frec.slots
        frame.allocas.update(frec.allocas)
        frame.owned.extend(frec.owned)
        try:
            if depth + 1 < len(snapshot.frames):
                value = self._resume_frame(snapshot, depth + 1, state)
                cblock = frec.cblock
                inst = cblock.step_insts[frec.step_index]
                if inst.has_result:
                    if state.inject_iid == inst.iid:
                        value = self._maybe_inject(state, value, inst.type)
                    frame.slots[compiled.slot_of[id(inst)]] = value
                return self._loop_from(
                    compiled, frame, cblock, frec.step_index + 1, state
                )
            return self._enter_block(compiled, frame, frec.cblock,
                                     frec.previous, state)
        finally:
            state.call_depth -= 1
            state.memory.free(frame.owned)

    @property
    def analyses(self):
        """The module's shared :class:`AnalysisManager`.

        The batch tier resolves reconvergence targets through it
        (``ipostdominators``), so the per-function results are cached
        once per module and shared with the modeling stack's query
        engine rather than recomputed per engine build.
        """
        if self._analyses is None:
            from ..cache.manager import analysis_manager_for
            self._analyses = analysis_manager_for(self.module)
        return self._analyses

    def batch_runner(self):
        """The lazily-built lockstep batch runner for this engine.

        Requires numpy (:data:`repro.interp.batch.HAVE_NUMPY`); callers
        that must degrade gracefully check that flag first.  Like the
        codegen tables, the runner is per-engine state reused across
        every group of trials.
        """
        if self._batch_runner is None:
            from .batch import BatchRunner
            self._batch_runner = BatchRunner(self)
        return self._batch_runner

    def _loop_from(self, compiled, frame, cblock, start: int, state: _State):
        """Finish a block from step ``start``, then rejoin the main loop."""
        steps = cblock.steps
        for index in range(start, len(steps)):
            steps[index](state, frame)
        kind = cblock.term_kind
        if kind == _T_RET:
            fetch = cblock.term_payload
            return fetch(frame) if fetch is not None else None
        if kind == _T_JUMP:
            block = cblock.term_payload
        else:  # _T_CBR
            fetch, true_block, false_block = cblock.term_payload
            block = true_block if fetch(frame) else false_block
        return self._enter_block(compiled, frame, block, cblock, state)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _compile_function(self, compiled: _CompiledFunction) -> None:
        function = compiled.function
        block_map = {
            block: _CompiledBlock(block) for block in function.blocks
        }
        for block, cblock in block_map.items():
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    continue  # executed as edge moves, not steps
                if inst.is_terminator:
                    self._compile_terminator(compiled, cblock, inst, block_map)
                else:
                    step_index = len(cblock.steps)
                    cblock.step_insts.append(inst)
                    cblock.steps.append(
                        self._compile_step(compiled, inst, step_index)
                    )
            cblock.cost = len(block.instructions)
        # Phi nodes become parallel copies on each incoming edge.
        for block, cblock in block_map.items():
            phis = block.phis()
            if not phis:
                continue
            cblock.phi_moves = {}
            for pred in block.predecessors:
                moves = []
                for phi in phis:
                    moves.append((
                        compiled.slot_of[id(phi)],
                        self._fetch(compiled, phi.value_for(pred)),
                        phi.iid,
                        phi.type,
                    ))
                cblock.phi_moves[block_map[pred]] = moves
        compiled.blocks = block_map
        compiled.entry = block_map[function.entry]

    def _fetch(self, compiled: _CompiledFunction, value: Value):
        """Closure returning the runtime value of an operand."""
        if isinstance(value, Constant):
            constant = value.value
            return lambda frame: constant
        if isinstance(value, GlobalVariable):
            address = self.layout.addresses[value.name]
            return lambda frame: address
        if isinstance(value, Argument):
            index = value.index
            return lambda frame: frame.slots[index]
        if isinstance(value, Instruction):
            slot = compiled.slot_of[id(value)]
            return lambda frame: frame.slots[slot]
        raise InterpreterBug(f"cannot fetch {value!r}")

    def _compile_terminator(self, compiled, cblock, inst, block_map) -> None:
        if isinstance(inst, Branch):
            if not inst.is_conditional:
                cblock.term_kind = _T_JUMP
                cblock.term_payload = block_map[inst.true_block]
            else:
                cblock.term_kind = _T_CBR
                cblock.term_payload = (
                    self._fetch(compiled, inst.cond),
                    block_map[inst.true_block],
                    block_map[inst.false_block],
                )
        elif isinstance(inst, Ret):
            cblock.term_kind = _T_RET
            cblock.term_payload = (
                self._fetch(compiled, inst.value)
                if inst.value is not None else None
            )
        else:
            raise InterpreterBug(f"unknown terminator {inst!r}")

    # -- step compilation ---------------------------------------------------

    def _compile_step(self, compiled, inst: Instruction, step_index: int):
        if isinstance(inst, BinOp):
            return self._step_binop(compiled, inst)
        if isinstance(inst, ICmp):
            return self._step_icmp(compiled, inst)
        if isinstance(inst, FCmp):
            return self._step_fcmp(compiled, inst)
        if isinstance(inst, Cast):
            return self._step_cast(compiled, inst)
        if isinstance(inst, Alloca):
            return self._step_alloca(compiled, inst)
        if isinstance(inst, Load):
            return self._step_load(compiled, inst)
        if isinstance(inst, Store):
            return self._step_store(compiled, inst)
        if isinstance(inst, GetElementPtr):
            return self._step_gep(compiled, inst)
        if isinstance(inst, Call):
            return self._step_call(compiled, inst, step_index)
        if isinstance(inst, Output):
            return self._step_output(compiled, inst)
        if isinstance(inst, Select):
            return self._step_select(compiled, inst)
        if isinstance(inst, Detect):
            return self._step_detect(compiled, inst)
        raise InterpreterBug(f"cannot compile {inst!r}")

    #: One shared definition (module level) serves both tiers; kept as a
    #: static method so the step closures below read naturally.
    _maybe_inject = staticmethod(_maybe_inject)

    def _step_binop(self, compiled, inst: BinOp):
        fa = self._fetch(compiled, inst.lhs)
        fb = self._fetch(compiled, inst.rhs)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        value_type = inst.type
        op = inst.op
        bits = value_type.bits
        inject = self._maybe_inject

        if value_type.is_float:
            evaluate = lambda a, b: eval_float_binop(op, a, b, bits)
        elif op == "add":
            bit_mask = mask(bits)
            evaluate = lambda a, b: (a + b) & bit_mask
        elif op == "sub":
            bit_mask = mask(bits)
            evaluate = lambda a, b: (a - b) & bit_mask
        elif op == "mul":
            bit_mask = mask(bits)
            evaluate = lambda a, b: (a * b) & bit_mask
        elif op == "and":
            evaluate = lambda a, b: a & b
        elif op == "or":
            evaluate = lambda a, b: a | b
        elif op == "xor":
            evaluate = lambda a, b: a ^ b
        else:
            evaluate = lambda a, b: eval_int_binop(op, a, b, bits)

        def step(state, frame):
            value = evaluate(fa(frame), fb(frame))
            if state.inject_iid == iid:
                value = inject(state, value, value_type)
            frame.slots[dest] = value

        return step

    def _step_icmp(self, compiled, inst: ICmp):
        fa = self._fetch(compiled, inst.lhs)
        fb = self._fetch(compiled, inst.rhs)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        predicate = inst.predicate
        bits = inst.lhs.type.bits
        value_type = inst.type
        inject = self._maybe_inject

        def step(state, frame):
            value = eval_icmp(predicate, fa(frame), fb(frame), bits)
            if state.inject_iid == iid:
                value = inject(state, value, value_type)
            frame.slots[dest] = value

        return step

    def _step_fcmp(self, compiled, inst: FCmp):
        fa = self._fetch(compiled, inst.lhs)
        fb = self._fetch(compiled, inst.rhs)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        predicate = inst.predicate
        value_type = inst.type
        inject = self._maybe_inject

        def step(state, frame):
            value = eval_fcmp(predicate, fa(frame), fb(frame))
            if state.inject_iid == iid:
                value = inject(state, value, value_type)
            frame.slots[dest] = value

        return step

    def _step_cast(self, compiled, inst: Cast):
        fetch = self._fetch(compiled, inst.value)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        op = inst.op
        from_type = inst.value.type
        to_type = inst.type
        inject = self._maybe_inject

        def step(state, frame):
            value = eval_cast(op, fetch(frame), from_type, to_type)
            if state.inject_iid == iid:
                value = inject(state, value, to_type)
            frame.slots[dest] = value

        return step

    def _step_alloca(self, compiled, inst: Alloca):
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        count = inst.count
        elem_size = inst.elem_type.size_bytes
        value_type = inst.type
        inject = self._maybe_inject

        def step(state, frame):
            address = frame.allocas.get(iid)
            if address is None:
                address, elements = state.memory.allocate_stack(count, elem_size)
                frame.allocas[iid] = address
                frame.owned.extend(elements)
            if state.inject_iid == iid:
                address = inject(state, address, value_type)
            frame.slots[dest] = address

        return step

    def _step_load(self, compiled, inst: Load):
        fetch = self._fetch(compiled, inst.pointer)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        value_type = inst.type
        default = default_value(value_type)
        inject = self._maybe_inject
        is_float = value_type.is_float
        unsigned_max = 0 if is_float else value_type.max_unsigned

        def step(state, frame):
            value = state.memory.load(fetch(frame), default)
            # Fast path: the cell matches the load type (always true in
            # fault-free runs).  A corrupted address may land on a cell
            # of another type/width: reinterpret like hardware would.
            if is_float:
                if value.__class__ is not float:
                    value = reinterpret_loaded(value, value_type)
            elif value.__class__ is float or value > unsigned_max:
                value = reinterpret_loaded(value, value_type)
            if state.inject_iid == iid:
                value = inject(state, value, value_type)
            frame.slots[dest] = value

        return step

    def _step_store(self, compiled, inst: Store):
        fetch_value = self._fetch(compiled, inst.value)
        fetch_pointer = self._fetch(compiled, inst.pointer)

        def step(state, frame):
            state.memory.store(fetch_pointer(frame), fetch_value(frame))

        return step

    def _step_gep(self, compiled, inst: GetElementPtr):
        fetch_base = self._fetch(compiled, inst.base)
        fetch_index = self._fetch(compiled, inst.index)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        elem_size = inst.elem_size
        index_bits = inst.index.type.bits
        value_type = inst.type
        inject = self._maybe_inject

        def step(state, frame):
            index = to_signed(fetch_index(frame), index_bits)
            address = (fetch_base(frame) + index * elem_size) & _MASK64
            if state.inject_iid == iid:
                address = inject(state, address, value_type)
            frame.slots[dest] = address

        return step

    def _step_call(self, compiled, inst: Call, step_index: int):
        fetches = [self._fetch(compiled, arg) for arg in inst.args]
        callee = inst.callee
        result_type = inst.type
        has_result = inst.has_result
        dest = compiled.slot_of[id(inst)] if has_result else -1
        iid = inst.iid
        inject = self._maybe_inject

        if is_intrinsic(callee) and callee not in self.module.functions:
            def step(state, frame):
                args = [fetch(frame) for fetch in fetches]
                value = call_intrinsic(callee, args, result_type)
                if state.inject_iid == iid:
                    value = inject(state, value, result_type)
                frame.slots[dest] = value
            return step

        compiled_map = self._compiled

        # The step index tells a snapshot where this frame is suspended.
        def step(state, frame):
            args = [fetch(frame) for fetch in fetches]
            value = state.call(compiled_map[callee], args, state, step_index)
            if has_result:
                if state.inject_iid == iid:
                    value = inject(state, value, result_type)
                frame.slots[dest] = value

        return step

    def _step_output(self, compiled, inst: Output):
        fetch = self._fetch(compiled, inst.value)
        value_type = inst.value.type
        precision = inst.precision

        def step(state, frame):
            state.outputs.append(
                format_output(fetch(frame), value_type, precision)
            )

        return step

    def _step_select(self, compiled, inst: Select):
        fetch_cond = self._fetch(compiled, inst.cond)
        fetch_true = self._fetch(compiled, inst.true_value)
        fetch_false = self._fetch(compiled, inst.false_value)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        value_type = inst.type
        inject = self._maybe_inject

        def step(state, frame):
            value = fetch_true(frame) if fetch_cond(frame) else fetch_false(frame)
            if state.inject_iid == iid:
                value = inject(state, value, value_type)
            frame.slots[dest] = value

        return step

    def _step_detect(self, compiled, inst: Detect):
        fetch_a = self._fetch(compiled, inst.original)
        fetch_b = self._fetch(compiled, inst.duplicate)
        is_float = inst.original.type.is_float
        iid = inst.iid

        def step(state, frame):
            a, b = fetch_a(frame), fetch_b(frame)
            if a == b:
                return
            if is_float and a != a and b != b:  # both NaN: no divergence
                return
            raise DetectionTrap(f"detect #{iid}: {a!r} != {b!r}")

        return step
