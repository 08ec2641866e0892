"""Batch execution tier: N fault-injection trials in numpy lockstep.

Campaign trials of one module share almost all of their execution: every
trial replays the golden prefix up to its injection point, and most
faults corrupt a value without (immediately) changing control flow.  The
batch tier exploits both facts by running a *group* of trials as one
lockstep execution with one lane per trial:

* **Shared control flow.**  The group maintains a single frame stack,
  block counters, dynamic-instruction count and memory image.  A slot
  (or memory cell) holds a plain Python scalar while its value is
  uniform across lanes — the dominant case, paid for once per group —
  and becomes a numpy array of per-lane values once any lane diverges.
  Straight-line arithmetic over diverged values executes as vectorized
  numpy ops over all lanes at once.

* **Per-lane faults.**  Each lane arms its own :class:`Injection`;
  occurrence bookkeeping runs per lane, and the armed occurrence flips
  one bit in that lane's component only (promoting the value to an
  array on first divergence).

* **Divergence park-and-remerge (SIMT reconvergence).**  Lockstep
  requires uniform control flow.  A per-lane trap (division, memory
  fault, detector) finishes that lane in place with its outcome.  A
  conditional branch whose condition differs across lanes reconverges
  at the branch's immediate post-dominator
  (:func:`repro.analysis.postdominators`, cached per function): each
  side runs as a masked *sub-run* against a private frame clone and a
  masked memory view, accounting per-lane dynamic-count/block-count
  deltas, and *parks* when it reaches the reconvergence block; the
  group then re-merges the surviving lanes' slots and resumes lockstep
  (see DESIGN.md §12 for the mask-stack protocol and merge rules).

* **Drain fallback.**  When reconvergence is unsafe or impossible —
  no post-dominator inside the function (an arm returns, or spins
  without an exit), an alloca anywhere in the divergent region
  (``MemoryState.free`` never rolls back the stack cursor, so merged
  lanes would disagree on future alloca addresses), or the mask stack
  at its depth cap — minority lanes are *peeled* the PR-6 way: each
  lane's scalar state is materialized as a standard checkpoint
  :class:`~repro.interp.checkpoint.Snapshot` and drained to completion
  on the scalar codegen tier via
  :meth:`~repro.interp.engine.ExecutionEngine.resume_snapshot`.
  ``REPRO_BATCH_RECONVERGE=0`` forces this path everywhere.  Either
  way no count is ever lost — every lane produces exactly the
  :class:`~repro.interp.result.RunResult` its scalar run would have.

Semantics discipline (see DESIGN.md §10): numpy dtypes never leak.
Integers live in uint64 arrays (canonical unsigned form of any width;
uint64 arithmetic wraps mod 2^64, then masks to the type width exactly
like the scalar tier's ``& mask(bits)``); floats live in float64 arrays
(f32 results round through ``astype(float32)``, which is the same
round-to-nearest-even as ``truncate_float``).  Everything trap-raising
or conversion-sensitive (div/rem, casts, ``frem``, intrinsics, output
formatting, load reinterpretation) runs per-lane through the *exact*
helpers of :mod:`repro.interp.ops`, and any value extracted from a lane
is coerced back to a plain Python ``int``/``float`` first.
"""

from __future__ import annotations

from ..analysis.dominators import VIRTUAL_EXIT
from ..core.env import env_flag
from ..ir.bitutils import flip_bit_typed, mask, to_signed
from ..ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    Detect,
    FCmp,
    GetElementPtr,
    ICmp,
    Load,
    Output,
    Ret,
    Select,
    Store,
)
from .checkpoint import FrameSnap, Snapshot, merge_block_counts
from .engine import _T_CBR, _T_JUMP, _Frame
from .errors import (
    ArithmeticTrap,
    DetectionTrap,
    HangFault,
    InterpreterBug,
    MemoryFault,
    StackOverflow,
)
from .intrinsics import call_intrinsic, is_intrinsic
from .memory import MemoryState
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

try:  # numpy ships with the dev extras, not the (empty) base deps
    import numpy as np

    HAVE_NUMPY = True
    _ND = np.ndarray
except ImportError:  # pragma: no cover - exercised on minimal installs
    np = None
    HAVE_NUMPY = False

    class _ND:  # placeholder: `type(x) is _ND` is then always False
        pass


_MASK64 = mask(64)

#: Lane count used when the batch tier is selected without an explicit
#: ``--batch-lanes``; large enough to amortize lockstep dispatch, small
#: enough that divergence drains stay short.
DEFAULT_BATCH_LANES = 16

#: Sentinel for "this lane's cell does not exist" inside object-dtype
#: memory arrays (a scalar run would have no entry in ``cells`` at all).
_MISSING = object()

#: Sentinel for "this lane did not emit this output entry": inside a
#: reconvergence side only the active lanes append, so shared output
#: entries need a hole the per-lane extraction can skip.
_NO_OUT = object()

#: Memoization slot for "reconvergence info not computed yet".
_UNSET = object()

#: Nested reconvergence splits beyond this depth fall back to the
#: scalar drain.  Loop-exit divergence re-splits once per departing
#: wave of lanes, so the cap bounds recursion without capping the
#: common one-or-two-deep diamond case.
_MAX_MASK_DEPTH = 24

#: Tail-drain divisor: once a parked re-split leaves at most
#: ``lanes // _TAIL_DIV`` lanes still running, the stragglers are
#: peeled to the scalar drain instead of paying full-width masked
#: overhead per op.
_TAIL_DIV = 8


class _AllLanesDone(Exception):
    """Internal unwind signal: every lane of the group has a result."""


def _lane_value(value, lane: int):
    """Extract one lane's component as a plain Python value."""
    if type(value) is _ND:
        kind = value.dtype.kind
        if kind == "f":
            return float(value[lane])
        if kind in ("u", "i"):
            return int(value[lane])
        return value[lane]  # object arrays hold Python values (or _MISSING)
    return value


def _lane_array(lanes: int, value_type):
    """Fresh per-lane result array of a register type's dtype."""
    if value_type.is_float:
        return np.zeros(lanes, dtype=np.float64)
    return np.zeros(lanes, dtype=np.uint64)


def _promote(value, lanes: int, value_type):
    """Broadcast a uniform scalar into a fresh per-lane array."""
    if value_type.is_float:
        return np.full(lanes, value, dtype=np.float64)
    return np.full(lanes, value, dtype=np.uint64)


def _object_copy(value, lanes: int):
    """Copy a cell value into a fresh object array of Python values."""
    out = np.empty(lanes, dtype=object)
    if type(value) is _ND:
        if value.dtype.kind == "O":
            out[:] = value
        else:
            out[:] = value.tolist()  # numpy scalars -> Python ints/floats
    else:
        out[:] = [value] * lanes
    return out


def _signed_vec(value, bits: int):
    """Canonical-unsigned lanes -> signed values (int64 array)."""
    if type(value) is not _ND:
        return to_signed(value, bits)
    if bits == 64:
        return value.astype(np.int64)  # same-width reinterpret
    signed = value.astype(np.int64)
    sign_bit = 1 << (bits - 1)
    return np.where(value >= sign_bit, signed - (1 << bits), signed)


def _sext64_vec(value, bits: int):
    """Sign-extend canonical lanes to 64-bit in the uint64 wrap domain."""
    if bits == 64:
        return value
    if value.dtype.kind == "u":
        # Branchless: xor moves the sign bit to a bias, the subtraction
        # wraps mod 2^64 — negatives land on ``value | high`` exactly.
        sign_bit = np.uint64(1 << (bits - 1))
        return (value ^ sign_bit) - sign_bit
    sign_bit = 1 << (bits - 1)
    high = (~mask(bits)) & _MASK64
    return np.where((value & sign_bit) != 0, value | high, value)


def _int_vector_op(op: str, bits: int):
    """Vectorized integer binop over uint64 lanes, or None if the op
    must run per-lane (division/remainder can trap per lane)."""
    bit_mask = mask(bits)
    if op == "add":
        return lambda a, b: (a + b) & bit_mask
    if op == "sub":
        return lambda a, b: (a - b) & bit_mask
    if op == "mul":
        return lambda a, b: (a * b) & bit_mask
    if op == "and":
        return lambda a, b: a & b
    if op == "or":
        return lambda a, b: a | b
    if op == "xor":
        return lambda a, b: a ^ b
    if op == "shl":
        return lambda a, b: (a << (b % bits)) & bit_mask
    if op == "lshr":
        return lambda a, b: a >> (b % bits)
    if op == "ashr":
        def ashr(a, b):
            shift = b % bits
            if type(shift) is _ND:
                # int64 shift counts: a uniform negative dividend must
                # not meet a uint64 array under NEP 50 promotion.
                shift = shift.astype(np.int64)
            shifted = np.right_shift(_signed_vec(a, bits), shift)
            return shifted.astype(np.uint64) & np.uint64(bit_mask)
        return ashr
    return None  # sdiv/udiv/srem/urem: per-lane, trap-capable


def _float_vector_op(op: str, bits: int):
    """Vectorized float binop over float64 lanes, or None (frem runs
    per-lane through ``eval_float_binop`` for exact fmod parity)."""
    if op == "fadd":
        base = lambda a, b: a + b
    elif op == "fsub":
        base = lambda a, b: a - b
    elif op == "fmul":
        base = lambda a, b: a * b
    elif op == "fdiv":
        # IEEE division: numpy's inf/nan specials coincide case-by-case
        # with eval_float_binop's explicit zero-divisor handling.
        base = lambda a, b: np.divide(a, b)
    else:
        return None
    if bits == 32:
        def rounded(a, b):
            return base(a, b).astype(np.float32).astype(np.float64)
        return rounded
    return base


def _icmp_vector(pred: str, bits: int):
    if pred == "eq":
        return lambda a, b: a == b
    if pred == "ne":
        return lambda a, b: a != b
    if pred == "ult":
        return lambda a, b: a < b
    if pred == "ule":
        return lambda a, b: a <= b
    if pred == "ugt":
        return lambda a, b: a > b
    if pred == "uge":
        return lambda a, b: a >= b
    signed = {
        "slt": lambda a, b: a < b,
        "sle": lambda a, b: a <= b,
        "sgt": lambda a, b: a > b,
        "sge": lambda a, b: a >= b,
    }[pred]
    # Signed order in the canonical-unsigned domain: flipping the sign
    # bit is an order-preserving map from signed onto unsigned, so one
    # xor per operand replaces the widen-and-rebias of ``_signed_vec``.
    bias = np.uint64(1 << (bits - 1))
    return lambda a, b: signed(a ^ bias, b ^ bias)


def _fcmp_vector(pred: str):
    # numpy comparisons are already false on NaN, matching eval_fcmp's
    # ordered semantics — except "one", which needs the NaN mask spelled
    # out (NaN != x is True elementwise).
    if pred == "oeq":
        return lambda a, b: a == b
    if pred == "one":
        return lambda a, b: (a != b) & ~np.isnan(a) & ~np.isnan(b)
    if pred == "olt":
        return lambda a, b: a < b
    if pred == "ole":
        return lambda a, b: a <= b
    if pred == "ogt":
        return lambda a, b: a > b
    if pred == "oge":
        return lambda a, b: a >= b
    return None


class _MaskedMemory(MemoryState):
    """One reconvergence side's view of the group's shared memory.

    Shares the ``cells``/``valid`` dicts with the real image (loads pass
    straight through); a *uniform-address* store merges only the active
    lanes' components, so the parked side's writes survive untouched.
    Divergent-address stores already scatter per active lane through
    object cells and need no override.  Stack allocation is statically
    precluded inside reconvergence regions (``_compute_reconv``); the
    override here is the backstop that turns a screening bug into a
    loud :class:`InterpreterBug` instead of silent count corruption.
    """

    __slots__ = ("_sim",)

    def __init__(self, shared: MemoryState, sim):
        self.cells = shared.cells
        self.valid = shared.valid
        self.stack_cursor = shared.stack_cursor
        self.footprint_bytes = shared.footprint_bytes
        self._sim = sim

    def allocate_stack(self, count: int, elem_size: int):
        raise InterpreterBug(
            "alloca inside a reconvergence side (region screening bug)"
        )

    def store(self, address: int, value) -> None:
        if address not in self.valid:
            raise MemoryFault(address, "store")
        sim = self._sim
        lanes = sim.lanes
        active_list = sim.active_list
        cells = self.cells
        old = cells.get(address, _MISSING)
        if type(old) is not _ND:
            # No-op store fast path (ints only: 0.0 == -0.0 yet they
            # differ bitwise, so floats always take the merge path).
            if type(value) is not _ND and type(old) is type(value) \
                    and old == value and value.__class__ is not float:
                return
            # Promote a uniform scalar cell straight to a *numeric*
            # lane array when the kinds line up: object cells would
            # push every later load onto the per-lane coercion path.
            if old.__class__ is float and (
                value.dtype.kind == "f" if type(value) is _ND
                else value.__class__ is float
            ):
                merged = np.full(lanes, old, dtype=np.float64)
            elif old.__class__ is int and 0 <= old <= _MASK64 and (
                value.dtype.kind == "u" if type(value) is _ND
                else value.__class__ is int and 0 <= value <= _MASK64
            ):
                merged = np.full(lanes, old, dtype=np.uint64)
            else:
                merged = _object_copy(old, lanes)
        elif old.dtype.kind == "O":
            merged = old.copy()
        elif type(value) is _ND and value.dtype == old.dtype:
            merged = old.copy()
        elif type(value) is not _ND and (
            (old.dtype.kind == "f") == (value.__class__ is float)
        ):
            merged = old.copy()
        else:
            merged = _object_copy(old, lanes)
        if merged.dtype.kind == "O":
            for lane in active_list:
                merged[lane] = _lane_value(value, lane)
        elif type(value) is _ND:
            mask = sim.active_mask
            merged[mask] = value[mask]
        else:
            merged[sim.active_mask] = value
        cells[address] = merged


class _GroupState:
    """Mutable state of one lockstep group (mirrors engine._State)."""

    __slots__ = (
        "lanes", "live", "live_mask", "live_list", "n_live", "memory",
        "outputs", "dynamic_count", "budget", "block_counts", "armed",
        "inject_occurrence", "inject_bit", "occurrence", "activated",
        "injections", "records", "call_depth", "results", "divergences",
        "drain_executed", "active", "active_mask", "active_list",
        "n_active", "mask_depth", "dyn_delta", "block_delta", "max_delta",
        "pending_cost", "pending_blocks", "active_peak",
        "side_executed", "reconverged", "drains", "just_merged",
    )

    def __init__(self, lanes: int, budget: int):
        self.lanes = lanes
        self.live = [True] * lanes
        #: Same predicate three ways, each serving a different access
        #: pattern: per-lane checks (list), vectorized branch partition
        #: (bool array), and sparse iteration once lanes start exiting.
        self.live_mask = np.ones(lanes, dtype=bool)
        self.live_list = list(range(lanes))
        self.n_live = lanes
        #: The *active* set is the mask-stack top: the lanes currently
        #: executing.  At depth 0 it equals the live set; inside a
        #: reconvergence side it is that side's surviving lanes.  All
        #: per-lane iteration in the step closures runs over it.
        self.active = [True] * lanes
        self.active_mask = np.ones(lanes, dtype=bool)
        self.active_list = list(range(lanes))
        self.n_active = lanes
        self.mask_depth = 0
        #: Per-lane divergence deltas, preallocated once per group (no
        #: per-step allocation): a lane's true dynamic count is
        #: ``dynamic_count + dyn_delta[lane]``; its block counts are the
        #: shared dense array plus its ``block_delta`` segment list
        #: (frozen side dicts, shared by reference).
        self.dyn_delta = np.zeros(lanes, dtype=np.int64)
        self.block_delta: list = [None] * lanes
        self.max_delta = 0
        #: Side-uniform accounting not yet applied per lane: every block
        #: a side executes costs the *same* for all of its still-active
        #: lanes, so the hot path accrues one scalar cost and one sparse
        #: block dict (O(1) per block) and flushes them onto
        #: ``dyn_delta``/``block_delta`` only when the active set is
        #: about to change (lane finish, peel, nested split, park).
        #: ``active_peak`` caches max(dyn_delta[active]) so the budget
        #: probe stays scalar.
        self.pending_cost = 0
        self.pending_blocks: dict[int, int] = {}
        self.active_peak = 0
        self.side_executed = 0
        self.memory = None
        self.outputs: list = []
        self.dynamic_count = 0
        self.budget = budget
        self.block_counts: list[int] = []
        #: iid -> lanes armed on it (occurrence bookkeeping per lane).
        self.armed: dict[int, list[int]] = {}
        self.inject_occurrence = [0] * lanes
        self.inject_bit = [0] * lanes
        self.occurrence = [0] * lanes
        self.activated = [False] * lanes
        self.injections: list = [None] * lanes
        #: Shadow stack of [compiled, frame, cblock, previous, step_index]
        #: records (the fields of a checkpoint FrameSnap), so any lane can
        #: be materialized as a checkpoint Snapshot at a block boundary.
        self.records: list = []
        self.call_depth = 0
        self.results: list = [None] * lanes
        self.divergences = 0
        self.drain_executed = 0
        self.reconverged = 0
        self.drains = 0
        self.just_merged = False


class GroupOutcome:
    """Per-lane results plus the group's throughput accounting."""

    __slots__ = ("results", "divergences", "executed", "skipped",
                 "reconverged", "drains", "drain_executed")

    def __init__(self, results, divergences, executed, skipped,
                 reconverged=0, drains=0, drain_executed=0):
        self.results = results
        self.divergences = divergences
        self.executed = executed
        self.skipped = skipped
        self.reconverged = reconverged
        self.drains = drains
        self.drain_executed = drain_executed


class BatchRunner:
    """Lockstep executor for groups of trials on one engine.

    Reuses the engine's compiled representation (blocks, operand fetch
    closures, phi-move tables, terminators) and compiles one extra
    *batch step* per instruction, lazily and once per engine: a closure
    with a scalar fast path for uniform operands and numpy paths for
    diverged ones.  Construction requires numpy.
    """

    def __init__(self, engine):
        if not HAVE_NUMPY:
            raise InterpreterBug("batch tier requires numpy")
        self.engine = engine
        self._bsteps: dict[int, list] = {}
        #: Reconvergence on divergent branches (park-and-remerge) vs the
        #: PR-6 peel-and-drain everywhere.  The env knob exists for the
        #: CI differential (both modes must be bit-identical to scalar)
        #: and as an operational escape hatch.
        self.reconverge = env_flag("REPRO_BATCH_RECONVERGE", True)
        #: id(branch cblock) -> reconvergence target cblock | None.
        self._reconv: dict[int, object] = {}
        #: function name -> is its whole call tree alloca-free?
        self._allocfree_memo: dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Reconvergence targets
    # ------------------------------------------------------------------

    def _reconv_target(self, compiled, cblock):
        """The branch's reconvergence cblock, or None to force a drain.

        Memoized per branch block; the underlying immediate
        post-dominator map is cached per function in the module's
        shared :class:`AnalysisManager` (``ipostdominators``).
        """
        key = id(cblock)
        info = self._reconv.get(key, _UNSET)
        if info is _UNSET:
            info = self._compute_reconv(compiled, cblock)
            self._reconv[key] = info
        return info

    def _compute_reconv(self, compiled, cblock):
        target = self.engine.analyses.ipostdominators(
            compiled.function
        ).get(cblock.block)
        if target is None or target is VIRTUAL_EXIT:
            # Function-boundary divergence: an arm returns (or never
            # reaches an exit), so there is no in-function park point.
            return None
        # The divergent region: every block reachable from either
        # successor without passing through the target.  Reject regions
        # that allocate stack memory (directly or via any callee):
        # MemoryState.free never rolls the stack cursor back, so lanes
        # taking different arms would disagree on every later alloca
        # address — those branches keep the scalar drain.
        region = set()
        work = list(cblock.block.successors)
        while work:
            block = work.pop()
            if block is target or block in region:
                continue
            region.add(block)
            work.extend(block.successors)
        functions = self.engine.module.functions
        for block in region:
            for inst in block.instructions:
                if isinstance(inst, Alloca):
                    return None
                if isinstance(inst, Ret):
                    # Unreachable if the post-dominator analysis holds;
                    # kept as a cheap belt-and-braces screen.
                    return None
                if isinstance(inst, Call) and inst.callee in functions \
                        and not self._allocfree(inst.callee):
                    return None
        return compiled.blocks[target]

    def _allocfree(self, name: str) -> bool:
        """Is ``name``'s entire call tree free of allocas?  Conservative
        on recursion: an in-progress function counts as allocating."""
        memo = self._allocfree_memo
        cached = memo.get(name)
        if cached is not None:
            return cached
        memo[name] = False  # cycle guard / conservative default
        function = self.engine.module.functions.get(name)
        if function is None:
            return False
        functions = self.engine.module.functions
        for inst in function.instructions():
            if isinstance(inst, Alloca):
                return False
            if isinstance(inst, Call) and inst.callee in functions \
                    and not self._allocfree(inst.callee):
                return False
        memo[name] = True
        return True

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_group(self, trials, snapshot: Snapshot | None = None,
                  base_outputs=None, occurrences=None,
                  budget: int | None = None) -> GroupOutcome:
        """Execute one group of trials in lockstep.

        ``trials[i]`` is the :class:`Injection` for lane ``i`` (or None
        for a fault-free lane).  With ``snapshot`` the whole group
        restores from one golden-prefix checkpoint; ``occurrences[i]``
        must then carry ``prefix_occurrence(snapshot, iid_i)`` and
        ``base_outputs`` the golden outputs as of the snapshot — the
        same seeding the scalar resume path uses.
        """
        engine = self.engine
        lanes = len(trials)
        if lanes < 1:
            raise ValueError("batch group needs at least one lane")
        sim = _GroupState(lanes, budget or engine.max_dynamic)
        for lane, injection in enumerate(trials):
            if injection is None:
                continue
            target = engine.module.instruction(injection.iid)
            if not target.has_result:
                raise ValueError(
                    f"instruction #{injection.iid} has no destination register"
                )
            if not 0 <= injection.bit < target.type.bits:
                raise ValueError(
                    f"bit {injection.bit} out of range for {target.type}"
                )
            sim.injections[lane] = injection
            sim.armed.setdefault(injection.iid, []).append(lane)
            sim.inject_occurrence[lane] = injection.occurrence
            sim.inject_bit[lane] = injection.bit
            if occurrences is not None:
                sim.occurrence[lane] = occurrences[lane]
        if snapshot is not None:
            sim.memory = MemoryState.restored(
                dict(snapshot.cells), set(snapshot.valid),
                snapshot.stack_cursor, snapshot.footprint_bytes,
            )
            sim.dynamic_count = snapshot.dynamic_count
            sim.block_counts = list(snapshot.block_counts)
            sim.outputs = list(base_outputs) if base_outputs else []
        else:
            sim.memory = MemoryState(engine.layout)
            sim.block_counts = [0] * engine._n_blocks

        start_count = sim.dynamic_count
        with np.errstate(all="ignore"):
            try:
                if snapshot is None:
                    self._bcall(sim, engine._compiled["main"], [], -1)
                else:
                    self._bresume_frame(sim, snapshot, 0)
                self._finish_live(sim, OK, "")
            except _AllLanesDone:
                pass
            except (MemoryFault, ArithmeticTrap, StackOverflow) as fault:
                self._finish_live(sim, CRASH, str(fault))
            except HangFault as fault:
                self._finish_live(sim, HANG, str(fault))
            except DetectionTrap as fault:
                self._finish_live(sim, DETECTED, str(fault))

        executed = (
            (sim.dynamic_count - start_count)
            + sim.side_executed + sim.drain_executed
        )
        logical = sum(result.dynamic_count for result in sim.results)
        return GroupOutcome(
            sim.results, sim.divergences, executed,
            max(0, logical - executed),
            sim.reconverged, sim.drains, sim.drain_executed,
        )

    # ------------------------------------------------------------------
    # Lane lifecycle
    # ------------------------------------------------------------------

    def _lane_outputs(self, sim: _GroupState, lane: int) -> list[str]:
        out = []
        for entry in sim.outputs:
            if type(entry) is str:
                out.append(entry)
            else:
                value = entry[lane]
                if value is not _NO_OUT:
                    out.append(value)
        return out

    def _retire_lane(self, sim: _GroupState, lane: int) -> None:
        sim.live[lane] = False
        sim.live_mask[lane] = False
        sim.live_list.remove(lane)
        sim.n_live -= 1
        if sim.active[lane]:
            sim.active[lane] = False
            sim.active_mask[lane] = False
            sim.active_list.remove(lane)
            sim.n_active -= 1

    def _finish_lane(self, sim: _GroupState, lane: int, outcome: str,
                     reason: str, divergence: bool) -> None:
        if sim.pending_cost or sim.pending_blocks:
            self._flush_pending(sim)
        self._retire_lane(sim, lane)
        if divergence:
            sim.divergences += 1
        sim.results[lane] = RunResult(
            outcome=outcome,
            outputs=self._lane_outputs(sim, lane),
            dynamic_count=sim.dynamic_count + int(sim.dyn_delta[lane]),
            crash_reason=reason,
            activated=sim.activated[lane],
            block_counts=self.engine._block_counts_map(
                merge_block_counts(sim.block_counts, sim.block_delta[lane])
            ),
            footprint_bytes=sim.memory.footprint_bytes,
        )

    def _finish_live(self, sim: _GroupState, outcome: str,
                     reason: str) -> None:
        for lane in list(sim.live_list):
            self._finish_lane(sim, lane, outcome, reason, divergence=False)

    def _lane_snapshot(self, sim: _GroupState, lane: int, succ_cblock,
                       from_cblock) -> Snapshot:
        """Materialize one lane's scalar state as a checkpoint Snapshot.

        The lane resumes at the top of ``succ_cblock`` entered from
        ``from_cblock`` (phi moves pending), exactly like the innermost
        frame of a capture-pass snapshot; outer frames stay suspended at
        their recorded call steps.
        """
        records = sim.records
        last = len(records) - 1
        frames = []
        for index, (compiled, frame, cblock, previous, step) in \
                enumerate(records):
            slots = tuple(_lane_value(v, lane) for v in frame.slots)
            if index < last:
                frames.append(FrameSnap(
                    compiled, slots, dict(frame.allocas),
                    tuple(frame.owned), cblock, previous, step,
                ))
            else:
                frames.append(FrameSnap(
                    compiled, slots, dict(frame.allocas),
                    tuple(frame.owned), succ_cblock, from_cblock, -1,
                ))
        memory = sim.memory
        cells = {}
        for address, value in memory.cells.items():
            extracted = _lane_value(value, lane)
            if extracted is not _MISSING:
                cells[address] = extracted
        return Snapshot(
            dynamic_count=sim.dynamic_count + int(sim.dyn_delta[lane]),
            frames=tuple(frames),
            cells=cells,
            valid=set(memory.valid),
            stack_cursor=memory.stack_cursor,
            footprint_bytes=memory.footprint_bytes,
            outputs_len=len(sim.outputs),
            block_counts=merge_block_counts(
                sim.block_counts, sim.block_delta[lane]
            ),
        )

    def _peel_lanes(self, sim: _GroupState, lanes, succ_cblock,
                    from_cblock) -> None:
        """Drain diverged lanes on the scalar codegen tier."""
        if sim.pending_cost or sim.pending_blocks:
            self._flush_pending(sim)
        for lane in lanes:
            snapshot = self._lane_snapshot(sim, lane, succ_cblock,
                                           from_cblock)
            result = self.engine.resume_snapshot(
                snapshot, sim.injections[lane], sim.budget,
                occurrence=sim.occurrence[lane],
                outputs=self._lane_outputs(sim, lane),
                activated=sim.activated[lane],
            )
            self._retire_lane(sim, lane)
            sim.divergences += 1
            sim.drains += 1
            sim.drain_executed += (
                result.dynamic_count
                - (sim.dynamic_count + int(sim.dyn_delta[lane]))
            )
            sim.results[lane] = result

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------

    def _binject(self, sim: _GroupState, value, value_type, lanes_armed):
        """Per-lane occurrence bookkeeping + bit flip (cf. _maybe_inject).

        Lanes whose flip has fired (and lanes that left the group) are
        disarmed in place: their occurrence count is frozen at the fire
        point, so a later peel hands the drain an exact prefix count
        while the lockstep loop stops paying for bookkeeping.
        """
        disarm = False
        for lane in lanes_armed:
            if not sim.active[lane]:
                # Inactive-but-live lanes (parked on the other side of a
                # reconvergence split) are not executing this step, so
                # their occurrence must not advance; only dead lanes
                # trigger the rebuild below.
                disarm = disarm or not sim.live[lane]
                continue
            sim.occurrence[lane] += 1
            if sim.occurrence[lane] != sim.inject_occurrence[lane]:
                continue
            sim.activated[lane] = True
            disarm = True
            if type(value) is _ND:
                value = value.copy()  # never mutate a shared array
            else:
                value = _promote(value, sim.lanes, value_type)
            value[lane] = flip_bit_typed(
                _lane_value(value, lane), sim.inject_bit[lane], value_type
            )
        if disarm:
            lanes_armed[:] = [
                lane for lane in lanes_armed
                if sim.live[lane]
                and sim.occurrence[lane] < sim.inject_occurrence[lane]
            ]
        return value

    # ------------------------------------------------------------------
    # Lockstep interpretation loop (engine._loop plus a shadow stack)
    # ------------------------------------------------------------------

    def _bcall(self, sim: _GroupState, compiled, args, caller_step: int):
        if sim.call_depth >= self.engine.stack_limit:
            raise StackOverflow(
                f"call depth exceeded {self.engine.stack_limit}"
            )
        sim.call_depth += 1
        frame = _Frame(compiled.n_slots)
        frame.slots[: compiled.n_args] = args
        records = sim.records
        if records:
            records[-1][4] = caller_step
        record = [compiled, frame, compiled.entry, None, -1]
        records.append(record)
        try:
            return self._bloop(sim, compiled, frame, compiled.entry, None,
                               record)
        finally:
            records.pop()
            sim.call_depth -= 1
            sim.memory.free(frame.owned)

    def _bphi_moves(self, sim: _GroupState, frame, block, previous) -> None:
        if block.phi_moves is None:
            return
        moves = block.phi_moves.get(previous)
        if moves:
            values = [fetch(frame) for _d, fetch, _i, _t in moves]
            armed = sim.armed
            for (dest, _fetch, iid, value_type), value in zip(moves, values):
                lanes_armed = armed.get(iid)
                if lanes_armed:
                    value = self._binject(sim, value, value_type, lanes_armed)
                frame.slots[dest] = value

    def _branch_target(self, sim: _GroupState, frame, cblock, compiled,
                       record, cond=_UNSET):
        """Resolve a conditional branch.

        On a divergent condition, the preferred path is park-and-remerge
        through the branch's reconvergence block (``sim.just_merged`` is
        set so the caller skips the already-applied phi moves); when
        that is unsafe — no in-function post-dominator, an alloca in the
        region, or the mask stack at its cap — minority lanes are peeled
        onto the scalar drain instead.
        """
        fetch, true_block, false_block = cblock.term_payload
        if cond is _UNSET:
            cond = fetch(frame)
        if type(cond) is not _ND:
            return true_block if cond else false_block
        taken = (cond != 0) & sim.active_mask
        n_taken = int(taken.sum())
        if n_taken == sim.n_active:
            return true_block
        if n_taken == 0:
            return false_block
        if self.reconverge and sim.mask_depth < _MAX_MASK_DEPTH:
            target = self._reconv_target(compiled, cblock)
            if target is not None:
                takers = np.nonzero(taken)[0].tolist()
                fallers = np.nonzero(
                    sim.active_mask & ~taken
                )[0].tolist()
                self._split_and_merge(
                    sim, frame, record, compiled, cblock,
                    takers, true_block, fallers, false_block, target,
                )
                sim.just_merged = True
                return target
        if 2 * n_taken >= sim.n_active:
            fallers = np.nonzero(sim.active_mask & ~taken)[0].tolist()
            self._peel_lanes(sim, fallers, false_block, cblock)
            return true_block
        takers = np.nonzero(taken)[0].tolist()
        self._peel_lanes(sim, takers, true_block, cblock)
        return false_block

    # ------------------------------------------------------------------
    # Reconvergence: masked sub-runs, parking, and lane re-merge
    # ------------------------------------------------------------------

    def _split_and_merge(self, sim: _GroupState, frame, record, compiled,
                         cblock, takers, true_block, fallers, false_block,
                         target) -> None:
        """Run both sides of a divergent branch to ``target`` and merge.

        The mask stack is the Python call stack: each nesting level
        saves the parent's active set in locals, runs the two sides as
        masked sub-runs (private frame clone, shared-but-masked memory),
        and restores ``active = parent_active ∧ live`` on the way out.
        Slot merging happens only after *both* sides finished, against
        the untouched parent frame, so the sides are order-independent.
        """
        if sim.pending_cost or sim.pending_blocks:
            # Settle the enclosing side's uniform accounting before the
            # active set is partitioned.
            self._flush_pending(sim)
        shared_memory = sim.memory
        if sim.mask_depth == 0:
            # One proxy serves every nesting level: it reads the active
            # set dynamically at store time.
            sim.memory = _MaskedMemory(shared_memory, sim)
        sim.mask_depth += 1
        saved_active = sim.active
        saved_mask = sim.active_mask
        saved_list = sim.active_list
        merges = []
        try:
            for lanes, start in (
                (takers, true_block), (fallers, false_block),
            ):
                merges.extend(self._run_side(sim, frame, record, compiled,
                                             lanes, start, cblock, target))
        finally:
            sim.mask_depth -= 1
            if sim.mask_depth == 0:
                sim.memory = shared_memory
            # Pop the mask: parent active set minus lanes that finished
            # inside the sides.
            live = sim.live
            for lane in saved_list:
                if not live[lane]:
                    saved_active[lane] = False
            sim.active = saved_active
            np.logical_and(saved_mask, sim.live_mask, out=saved_mask)
            sim.active_mask = saved_mask
            sim.active_list = [lane for lane in saved_list if live[lane]]
            sim.n_active = len(sim.active_list)
            self._refresh_active_peak(sim)
        for side_lanes, changes in merges:
            self._merge_slots(sim, frame.slots, side_lanes, changes)
        sim.reconverged += 1
        peak = int(sim.dyn_delta.max())
        if peak > sim.max_delta:
            sim.max_delta = peak
        if sim.n_active == 0:
            raise _AllLanesDone

    def _run_side(self, sim: _GroupState, frame, record, compiled, lanes,
                  start_block, branch_block, target):
        """Execute one side's lanes up to the reconvergence block.

        Runs against a private clone of the branching frame (slots are
        shared by reference until written — the merge detects changes by
        identity) with the side's lanes as the active set.  Parks after
        applying the target block's phi moves for this side's edge.

        Lanes that reach ``target`` early — a divergent branch inside
        the side with the reconvergence block as a direct successor,
        the shape every staggered loop exit takes — park *in place* at
        the same mask depth (:meth:`_park_lanes`) instead of opening a
        recursive split per exit iteration, so a loop draining its
        lanes over N iterations costs N parks, not N nesting levels.
        Returns a list of ``(lanes, changed slots)`` merge entries: one
        per in-place park plus one for the lanes that ran to the final
        park (empty when every lane finished first via trap/hang/drain).
        """
        side_frame = _Frame(compiled.n_slots)
        side_frame.slots[:] = frame.slots
        side_frame.allocas.update(frame.allocas)
        # ``owned`` stays empty: the region is alloca-free, and stack
        # ownership remains with the parent frame either way.
        sim.active = [False] * sim.lanes
        for lane in lanes:
            sim.active[lane] = True
        side_mask = np.zeros(sim.lanes, dtype=bool)
        side_mask[lanes] = True
        sim.active_mask = side_mask
        sim.active_list = list(lanes)
        sim.n_active = len(lanes)
        self._refresh_active_peak(sim)
        side_record = [compiled, side_frame, start_block, branch_block, -1]
        sim.records[-1] = side_record
        parked: list = []
        try:
            block = start_block
            previous = branch_block
            while block is not target:
                side_record[2] = block
                side_record[3] = previous
                self._bphi_moves(sim, side_frame, block, previous)
                self._side_account(sim, block)
                for bstep in self._block_steps(compiled, block):
                    bstep(sim, side_frame)
                kind = block.term_kind
                if kind == _T_JUMP:
                    previous = block
                    block = block.term_payload
                elif kind == _T_CBR:
                    fetch, tblock, fblock = block.term_payload
                    cond = fetch(side_frame)
                    if type(cond) is _ND and (
                            tblock is target or fblock is target):
                        taken = (cond != 0) & sim.active_mask
                        n_taken = int(taken.sum())
                        if 0 < n_taken < sim.n_active:
                            if tblock is target:
                                leave = np.nonzero(taken)[0].tolist()
                                stay = fblock
                            else:
                                leave = np.nonzero(
                                    sim.active_mask & ~taken
                                )[0].tolist()
                                stay = tblock
                            parked.append(self._park_lanes(
                                sim, frame, side_frame, block, target,
                                leave,
                            ))
                            if sim.n_active <= sim.lanes // _TAIL_DIV:
                                # Narrow tail: a handful of stragglers
                                # still looping pay full-width masked
                                # overhead per op — the scalar drain is
                                # cheaper from here on.
                                self._peel_lanes(
                                    sim, list(sim.active_list), stay,
                                    block,
                                )
                                return parked
                            previous = block
                            block = stay
                            continue
                    nxt = self._branch_target(sim, side_frame, block,
                                              compiled, side_record, cond)
                    if sim.just_merged:
                        sim.just_merged = False
                        previous = None
                    else:
                        previous = block
                    block = nxt
                else:  # _T_RET: contradicts target post-dominating us
                    raise InterpreterBug(
                        "reconvergence side returned before its target"
                    )
            # Park: apply the reconvergence block's phi moves for this
            # side's incoming edge, then leave the merge to the caller.
            side_record[2] = target
            side_record[3] = previous
            self._bphi_moves(sim, side_frame, target, previous)
            if sim.pending_cost or sim.pending_blocks:
                self._flush_pending(sim)
        except _AllLanesDone:
            if sim.n_live == 0:
                raise
            return parked  # active lanes finished; parked ones merge
        except (MemoryFault, ArithmeticTrap, StackOverflow) as fault:
            self._finish_side(sim, CRASH, str(fault))
            return parked
        except DetectionTrap as fault:
            self._finish_side(sim, DETECTED, str(fault))
            return parked
        finally:
            sim.records[-1] = record
        survivors = list(sim.active_list)
        if survivors:
            changes = [
                (index, value)
                for index, (value, old) in enumerate(
                    zip(side_frame.slots, frame.slots)
                )
                if value is not old
            ]
            parked.append((survivors, changes))
        return parked

    def _park_lanes(self, sim: _GroupState, frame, side_frame,
                    branch_block, target, lanes):
        """Park early arrivals at the reconvergence block, in place.

        Applies the target's phi moves for the ``branch_block`` edge
        masked to the parking lanes only (they become the active set
        while the moves run, so injection occurrence bookkeeping stays
        per-lane exact), then snapshots their merge entry by identity
        diff against the parent frame.  The captured slot arrays stay
        valid while the rest of the side keeps executing because the
        batch tier never mutates lane-value arrays in place.
        """
        if sim.pending_cost or sim.pending_blocks:
            self._flush_pending(sim)
        moves = target.phi_moves.get(branch_block) \
            if target.phi_moves else None
        if moves:
            saved_active = sim.active
            saved_mask = sim.active_mask
            saved_list = sim.active_list
            saved_n = sim.n_active
            park_active = [False] * sim.lanes
            park_mask = np.zeros(sim.lanes, dtype=bool)
            for lane in lanes:
                park_active[lane] = True
            park_mask[lanes] = True
            sim.active = park_active
            sim.active_mask = park_mask
            sim.active_list = list(lanes)
            sim.n_active = len(lanes)
            try:
                values = [fetch(side_frame) for _d, fetch, _i, _t in moves]
                armed = sim.armed
                slots = side_frame.slots
                for (dest, _fetch, iid, value_type), value in \
                        zip(moves, values):
                    lanes_armed = armed.get(iid)
                    if lanes_armed:
                        value = self._binject(sim, value, value_type,
                                              lanes_armed)
                    self._merge_slots(sim, slots, lanes, [(dest, value)])
            finally:
                sim.active = saved_active
                sim.active_mask = saved_mask
                sim.active_list = saved_list
                sim.n_active = saved_n
        changes = [
            (index, value)
            for index, (value, old) in enumerate(
                zip(side_frame.slots, frame.slots)
            )
            if value is not old
        ]
        active = sim.active
        active_mask = sim.active_mask
        active_list = sim.active_list
        for lane in lanes:
            active[lane] = False
            active_mask[lane] = False
            active_list.remove(lane)
        sim.n_active -= len(lanes)
        self._refresh_active_peak(sim)
        return (list(lanes), changes)

    def _finish_side(self, sim: _GroupState, outcome: str,
                     reason: str) -> None:
        """A uniform fault inside a side finishes its active lanes
        (each with its own delta-adjusted counts)."""
        for lane in list(sim.active_list):
            self._finish_lane(sim, lane, outcome, reason, divergence=True)

    def _side_account(self, sim: _GroupState, block) -> None:
        """Cost/hang/block accounting inside a side (the masked twin of
        the shared-counter fast path in ``_bloop``).

        Every still-active lane of the side executes the same blocks, so
        the accounting is *side-uniform*: one scalar cost and one sparse
        block dict accrue in O(1) per block and are flushed onto the
        per-lane deltas only when the active set is about to change
        (:meth:`_flush_pending`).  The scalar order is preserved — cost
        first, hang check second — so a lane that crosses the budget
        hangs *without* counting the block."""
        cost = block.cost
        sim.pending_cost += cost
        sim.side_executed += cost
        if (sim.dynamic_count + sim.active_peak + sim.pending_cost
                > sim.budget):
            self._side_hang_scan(sim)
        pending = sim.pending_blocks
        ordinal = block.ordinal
        pending[ordinal] = pending.get(ordinal, 0) + 1

    def _flush_pending(self, sim: _GroupState) -> None:
        """Apply side-uniform pending accounting to every active lane.

        Must run before any change to the active set — a finishing or
        peeling lane takes its share with it, and a nested split's sides
        must start from settled parent deltas."""
        cost = sim.pending_cost
        if cost:
            sim.dyn_delta[sim.active_mask] += cost
            sim.pending_cost = 0
            sim.active_peak += cost
        blocks = sim.pending_blocks
        if blocks:
            # The settled segment is frozen (a fresh dict takes over as
            # pending), so lanes share it by reference: one list append
            # per lane, merged only if the lane's counts are ever read.
            sim.pending_blocks = {}
            block_delta = sim.block_delta
            for lane in sim.active_list:
                segments = block_delta[lane]
                if segments is None:
                    block_delta[lane] = [blocks]
                else:
                    segments.append(blocks)

    def _refresh_active_peak(self, sim: _GroupState) -> None:
        if sim.n_active:
            sim.active_peak = int(sim.dyn_delta[sim.active_mask].max())
        else:
            sim.active_peak = 0

    def _side_hang_scan(self, sim: _GroupState) -> None:
        """The budget probe tripped inside a side: settle pending costs,
        finish the lanes that actually crossed (``active_peak`` is only
        an upper bound), and re-tighten the bound for the rest."""
        self._flush_pending(sim)
        base = sim.dynamic_count
        budget = sim.budget
        dyn_delta = sim.dyn_delta
        for lane in list(sim.active_list):
            count = base + int(dyn_delta[lane])
            if count > budget:
                self._finish_lane(sim, lane, HANG, str(HangFault(count)),
                                  divergence=False)
        if sim.n_active == 0:
            raise _AllLanesDone
        self._refresh_active_peak(sim)

    def _hang_scan(self, sim: _GroupState) -> None:
        """Budget check once lanes carry divergence deltas: finish the
        lanes that crossed, keep the rest running.  With every delta at
        zero this is exactly the old uniform HangFault (all live lanes
        cross together)."""
        base = sim.dynamic_count
        budget = sim.budget
        for lane in list(sim.active_list):
            count = base + int(sim.dyn_delta[lane])
            if count > budget:
                self._finish_lane(sim, lane, HANG, str(HangFault(count)),
                                  divergence=False)
        if sim.n_active == 0:
            raise _AllLanesDone

    def _merge_slots(self, sim: _GroupState, parent_slots, lanes,
                     changes) -> None:
        """Fold one parked side's slot writes back into the parent frame.

        ``changes`` are (slot index, side value) pairs whose value
        object differs from the parent's (identity check — the batch
        tier never mutates lane-value arrays in place).  Only the
        side's surviving lanes' components are adopted; the rest keep
        the parent's view.
        """
        n_lanes = sim.lanes
        for index, value in changes:
            old = parent_slots[index]
            if old is None:
                # SSA dominance: no other lane can read this slot before
                # writing it, so adopting the side's array wholesale is
                # safe and allocation-free.
                parent_slots[index] = value
                continue
            if type(old) is not _ND:
                if type(value) is not _ND and type(old) is type(value) \
                        and old == value and value.__class__ is not float:
                    continue
                if old.__class__ is float:
                    merged = np.full(n_lanes, old, dtype=np.float64)
                elif old.__class__ is int:
                    merged = np.full(n_lanes, old, dtype=np.uint64)
                else:  # non-numeric scalar (defensive): object lanes
                    merged = _object_copy(old, n_lanes)
            else:
                merged = old.copy()
            if merged.dtype.kind == "O":
                for lane in lanes:
                    merged[lane] = _lane_value(value, lane)
            elif type(value) is _ND:
                for lane in lanes:
                    merged[lane] = value[lane]
            else:
                for lane in lanes:
                    merged[lane] = value
            parent_slots[index] = merged

    def _bloop(self, sim: _GroupState, compiled, frame, block, previous,
               record):
        block_counts = sim.block_counts
        while True:
            record[2] = block
            record[3] = previous
            self._bphi_moves(sim, frame, block, previous)
            if sim.mask_depth:
                # Re-entered via a nested call made inside a side: keep
                # the per-lane delta accounting of the enclosing side.
                self._side_account(sim, block)
            else:
                sim.dynamic_count += block.cost
                if sim.dynamic_count + sim.max_delta > sim.budget:
                    self._hang_scan(sim)
                block_counts[block.ordinal] += 1
            for bstep in self._block_steps(compiled, block):
                bstep(sim, frame)
            kind = block.term_kind
            if kind == _T_JUMP:
                previous = block
                block = block.term_payload
            elif kind == _T_CBR:
                target = self._branch_target(sim, frame, block, compiled,
                                             record)
                if sim.just_merged:
                    sim.just_merged = False
                    previous = None
                else:
                    previous = block
                block = target
            else:  # _T_RET
                fetch = block.term_payload
                return fetch(frame) if fetch is not None else None

    def _bloop_from(self, sim: _GroupState, compiled, frame, cblock,
                    start: int, record):
        """Finish a mid-block resumed frame, then rejoin the main loop."""
        steps = self._block_steps(compiled, cblock)
        for index in range(start, len(steps)):
            steps[index](sim, frame)
        kind = cblock.term_kind
        if kind == _T_JUMP:
            block = cblock.term_payload
        elif kind == _T_CBR:
            block = self._branch_target(sim, frame, cblock, compiled,
                                        record)
            if sim.just_merged:
                sim.just_merged = False
                return self._bloop(sim, compiled, frame, block, None,
                                   record)
        else:  # _T_RET
            fetch = cblock.term_payload
            return fetch(frame) if fetch is not None else None
        return self._bloop(sim, compiled, frame, block, cblock, record)

    def _bresume_frame(self, sim: _GroupState, snapshot: Snapshot,
                       depth: int):
        """Rebuild one suspended activation record in lockstep form
        (mirrors engine._resume_frame: callee first, then the call's
        return value placement, then the rest of the block)."""
        frec = snapshot.frames[depth]
        compiled = frec.compiled
        sim.call_depth += 1
        frame = _Frame(compiled.n_slots)
        frame.slots[:] = frec.slots
        frame.allocas.update(frec.allocas)
        frame.owned.extend(frec.owned)
        record = [compiled, frame, frec.cblock, frec.previous,
                  frec.step_index]
        sim.records.append(record)
        try:
            if depth + 1 < len(snapshot.frames):
                value = self._bresume_frame(sim, snapshot, depth + 1)
                cblock = frec.cblock
                inst = cblock.step_insts[frec.step_index]
                if inst.has_result:
                    lanes_armed = sim.armed.get(inst.iid)
                    if lanes_armed:
                        value = self._binject(sim, value, inst.type,
                                              lanes_armed)
                    frame.slots[compiled.slot_of[id(inst)]] = value
                return self._bloop_from(sim, compiled, frame, cblock,
                                        frec.step_index + 1, record)
            return self._bloop(sim, compiled, frame, frec.cblock,
                               frec.previous, record)
        finally:
            sim.records.pop()
            sim.call_depth -= 1
            sim.memory.free(frame.owned)

    # ------------------------------------------------------------------
    # Per-lane evaluation helpers
    # ------------------------------------------------------------------

    def _per_lane_binop(self, sim: _GroupState, evaluate, a, b, value_type):
        """Trap-capable binop, lane by lane, through the scalar helper."""
        out = _lane_array(sim.lanes, value_type)
        crashed = []
        for lane in sim.active_list:
            try:
                out[lane] = evaluate(_lane_value(a, lane),
                                     _lane_value(b, lane))
            except ArithmeticTrap as fault:
                crashed.append((lane, str(fault)))
        for lane, reason in crashed:
            self._finish_lane(sim, lane, CRASH, reason, divergence=True)
        if sim.n_active == 0:
            raise _AllLanesDone
        return out

    # ------------------------------------------------------------------
    # Batch-step compilation
    # ------------------------------------------------------------------

    def _block_steps(self, compiled, cblock):
        steps = self._bsteps.get(id(cblock))
        if steps is None:
            steps = [
                self._compile_bstep(compiled, inst, index)
                for index, inst in enumerate(cblock.step_insts)
            ]
            self._bsteps[id(cblock)] = steps
        return steps

    def _compile_bstep(self, compiled, inst, step_index):
        if isinstance(inst, BinOp):
            return self._bstep_binop(compiled, inst)
        if isinstance(inst, ICmp):
            return self._bstep_icmp(compiled, inst)
        if isinstance(inst, FCmp):
            return self._bstep_fcmp(compiled, inst)
        if isinstance(inst, Cast):
            return self._bstep_cast(compiled, inst)
        if isinstance(inst, Alloca):
            return self._bstep_alloca(compiled, inst)
        if isinstance(inst, Load):
            return self._bstep_load(compiled, inst)
        if isinstance(inst, Store):
            return self._bstep_store(compiled, inst)
        if isinstance(inst, GetElementPtr):
            return self._bstep_gep(compiled, inst)
        if isinstance(inst, Call):
            return self._bstep_call(compiled, inst, step_index)
        if isinstance(inst, Output):
            return self._bstep_output(compiled, inst)
        if isinstance(inst, Select):
            return self._bstep_select(compiled, inst)
        if isinstance(inst, Detect):
            return self._bstep_detect(compiled, inst)
        raise InterpreterBug(f"cannot batch-compile {inst!r}")

    def _bstep_binop(self, compiled, inst):
        fetch_a = self.engine._fetch(compiled, inst.lhs)
        fetch_b = self.engine._fetch(compiled, inst.rhs)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        value_type = inst.type
        op = inst.op
        bits = value_type.bits
        binject = self._binject
        per_lane = self._per_lane_binop

        if value_type.is_float:
            scalar = lambda a, b: eval_float_binop(op, a, b, bits)
            vector = _float_vector_op(op, bits)
        else:
            scalar = lambda a, b: eval_int_binop(op, a, b, bits)
            vector = _int_vector_op(op, bits)

        def bstep(sim, frame):
            a = fetch_a(frame)
            b = fetch_b(frame)
            if type(a) is not _ND and type(b) is not _ND:
                value = scalar(a, b)  # uniform; a trap hits every lane
            elif vector is not None:
                value = vector(a, b)
            else:
                value = per_lane(sim, scalar, a, b, value_type)
            lanes_armed = sim.armed.get(iid)
            if lanes_armed:
                value = binject(sim, value, value_type, lanes_armed)
            frame.slots[dest] = value

        return bstep

    def _bstep_icmp(self, compiled, inst):
        fetch_a = self.engine._fetch(compiled, inst.lhs)
        fetch_b = self.engine._fetch(compiled, inst.rhs)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        predicate = inst.predicate
        bits = inst.lhs.type.bits
        value_type = inst.type
        binject = self._binject
        vector = _icmp_vector(predicate, bits)

        def bstep(sim, frame):
            a = fetch_a(frame)
            b = fetch_b(frame)
            if type(a) is not _ND and type(b) is not _ND:
                value = eval_icmp(predicate, a, b, bits)
            else:
                value = vector(a, b).astype(np.uint64)
            lanes_armed = sim.armed.get(iid)
            if lanes_armed:
                value = binject(sim, value, value_type, lanes_armed)
            frame.slots[dest] = value

        return bstep

    def _bstep_fcmp(self, compiled, inst):
        fetch_a = self.engine._fetch(compiled, inst.lhs)
        fetch_b = self.engine._fetch(compiled, inst.rhs)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        predicate = inst.predicate
        value_type = inst.type
        binject = self._binject
        vector = _fcmp_vector(predicate)

        def bstep(sim, frame):
            a = fetch_a(frame)
            b = fetch_b(frame)
            if type(a) is not _ND and type(b) is not _ND:
                value = eval_fcmp(predicate, a, b)
            elif vector is not None:
                value = vector(a, b).astype(np.uint64)
            else:  # pragma: no cover - all IR predicates are vectorized
                out = _lane_array(sim.lanes, value_type)
                for lane in sim.active_list:
                    out[lane] = eval_fcmp(
                        predicate, _lane_value(a, lane), _lane_value(b, lane)
                    )
                value = out
            lanes_armed = sim.armed.get(iid)
            if lanes_armed:
                value = binject(sim, value, value_type, lanes_armed)
            frame.slots[dest] = value

        return bstep

    def _bstep_cast(self, compiled, inst):
        fetch = self.engine._fetch(compiled, inst.value)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        op = inst.op
        from_type = inst.value.type
        to_type = inst.type
        binject = self._binject

        if op == "trunc":
            to_mask = mask(to_type.bits)
            vector = lambda a: a & to_mask
        elif op == "zext":
            vector = lambda a: a  # canonical form is width-independent
        elif op == "sext":
            from_bits = from_type.bits
            to_mask = mask(to_type.bits)
            vector = lambda a: (
                _signed_vec(a, from_bits).astype(np.uint64) & np.uint64(to_mask)
            )
        else:
            vector = None  # fp casts & conversions: exact per-lane helper

        def bstep(sim, frame):
            a = fetch(frame)
            if type(a) is not _ND:
                value = eval_cast(op, a, from_type, to_type)
            elif vector is not None:
                value = vector(a)
            else:
                out = _lane_array(sim.lanes, to_type)
                for lane in sim.active_list:
                    out[lane] = eval_cast(
                        op, _lane_value(a, lane), from_type, to_type
                    )
                value = out
            lanes_armed = sim.armed.get(iid)
            if lanes_armed:
                value = binject(sim, value, to_type, lanes_armed)
            frame.slots[dest] = value

        return bstep

    def _bstep_alloca(self, compiled, inst):
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        count = inst.count
        elem_size = inst.elem_type.size_bytes
        value_type = inst.type
        binject = self._binject

        def bstep(sim, frame):
            address = frame.allocas.get(iid)
            if address is None:
                address, elements = sim.memory.allocate_stack(
                    count, elem_size
                )
                frame.allocas[iid] = address
                frame.owned.extend(elements)
            lanes_armed = sim.armed.get(iid)
            if lanes_armed:
                address = binject(sim, address, value_type, lanes_armed)
            frame.slots[dest] = address

        return bstep

    def _bstep_load(self, compiled, inst):
        fetch = self.engine._fetch(compiled, inst.pointer)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        value_type = inst.type
        default = default_value(value_type)
        binject = self._binject
        is_float = value_type.is_float
        unsigned_max = 0 if is_float else value_type.max_unsigned

        def coerce_scalar(value):
            # The scalar tier's reinterpret fast path, verbatim.
            if is_float:
                if value.__class__ is not float:
                    return reinterpret_loaded(value, value_type)
            elif value.__class__ is float or value > unsigned_max:
                return reinterpret_loaded(value, value_type)
            return value

        def coerce_lanes(sim, value):
            kind = value.dtype.kind
            if is_float:
                if kind == "f":
                    return value
            elif kind == "u" and bool((value <= unsigned_max).all()):
                return value
            out = _lane_array(sim.lanes, value_type)
            for lane in sim.active_list:
                cell = value[lane] if kind == "O" else _lane_value(value, lane)
                if cell is _MISSING:
                    cell = default
                out[lane] = coerce_scalar(cell)
            return out

        def load_uniform(sim, address):
            value = sim.memory.load(address, default)
            if type(value) is _ND:
                return coerce_lanes(sim, value)
            return coerce_scalar(value)

        def bstep(sim, frame):
            address = fetch(frame)
            if type(address) is not _ND:
                value = load_uniform(sim, address)
            else:
                # Addresses only *look* divergent once a lane has died
                # (or parked on the other side of a split) with another
                # pointer left in the array — check the active lanes and
                # take the uniform path when they agree.
                active_list = sim.active_list
                addresses = address[active_list]
                first = int(addresses[0])
                if len(active_list) == 1 or bool(
                    (addresses == first).all()
                ):
                    value = load_uniform(sim, first)
                else:
                    out = _lane_array(sim.lanes, value_type)
                    landed = []
                    gathered = []
                    faulted = []
                    memory = sim.memory
                    for lane, lane_address in zip(
                            active_list, addresses.tolist()):
                        try:
                            cell = memory.load(lane_address, default)
                        except MemoryFault as fault:
                            faulted.append((lane, str(fault)))
                            continue
                        cell = _lane_value(cell, lane)
                        if cell is _MISSING:
                            cell = default
                        landed.append(lane)
                        gathered.append(coerce_scalar(cell))
                    out[landed] = gathered
                    for lane, reason in faulted:
                        self._finish_lane(sim, lane, CRASH, reason,
                                          divergence=True)
                    if sim.n_active == 0:
                        raise _AllLanesDone
                    value = out
            lanes_armed = sim.armed.get(iid)
            if lanes_armed:
                value = binject(sim, value, value_type, lanes_armed)
            frame.slots[dest] = value

        return bstep

    def _bstep_store(self, compiled, inst):
        fetch_value = self.engine._fetch(compiled, inst.value)
        fetch_pointer = self.engine._fetch(compiled, inst.pointer)

        def bstep(sim, frame):
            address = fetch_pointer(frame)
            value = fetch_value(frame)
            if type(address) is not _ND:
                sim.memory.store(address, value)  # uniform (value may be lanes)
                return
            active_list = sim.active_list
            first = int(address[active_list[0]])
            if len(active_list) == 1 or bool(
                (address[active_list] == first).all()
            ):
                # Stale addresses in dead/parked lanes: active lanes
                # still agree, so this is a uniform store after all.
                sim.memory.store(first, value)
                return
            # Divergent addresses: scatter per lane into object-dtype
            # cells so each lane keeps its own view of memory.
            memory = sim.memory
            faulted = []
            for lane in active_list:
                lane_address = int(address[lane])
                if lane_address not in memory.valid:
                    faulted.append(
                        (lane, str(MemoryFault(lane_address, "store")))
                    )
                    continue
                cell = memory.cells.get(lane_address, _MISSING)
                lane_value = _lane_value(value, lane)
                # Keep (or promote to) numeric cells whenever the kinds
                # line up — object cells push every later load of the
                # address onto the per-lane coercion path.
                if type(cell) is _ND:
                    kind = cell.dtype.kind
                    if kind == "O" or (
                        kind == "f" and lane_value.__class__ is float
                    ) or (
                        kind == "u" and lane_value.__class__ is int
                        and 0 <= lane_value <= _MASK64
                    ):
                        cell = cell.copy()
                    else:
                        cell = _object_copy(cell, sim.lanes)
                elif cell.__class__ is float \
                        and lane_value.__class__ is float:
                    cell = np.full(sim.lanes, cell, dtype=np.float64)
                elif cell.__class__ is int and 0 <= cell <= _MASK64 \
                        and lane_value.__class__ is int \
                        and 0 <= lane_value <= _MASK64:
                    cell = np.full(sim.lanes, cell, dtype=np.uint64)
                else:
                    cell = _object_copy(cell, sim.lanes)
                cell[lane] = lane_value
                memory.cells[lane_address] = cell
            for lane, reason in faulted:
                self._finish_lane(sim, lane, CRASH, reason, divergence=True)
            if sim.n_active == 0:
                raise _AllLanesDone

        return bstep

    def _bstep_gep(self, compiled, inst):
        fetch_base = self.engine._fetch(compiled, inst.base)
        fetch_index = self.engine._fetch(compiled, inst.index)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        elem_size = inst.elem_size
        index_bits = inst.index.type.bits
        value_type = inst.type
        binject = self._binject
        elem_size_u64 = np.uint64(elem_size)
        mask_u64 = np.uint64(_MASK64)

        def bstep(sim, frame):
            base = fetch_base(frame)
            index = fetch_index(frame)
            if type(base) is not _ND and type(index) is not _ND:
                value = (
                    base + to_signed(index, index_bits) * elem_size
                ) & _MASK64
            else:
                # Offsets in the uint64 wrap domain: sign-extend the
                # index to 64 bits, multiply and add mod 2^64 — exactly
                # the scalar tier's `(base + signed*size) & _MASK64`.
                if type(index) is _ND:
                    offset = _sext64_vec(index, index_bits) * elem_size_u64
                else:
                    offset = (
                        to_signed(index, index_bits) * elem_size
                    ) & _MASK64
                value = base + offset
                if type(value) is not _ND or value.dtype.kind != "u":
                    value = value & mask_u64  # object lanes: wrap by hand
            lanes_armed = sim.armed.get(iid)
            if lanes_armed:
                value = binject(sim, value, value_type, lanes_armed)
            frame.slots[dest] = value

        return bstep

    def _bstep_call(self, compiled, inst, step_index):
        fetches = [
            self.engine._fetch(compiled, arg) for arg in inst.args
        ]
        callee = inst.callee
        result_type = inst.type
        has_result = inst.has_result
        dest = compiled.slot_of[id(inst)] if has_result else -1
        iid = inst.iid
        binject = self._binject

        if is_intrinsic(callee) and callee not in self.engine.module.functions:
            def bstep(sim, frame):
                args = [fetch(frame) for fetch in fetches]
                if any(type(arg) is _ND for arg in args):
                    out = _lane_array(sim.lanes, result_type)
                    for lane in sim.active_list:
                        out[lane] = call_intrinsic(
                            callee,
                            [_lane_value(arg, lane) for arg in args],
                            result_type,
                        )
                    value = out
                else:
                    value = call_intrinsic(callee, args, result_type)
                lanes_armed = sim.armed.get(iid)
                if lanes_armed:
                    value = binject(sim, value, result_type, lanes_armed)
                frame.slots[dest] = value
            return bstep

        compiled_map = self.engine._compiled
        bcall = self._bcall

        def bstep(sim, frame):
            args = [fetch(frame) for fetch in fetches]
            value = bcall(sim, compiled_map[callee], args, step_index)
            if has_result:
                lanes_armed = sim.armed.get(iid)
                if lanes_armed:
                    value = binject(sim, value, result_type, lanes_armed)
                frame.slots[dest] = value

        return bstep

    def _bstep_output(self, compiled, inst):
        fetch = self.engine._fetch(compiled, inst.value)
        value_type = inst.value.type
        precision = inst.precision

        def bstep(sim, frame):
            value = fetch(frame)
            if type(value) is not _ND and not sim.mask_depth:
                sim.outputs.append(
                    format_output(value, value_type, precision)
                )
            else:
                # Inside a reconvergence side, even a uniform value must
                # go in as a masked entry — the parked lanes on the other
                # side did not emit it.
                entry = [_NO_OUT] * sim.lanes
                for lane in sim.active_list:
                    entry[lane] = format_output(
                        _lane_value(value, lane), value_type, precision
                    )
                sim.outputs.append(entry)

        return bstep

    def _bstep_select(self, compiled, inst):
        fetch_cond = self.engine._fetch(compiled, inst.cond)
        fetch_true = self.engine._fetch(compiled, inst.true_value)
        fetch_false = self.engine._fetch(compiled, inst.false_value)
        dest = compiled.slot_of[id(inst)]
        iid = inst.iid
        value_type = inst.type
        binject = self._binject
        dtype = np.float64 if value_type.is_float else np.uint64

        def bstep(sim, frame):
            cond = fetch_cond(frame)
            if type(cond) is not _ND:
                value = fetch_true(frame) if cond else fetch_false(frame)
            else:
                value = np.where(
                    cond != 0, fetch_true(frame), fetch_false(frame)
                )
                if value.dtype != dtype:
                    value = value.astype(dtype)
            lanes_armed = sim.armed.get(iid)
            if lanes_armed:
                value = binject(sim, value, value_type, lanes_armed)
            frame.slots[dest] = value

        return bstep

    def _bstep_detect(self, compiled, inst):
        fetch_a = self.engine._fetch(compiled, inst.original)
        fetch_b = self.engine._fetch(compiled, inst.duplicate)
        is_float = inst.original.type.is_float
        iid = inst.iid

        def bstep(sim, frame):
            a = fetch_a(frame)
            b = fetch_b(frame)
            if type(a) is not _ND and type(b) is not _ND:
                if a == b:
                    return
                if is_float and a != a and b != b:
                    return
                raise DetectionTrap(f"detect #{iid}: {a!r} != {b!r}")
            tripped = []
            for lane in list(sim.active_list):
                lane_a = _lane_value(a, lane)
                lane_b = _lane_value(b, lane)
                if lane_a == lane_b:
                    continue
                if is_float and lane_a != lane_a and lane_b != lane_b:
                    continue
                tripped.append(
                    (lane, f"detect #{iid}: {lane_a!r} != {lane_b!r}")
                )
            for lane, reason in tripped:
                self._finish_lane(sim, lane, DETECTED, reason,
                                  divergence=True)
            if sim.n_active == 0:
                raise _AllLanesDone

        return bstep
