"""In-memory analysis cache shared by every consumer of one module.

Building TRIDENT plus its two ablations (fig5) or the PVF/ePVF
baselines (fig9) over the same module used to recompute control
dependence, loop info and post-dominators once *per model*; the fc and
divergence-weighting sub-models each kept private per-function caches.
:class:`AnalysisManager` hoists those analyses to one per-module cache:
every model built over the module shares them.

Invalidation is two-level and **function-granular**: the cheap check is
the module's finalize ``revision``; only when the revision moved are the
per-function canonical fingerprints recomputed, and only the entries of
functions whose *own* fingerprint changed are discarded (a no-op
re-finalize, or an edit confined to another function, keeps them).
Function fingerprints use function-local value numbering
(:func:`repro.cache.fingerprint.function_fingerprint`), so module-wide
iid renumbering never counts as a change.

Transforms participate through :meth:`note_transform`: by declaring the
functions they touched and the analyses they preserve (a pass that only
rewrites straight-line instructions keeps every CFG-shaped analysis
valid), they let even mutated functions keep entries across the next
re-finalize.  Undeclared changes always invalidate.
"""

from __future__ import annotations

from ..analysis.cfg import predecessor_map, reverse_postorder
from ..analysis.controldep import ControlDependence
from ..analysis.dominators import (
    compute_dominators,
    compute_postdominators,
    postdominators,
)
from ..analysis.loops import LoopInfo
from ..ir.function import Function
from ..ir.module import Module
from .fingerprint import function_fingerprints, module_fingerprint

#: Analyses whose results are keyed on block structure only: any
#: transform that inserts/removes straight-line (non-terminator)
#: instructions without changing block shape preserves all of them.
CFG_SHAPE_ANALYSES = (
    "control_dependence", "loop_info", "dominators", "postdominators",
    "ipostdominators", "predecessors", "reverse_postorder",
)

#: Process-wide per-kind counters, aggregated over every manager — the
#: source of the end-of-run "analysis cache" stats line.
_GLOBAL_COUNTS: dict[str, list[int]] = {}


def _bump(kind: str, slot: int, local: dict[str, list[int]]) -> None:
    for counts in (local, _GLOBAL_COUNTS):
        entry = counts.get(kind)
        if entry is None:
            entry = counts[kind] = [0, 0, 0]
        entry[slot] += 1


def reset_analysis_stats() -> None:
    """Zero the process-wide per-kind counters (tests, CLI runs)."""
    _GLOBAL_COUNTS.clear()


def analysis_stats_line() -> str | None:
    """Per-kind ``hits/misses/invalidations`` summary, or None if idle."""
    if not _GLOBAL_COUNTS:
        return None
    parts = [
        f"{kind} {c[0]}h/{c[1]}m/{c[2]}i"
        for kind, c in sorted(_GLOBAL_COUNTS.items())
    ]
    return "analyses: " + ", ".join(parts)


class AnalysisManager:
    """Per-module, function-fingerprint-invalidated analysis cache."""

    #: kind name -> constructor(function) -> analysis object
    ANALYSES = {
        "control_dependence": ControlDependence,
        "loop_info": LoopInfo,
        "dominators": compute_dominators,
        "postdominators": compute_postdominators,
        "ipostdominators": postdominators,
        "predecessors": predecessor_map,
        "reverse_postorder": reverse_postorder,
    }

    def __init__(self, module: Module):
        self.module = module
        self._revision = module.revision
        self._fingerprint = module_fingerprint(module)
        self._function_fps = dict(function_fingerprints(module))
        #: (kind, function name) -> analysis object
        self._results: dict[tuple[str, str], object] = {}
        #: kind -> [hits, misses, invalidations]
        self._counts: dict[str, list[int]] = {}
        #: Declared transforms awaiting the next fingerprint change:
        #: list of (touched function names, preserved analysis kinds).
        self._notes: list[tuple[frozenset[str], frozenset[str]]] = []

    # ------------------------------------------------------------------
    # Aggregate counters (back-compat) and per-kind accessors
    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        return sum(c[0] for c in self._counts.values())

    @property
    def misses(self) -> int:
        return sum(c[1] for c in self._counts.values())

    @property
    def invalidations(self) -> int:
        return sum(c[2] for c in self._counts.values())

    def counts(self, kind: str) -> tuple[int, int, int]:
        """(hits, misses, invalidations) of one analysis kind."""
        return tuple(self._counts.get(kind, (0, 0, 0)))

    # ------------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Current module fingerprint (checks for invalidation first)."""
        self._check()
        return self._fingerprint

    def get(self, kind: str, function: Function):
        """The cached analysis of one kind for one function."""
        try:
            build = self.ANALYSES[kind]
        except KeyError:
            raise KeyError(
                f"unknown analysis {kind!r}; "
                f"available: {tuple(self.ANALYSES)}"
            ) from None
        self._check()
        slot = (kind, function.name)
        cached = self._results.get(slot)
        if cached is None:
            cached = build(function)
            self._results[slot] = cached
            _bump(kind, 1, self._counts)
        else:
            _bump(kind, 0, self._counts)
        return cached

    # Named accessors for the common consumers.

    def control_dependence(self, function: Function) -> ControlDependence:
        return self.get("control_dependence", function)

    def loop_info(self, function: Function) -> LoopInfo:
        return self.get("loop_info", function)

    def dominators(self, function: Function) -> dict:
        return self.get("dominators", function)

    def postdominators(self, function: Function) -> dict:
        return self.get("postdominators", function)

    def ipostdominators(self, function: Function) -> dict:
        return self.get("ipostdominators", function)

    def invalidate(self) -> None:
        """Drop every cached analysis (manual override)."""
        for kind, _name in self._results:
            _bump(kind, 2, self._counts)
        self._results.clear()

    def note_transform(self, touched, preserved=()) -> None:
        """Declare a transform applied (or about to apply) to the module.

        ``touched`` are the functions whose fingerprints may change;
        ``preserved`` are the analysis kinds that stay valid for those
        functions regardless (the preserved-analyses contract).  Notes
        stack: when several transforms touch one function before the
        next re-finalize is observed, an entry survives only if *every*
        one of them preserved its kind.
        """
        self._check()  # consume any earlier pending change first
        self._notes.append((frozenset(touched), frozenset(preserved)))

    # ------------------------------------------------------------------

    def _preserved(self, function_name: str, kind: str) -> bool:
        relevant = [
            preserved for touched, preserved in self._notes
            if function_name in touched
        ]
        if not relevant:
            return False
        return all(kind in preserved for preserved in relevant)

    def _check(self) -> None:
        if self.module.revision == self._revision:
            return
        self._revision = self.module.revision
        fingerprint = module_fingerprint(self.module)
        if fingerprint == self._fingerprint:
            self._notes.clear()
            return  # no-op re-finalize: everything stays
        self._fingerprint = fingerprint
        new_fps = function_fingerprints(self.module)
        for slot in list(self._results):
            kind, name = slot
            new = new_fps.get(name)
            if new is not None and new == self._function_fps.get(name):
                continue  # untouched function: entry survives
            if new is not None and self._preserved(name, kind):
                continue  # declared transform kept this analysis valid
            del self._results[slot]
            _bump(kind, 2, self._counts)
        self._function_fps = dict(new_fps)
        self._notes.clear()


def analysis_manager_for(module: Module) -> AnalysisManager:
    """The shared per-module manager (one per live Module object).

    The manager rides on the module (see ``Module._analysis_manager``),
    so the two die together.
    """
    manager = module._analysis_manager
    if manager is None:
        manager = module._analysis_manager = AnalysisManager(module)
    return manager


def notify_transform(module: Module, touched, preserved=()) -> None:
    """Forward a transform declaration to the module's manager, if any.

    Transforms call this unconditionally; when no manager exists yet the
    declaration is moot (a fresh manager fingerprints the post-transform
    module), so nothing is recorded.
    """
    manager = module._analysis_manager
    if manager is not None:
        manager.note_transform(touched, preserved)
