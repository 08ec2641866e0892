"""Function-granular content addressing for the query pipeline.

Three ingredients turn whole-module keys into per-function ones:

* :class:`LocalIndex` — the iid <-> (function, local position) mapping
  of one finalized module, plus symbolization of cross-function
  references as ``(function name, local position)`` pairs.  Query store
  entries hold *local* coordinates only, so they stay valid (and
  shareable) across module clones and module-wide iid renumbering.
* :func:`profile_slices` — per-function digests of the profile
  restricted to one function's instructions, in local coordinates.
  Store→load edges and reader sets belong to the *store's* home
  function (fm's unit of work); cross-function loads are symbolized.
* :func:`callgraph_digest` — the caller-multiset-per-callee structure
  interprocedural propagation negatively depends on: a *new* caller of
  ``f`` adds return edges to propagations inside ``f`` even though no
  function in their old dependency set changed.
"""

from __future__ import annotations

import hashlib
import json
from weakref import WeakKeyDictionary

from ..cache.fingerprint import (
    combine_key,
    function_fingerprints,
    module_fingerprint,
)
from ..ir.instructions import Call
from ..ir.module import Module

#: module -> (revision, callgraph digest)
_CALLGRAPHS: WeakKeyDictionary = WeakKeyDictionary()


class LocalIndex:
    """iid <-> (function name, local position) maps for one module."""

    __slots__ = ("to_local", "home", "functions")

    def __init__(self, module: Module):
        self.to_local: dict[int, tuple[str, int]] = {}
        self.home: dict[int, str] = {}
        self.functions: dict[str, list] = {}
        for function in module.functions.values():
            instructions = list(function.instructions())
            self.functions[function.name] = instructions
            for local, inst in enumerate(instructions):
                self.to_local[inst.iid] = (function.name, local)
                self.home[inst.iid] = function.name

    @classmethod
    def of(cls, module: Module) -> "LocalIndex":
        cached = module._local_index
        if cached is not None and cached[0] == module.revision:
            return cached[1]
        index = cls(module)
        module._local_index = (module.revision, index)
        return index

    def local(self, iid: int) -> tuple[str, int]:
        return self.to_local[iid]

    def instruction(self, function_name: str, local: int):
        return self.functions[function_name][local]

    def symbolize(self, iid: int, home: str):
        """Local int within ``home``; (function, local) elsewhere."""
        function, local = self.to_local[iid]
        if function == home:
            return local
        return (function, local)

    def instruction_of(self, ref, home: str):
        """The instruction a symbolized reference denotes."""
        if isinstance(ref, int):
            return self.functions[home][ref]
        function, local = ref
        return self.functions[function][local]

    def resolve(self, ref, home: str) -> int:
        """Inverse of :meth:`symbolize` (accepts JSON-decoded lists)."""
        return self.instruction_of(ref, home).iid


# ---------------------------------------------------------------------------
# Per-function profile slices


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _slice_payloads(module: Module, profile) -> dict[str, dict]:
    index = LocalIndex.of(module)
    slices: dict[str, dict] = {name: {} for name in module.functions}

    def field(iid: int, name: str):
        site = index.to_local.get(iid)
        if site is None:
            return None
        function, local = site
        return slices[function].setdefault(name, {}), local

    def sym(iid: int, home: str):
        ref = index.symbolize(iid, home)
        return ref if isinstance(ref, int) else list(ref)

    for attr in ("inst_counts", "branch_counts", "select_counts",
                 "operand_samples", "crash_prob_samples",
                 "store_instances", "store_instances_read",
                 "silent_stores"):
        for iid, value in getattr(profile, attr).items():
            slot = field(iid, attr)
            if slot is not None:
                slot[0][slot[1]] = value
    for (store_iid, load_iid), count in profile.mem_edges.items():
        site = index.to_local.get(store_iid)
        if site is None or load_iid not in index.to_local:
            continue
        home, local = site
        slices[home].setdefault("mem_edges", []).append(
            [local, sym(load_iid, home), count]
        )
    for (store_iid, readers), count in profile.store_reader_sets.items():
        site = index.to_local.get(store_iid)
        if site is None:
            continue
        home, local = site
        refs = sorted(
            (sym(r, home) for r in readers if r in index.to_local), key=repr
        )
        slices[home].setdefault("reader_sets", []).append(
            [local, refs, count]
        )
    for payload in slices.values():
        for listy in ("mem_edges", "reader_sets"):
            if listy in payload:
                payload[listy].sort(key=repr)
    return slices


#: Profile aspects that can change when only *another* function's loads
#: change (cross-function store->load references, renumbered reader
#: sites).  Only memory-reading queries (fm, sdc) key on these.
_MEMORY_ASPECTS = frozenset(
    {"mem_edges", "reader_sets", "store_instances_read"}
)


def profile_slices(module: Module, profile) -> dict[str, tuple[str, str]]:
    """Per-function ``(local, memory)`` digest pairs, memoized.

    The *local* digest covers aspects determined by the function's own
    dynamic behaviour (instruction counts, operand samples, ...); the
    *memory* digest covers the store->load graph aspects listed in
    :data:`_MEMORY_ASPECTS`.  Keyed by module fingerprint: equal
    fingerprints imply equal canonical text and therefore the identical
    iid assignment, so the memo transfers between module objects with
    the same content.
    """
    fingerprint = module_fingerprint(module)
    memo = getattr(profile, "_repro_slice_memo", None)
    if memo is not None and memo[0] == fingerprint:
        return memo[1]
    payloads = _slice_payloads(module, profile)

    def digest(payload: dict, memory: bool) -> str:
        part = {
            name: value for name, value in payload.items()
            if (name in _MEMORY_ASPECTS) == memory
        }
        return _sha256(json.dumps(part, sort_keys=True, default=repr))

    digests = {
        name: (digest(payload, False), digest(payload, True))
        for name, payload in payloads.items()
    }
    try:
        profile._repro_slice_memo = (fingerprint, digests)
    except AttributeError:
        pass  # slotted profile: recompute next time
    return digests


# ---------------------------------------------------------------------------
# Callgraph digest and combined per-function input keys


def callgraph_digest(module: Module) -> str:
    """Digest of {defined functions; caller multiset per callee}.

    Deliberately coarse: it ignores call-site *positions* (those are
    covered by the caller's own fingerprint when an entry references a
    specific call site), so inserting straight-line instructions into a
    caller does not invalidate every interprocedural entry — only
    adding/removing calls or functions does.
    """
    cached = _CALLGRAPHS.get(module)
    if cached is not None and cached[0] == module.revision:
        return cached[1]
    calls: dict[str, dict[str, int]] = {}
    for function in module.functions.values():
        for inst in function.instructions():
            if isinstance(inst, Call):
                per_callee = calls.setdefault(inst.callee, {})
                per_callee[function.name] = (
                    per_callee.get(function.name, 0) + 1
                )
    payload = {
        "functions": sorted(module.functions),
        "calls": {
            callee: sorted(callers.items())
            for callee, callers in sorted(calls.items())
        },
    }
    digest = _sha256(json.dumps(payload, sort_keys=True))
    _CALLGRAPHS[module] = (module.revision, digest)
    return digest


def function_input_keys(module: Module, profile) -> dict[str, tuple[str, str]]:
    """function -> ``(local key, full key)`` input-key pair.

    Both combine the canonical function fingerprint with profile slice
    digests; the *full* key additionally folds in the memory-aspect
    digest.  Queries that never read the store->load graph use the
    local key (so a neighbour's load renumbering can't invalidate
    them); memory-reading queries and all dependency maps use the full
    key.
    """
    fingerprints = function_fingerprints(module)
    slices = profile_slices(module, profile)
    keys: dict[str, tuple[str, str]] = {}
    for name, fingerprint in fingerprints.items():
        local_digest, memory_digest = slices.get(name, ("", ""))
        local_key = combine_key(fingerprint, local_digest)
        keys[name] = (
            local_key, combine_key(local_key, memory_digest)
        )
    return keys
