"""Modules: the top-level IR container (functions + globals).

``Module.finalize()`` assigns every instruction a module-wide static id
(``iid``) — the identifier TRIDENT, the profiler and the fault injector
all key on — and runs the verifier.
"""

from __future__ import annotations

from .function import Function
from .instructions import Instruction
from .types import Type
from .values import GlobalVariable


class Module:
    """Top-level container for functions and global variables."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVariable] = {}
        self._instructions_by_iid: list[Instruction] = []
        self._finalized = False
        #: Bumped by every finalize(); caches keyed on module content use
        #: it to notice mutation-then-refinalize cheaply.
        self.revision = 0
        #: Derived caches attached on first use: the shared
        #: :class:`repro.cache.manager.AnalysisManager` and the
        #: (revision, :class:`repro.query.keys.LocalIndex`) pair.  They
        #: ride on the module because their values reference it: in a
        #: module-keyed side table they would keep every module alive.
        self._analysis_manager = None
        self._local_index = None

    # -- construction --------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function: {function.name}")
        function.parent = self
        self.functions[function.name] = function
        self._finalized = False
        return function

    def add_global(self, global_var: GlobalVariable) -> GlobalVariable:
        if global_var.name in self.globals:
            raise ValueError(f"duplicate global: {global_var.name}")
        self.globals[global_var.name] = global_var
        self._finalized = False
        return global_var

    def new_global(self, name: str, elem_type: Type, count: int = 1,
                   initializer=None) -> GlobalVariable:
        return self.add_global(GlobalVariable(name, elem_type, count, initializer))

    # -- lookup ---------------------------------------------------------------

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"module {self.name}: no function {name}") from None

    @property
    def main(self) -> Function:
        return self.function("main")

    def instruction(self, iid: int) -> Instruction:
        """Look up an instruction by its static id (requires finalize)."""
        self._require_finalized()
        return self._instructions_by_iid[iid]

    def instructions(self):
        """All instructions across all functions, in iid order."""
        self._require_finalized()
        return list(self._instructions_by_iid)

    @property
    def num_instructions(self) -> int:
        return sum(f.num_instructions for f in self.functions.values())

    # -- finalization ----------------------------------------------------------

    def finalize(self, verify: bool = True) -> "Module":
        """Assign static instruction ids and (optionally) verify the IR."""
        self._instructions_by_iid = []
        next_iid = 0
        for function in self.functions.values():
            for instruction in function.instructions():
                instruction.iid = next_iid
                if not instruction.name and instruction.has_result:
                    instruction.name = str(next_iid)
                self._instructions_by_iid.append(instruction)
                next_iid += 1
        self._finalized = True
        self.revision += 1
        if verify:
            from .verifier import verify_module
            verify_module(self)
        return self

    @property
    def is_finalized(self) -> bool:
        return self._finalized

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError(
                f"module {self.name} must be finalized first "
                "(call module.finalize())"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Module {self.name} ({len(self.functions)} functions, "
            f"{self.num_instructions} insts)>"
        )
