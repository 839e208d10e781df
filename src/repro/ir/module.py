"""Containers: Module → Function → BasicBlock → Instruction.

A :class:`Function` with no blocks is a *declaration* — that is how runtime
API functions such as ``@injectFaultFloatTy`` and the detector entry point
``@checkInvariantsForeachFullBody`` appear in instrumented modules, exactly
as in the paper's Fig. 5 and Fig. 7 listings.  The VM binds declarations to
host callables at execution time.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import IRError
from .instructions import Instruction, Phi
from .types import FunctionType, Type
from .values import Argument, Value


class BasicBlock(Value):
    """A label plus an ordered list of instructions ending in a terminator."""

    __slots__ = ("instructions", "parent")

    def __init__(self, name: str, parent: "Function | None" = None):
        from .types import VOID

        super().__init__(VOID, name)
        self.instructions: list[Instruction] = []
        self.parent = parent

    # -- structure -----------------------------------------------------------

    def _bump_version(self) -> None:
        fn = self.parent
        if fn is not None and fn.module is not None:
            fn.module.version += 1

    def append(self, instr: Instruction) -> Instruction:
        if self.is_terminated:
            raise IRError(f"block {self.name} is already terminated")
        instr.parent = self
        self.instructions.append(instr)
        self._bump_version()
        return instr

    def insert(self, index: int, instr: Instruction) -> Instruction:
        instr.parent = self
        self.instructions.insert(index, instr)
        self._bump_version()
        return instr

    def insert_before(self, anchor: Instruction, instr: Instruction) -> Instruction:
        return self.insert(self.instructions.index(anchor), instr)

    def insert_after(self, anchor: Instruction, instr: Instruction) -> Instruction:
        return self.insert(self.instructions.index(anchor) + 1, instr)

    def remove(self, instr: Instruction) -> None:
        self.instructions.remove(instr)
        instr.parent = None
        self._bump_version()

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []  # type: ignore[attr-defined]

    def predecessors(self) -> list["BasicBlock"]:
        if self.parent is None:
            return []
        return [b for b in self.parent.blocks if self in b.successors()]

    def phis(self) -> list[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    def non_phi_instructions(self) -> list[Instruction]:
        return [i for i in self.instructions if not isinstance(i, Phi)]

    def first_non_phi_index(self) -> int:
        for i, instr in enumerate(self.instructions):
            if not isinstance(instr, Phi):
                return i
        return len(self.instructions)

    def ref(self) -> str:
        return f"%{self.name}"

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BasicBlock {self.name} ({len(self.instructions)} instrs)>"


class Function(Value):
    """A function definition or declaration."""

    __slots__ = ("function_type", "args", "blocks", "module", "attributes")

    def __init__(
        self,
        name: str,
        function_type: FunctionType,
        arg_names: Iterable[str] | None = None,
        module: "Module | None" = None,
    ):
        super().__init__(function_type, name)
        self.function_type = function_type
        names = list(arg_names) if arg_names is not None else [
            f"arg{i}" for i in range(len(function_type.params))
        ]
        if len(names) != len(function_type.params):
            raise IRError(
                f"@{name}: {len(names)} argument names for "
                f"{len(function_type.params)} parameters"
            )
        self.args = [Argument(t, n, self) for t, n in zip(function_type.params, names)]
        self.blocks: list[BasicBlock] = []
        self.module = module
        # Free-form attribute set: "intrinsic", "detector", "vulfi-runtime"...
        self.attributes: set[str] = set()

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"@{self.name} is a declaration; it has no entry block")
        return self.blocks[0]

    def add_block(self, name: str, after: BasicBlock | None = None) -> BasicBlock:
        block = BasicBlock(self._unique_block_name(name), self)
        if after is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(after) + 1, block)
        if self.module is not None:
            self.module.version += 1
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None
        if self.module is not None:
            self.module.version += 1

    def get_block(self, name: str) -> BasicBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise IRError(f"@{self.name} has no block named {name}")

    def _unique_block_name(self, base: str) -> str:
        existing = {b.name for b in self.blocks}
        if base not in existing:
            return base
        i = 1
        while f"{base}{i}" in existing:
            i += 1
        return f"{base}{i}"

    def predecessor_map(self) -> dict[int, list[BasicBlock]]:
        """``id(block)`` -> the block's predecessors, for every block at once.

        One pass over the terminators; each list is in block order and
        holds a predecessor once even when both arms of its ``condbr``
        lead to the block, exactly as :meth:`BasicBlock.predecessors`.
        Blocks without predecessors have no entry.  A snapshot: rebuild
        it after changing the CFG.
        """
        preds: dict[int, list[BasicBlock]] = {}
        for block in self.blocks:
            for succ in block.successors():
                into = preds.setdefault(id(succ), [])
                if not into or into[-1] is not block:
                    into.append(block)
        return preds

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def renumber(self) -> None:
        """Assign unique names to every unnamed or colliding local value.

        Keeps meaningful names (codegen emits the paper's ``new_counter``,
        ``aligned_end``...) and gives anonymous temporaries sequential
        numeric names, LLVM-style.
        """
        taken: set[str] = {a.name for a in self.args}
        counter = 0

        def fresh(base: str) -> str:
            nonlocal counter
            if base and base not in taken:
                taken.add(base)
                return base
            if base:
                i = 1
                while f"{base}.{i}" in taken:
                    i += 1
                name = f"{base}.{i}"
                taken.add(name)
                return name
            while str(counter) in taken:
                counter += 1
            name = str(counter)
            counter += 1
            taken.add(name)
            return name

        block_taken: set[str] = set()
        for block in self.blocks:
            base = block.name or "bb"
            if base in block_taken:
                i = 1
                while f"{base}.{i}" in block_taken:
                    i += 1
                base = f"{base}.{i}"
            block.name = base
            block_taken.add(base)
            for instr in block.instructions:
                if instr.has_lvalue():
                    instr.name = fresh(instr.name)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "declare" if self.is_declaration else "define"
        return f"<{kind} @{self.name}>"


class Module:
    """Top-level IR container: an ordered set of functions.

    ``version`` counts structural mutations (blocks/instructions/operands
    added, removed, or rewired).  The VM's pre-decoded execution cache
    (:mod:`repro.vm.decode`) keys on it, so any IR change after a run
    transparently invalidates the decoded program.
    """

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: dict[str, Function] = {}
        self.version = 0

    def __getstate__(self) -> dict:
        # The decode cache holds closures; never let it ride along a pickle
        # (parallel campaign workers ship pristine modules between processes).
        # The site cache is rebuilt on first use, like the decode cache.
        state = self.__dict__.copy()
        state.pop("_vm_decoded", None)
        state.pop("_site_targets", None)
        return state

    def add_function(
        self,
        name: str,
        function_type: FunctionType,
        arg_names: Iterable[str] | None = None,
    ) -> Function:
        if name in self.functions:
            raise IRError(f"module already defines @{name}")
        fn = Function(name, function_type, arg_names, self)
        self.functions[name] = fn
        self.version += 1
        return fn

    def declare_function(
        self,
        name: str,
        function_type: FunctionType,
        attributes: Iterable[str] = (),
    ) -> Function:
        """Add (or fetch an identical existing) declaration."""
        if name in self.functions:
            fn = self.functions[name]
            if fn.function_type != function_type:
                raise IRError(
                    f"conflicting declaration of @{name}: "
                    f"{fn.function_type} vs {function_type}"
                )
            fn.attributes.update(attributes)
            return fn
        fn = Function(name, function_type, None, self)
        fn.attributes.update(attributes)
        self.functions[name] = fn
        self.version += 1
        return fn

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"module has no function @{name}") from None

    def defined_functions(self) -> list[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def renumber(self) -> None:
        for fn in self.defined_functions():
            fn.renumber()

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Module {self.name} ({len(self.functions)} functions)>"
