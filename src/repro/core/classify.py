"""Forward-slice fault-site classification (paper §II-C, Fig. 2).

The three categories:

* **pure-data**: the forward slice has no ``getelementptr`` and no
  control-flow instruction;
* **control**: the slice has at least one control-flow instruction (a
  conditional branch — the instruction that *decides* control from data);
* **address**: the slice has at least one ``getelementptr``.

Pure-data is disjoint from the other two; control ∩ address can be non-empty
(the Fig. 3 loop counter ``i`` is both).  The slice is taken over SSA
def-use edges and **includes the site's own instruction**, so a
``getelementptr``'s Lvalue — a raw address — is itself an address site.
As a refinement of the paper's definition, *any* pointer-typed Lvalue is an
address site (a pointer produced by ``bitcast`` from a gep is still an
address even though its own slice contains no further ``getelementptr`` —
the paper's Fig. 10 discussion notes exactly this cast pattern).

For store-value sites the "slice" is the store alone (the value is consumed
by memory); such sites are pure-data: a corrupted stored datum never alters
an address computation or a branch directly.
"""

from __future__ import annotations

from typing import Iterable

from ..ir.dataflow import forward_slice
from ..ir.instructions import GetElementPtr, Instruction

PURE_DATA = "pure-data"
CONTROL = "control"
ADDRESS = "address"

_PURE_DATA_ONLY = frozenset({PURE_DATA})


class SliceReach:
    """Which values' forward slices hold a classifying instruction.

    ``address`` and ``control`` are the ids of the values whose slice
    holds a non-detector ``getelementptr``, respectively a non-detector
    control-flow instruction.  One backward pass over the def-use edges
    of ``instructions`` (which must include every user of every member)
    finds each set: a value's slice holds a target iff one of its users
    is a target or is itself a value (has an Lvalue) whose slice holds
    one.  Linear in the number of operands, where a
    :func:`~repro.ir.dataflow.slice_contains` per value is quadratic.
    """

    __slots__ = ("address", "control")

    def __init__(self, instructions: Iterable[Instruction]):
        geps: list[Instruction] = []
        branches: list[Instruction] = []
        for instr in instructions:
            # Detector plumbing (inserted condbr/gep of checker code) must
            # not reclassify application values: the categories describe
            # the program under study, not the instrumentation around it.
            if instr.meta.get("detector"):
                continue
            if isinstance(instr, GetElementPtr):
                geps.append(instr)
            elif instr.is_control_flow:
                branches.append(instr)
        self.address = _reaching(geps)
        self.control = _reaching(branches)

    @classmethod
    def of(cls, instr: Instruction) -> "SliceReach":
        """The reach over ``instr``'s function, or over its own forward
        slice when it sits in no function."""
        fn = instr.function
        return cls(fn.instructions() if fn is not None else [instr, *forward_slice(instr)])


def _reaching(targets: list[Instruction]) -> set[int]:
    """ids of the values from which some target is a def-use path away."""
    reach: set[int] = set()
    work = targets
    while work:
        user = work.pop()
        for value in user.operands:
            if id(value) in reach:
                continue
            reach.add(id(value))
            # The slice continues through a user only via its own result.
            if isinstance(value, Instruction) and value.has_lvalue():
                work.append(value)
    return reach


def classify_instruction(
    instr: Instruction, as_store_value: bool = False, reach: SliceReach | None = None
) -> frozenset[str]:
    """Category membership of the fault site anchored at ``instr``.

    Returns ``{'pure-data'}`` or a non-empty subset of
    ``{'control', 'address'}`` (Fig. 2: pure-data excludes the others).
    ``reach`` is the :class:`SliceReach` of ``instr``'s function, when the
    caller classifies many instructions of one function.
    """
    if as_store_value:
        return _PURE_DATA_ONLY

    cached = instr.meta.get("vulfi_categories")
    if cached is not None:
        return cached

    if reach is None:
        reach = SliceReach.of(instr)
    cats: set[str] = set()
    if isinstance(instr, GetElementPtr) or instr.is_control_flow:
        # The slice includes the instruction itself.
        cats.add(ADDRESS if isinstance(instr, GetElementPtr) else CONTROL)
    if instr.has_lvalue() and instr.type.scalar_type.is_pointer():
        # A pointer-valued register (gep result, pointer bitcast, vector of
        # gather addresses) *is* an address: flipping it produces a wild
        # access even though no further getelementptr appears downstream.
        cats.add(ADDRESS)
    if id(instr) in reach.address:
        cats.add(ADDRESS)
    if id(instr) in reach.control:
        cats.add(CONTROL)
    if not cats:
        cats.add(PURE_DATA)
    result = frozenset(cats)
    instr.meta["vulfi_categories"] = result
    return result
