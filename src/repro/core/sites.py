"""Static fault-site enumeration (paper §II-B).

A *fault site* is a scalar register that can receive a single-bit flip:

* the Lvalue of any instruction producing an integer, float, or pointer —
  for a vector Lvalue, **each scalar lane is its own site** (§II-B: "a
  systematic approach is developed to allow each of these scalar registers
  to be treated independently during fault injection");
* the value operand of a ``store`` (stores have no Lvalue; the value is
  intercepted just before the store executes), including the stored-value
  operand of masked-store/scatter intrinsics.

Masked vector operations contribute *potential* sites for every lane; the
decision whether a lane is really a fault site is made at **runtime** from
the execution mask (an inactive lane never counts as a dynamic site), which
is why each site records how to locate its mask.

Exclusions: phi nodes (register shuffling handled at block entry; their
inputs are other instructions' Lvalues which are themselves sites), allocas
(compile-time constants of the stack layout), VULFI's own injected runtime
calls, and detector instructions — marked by ``meta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.instructions import Alloca, Call, Instruction, Phi, Store
from ..ir.intrinsics import IntrinsicInfo, intrinsic_info_for_call
from ..ir.module import Function, Module
from ..ir.types import Type
from .classify import SliceReach, classify_instruction

#: Site category names, as in the paper.
PURE_DATA = "pure-data"
CONTROL = "control"
ADDRESS = "address"
CATEGORIES = (PURE_DATA, CONTROL, ADDRESS)


@dataclass(frozen=True)
class MaskSpec:
    """How to obtain the execution-mask lane for a masked site."""

    operand_index: int  # operand of the call that carries the mask
    convention: str  # MASK_I1 or MASK_SIGN


@dataclass
class StaticSite:
    """One scalar lane of one instrumentable register."""

    instr: Instruction
    lane: int | None  # None for scalar registers
    scalar_type: Type
    categories: frozenset[str]
    # None → target the Lvalue; otherwise the operand index of a store-like
    # value (plain store: 0; maskstore/scatter: the intrinsic's data operand).
    operand_index: int | None = None
    mask: MaskSpec | None = None
    site_id: int = -1  # assigned by the instrumentor

    @property
    def is_vector_lane(self) -> bool:
        return self.lane is not None

    @property
    def targets_store_value(self) -> bool:
        return self.operand_index is not None

    def describe(self) -> str:
        lane = f"[lane {self.lane}]" if self.lane is not None else ""
        what = "store-value of" if self.targets_store_value else "lvalue of"
        fn = self.instr.function
        where = f"@{fn.name}" if fn else "?"
        return (
            f"site #{self.site_id} {what} '{self.instr.opcode}'{lane} "
            f"({self.scalar_type}) in {where} {{{', '.join(sorted(self.categories))}}}"
        )


def _is_excluded(instr: Instruction) -> bool:
    if instr.meta.get("vulfi") or instr.meta.get("detector"):
        return True
    if isinstance(instr, (Phi, Alloca)):
        return True
    return False


def _expand(
    instr: Instruction,
    value_type: Type,
    categories: frozenset[str],
    operand_index: int | None,
    mask: MaskSpec | None,
) -> list[StaticSite]:
    if value_type.is_vector():
        elem = value_type.scalar_type
        return [
            StaticSite(instr, lane, elem, categories, operand_index, mask)
            for lane in range(value_type.vector_length)
        ]
    return [StaticSite(instr, None, value_type, categories, operand_index, mask)]


#: One instrumentable register: the :func:`_expand` arguments of its sites.
_Target = tuple[Instruction, Type, frozenset, "int | None", "MaskSpec | None"]


def _targets(fn: Function) -> list[_Target]:
    """The instrumentable registers of a function, in program order."""
    reach = SliceReach(fn.instructions())
    targets: list[_Target] = []
    for instr in fn.instructions():
        if _is_excluded(instr):
            continue

        info: IntrinsicInfo | None = None
        if isinstance(instr, Call):
            info = intrinsic_info_for_call(instr)

        # Store-like: target the value operand, before the store happens.
        if isinstance(instr, Store):
            vt = instr.value.type
            if vt.is_first_class():
                cats = classify_instruction(instr, as_store_value=True)
                targets.append((instr, vt, cats, 0, None))
            continue
        if info is not None and info.stored_value_index is not None:
            vt = info.function_type.params[info.stored_value_index]
            cats = classify_instruction(instr, as_store_value=True)
            mask = (
                MaskSpec(info.mask_index, info.mask_convention)
                if info.masked and info.mask_index is not None
                else None
            )
            targets.append((instr, vt, cats, info.stored_value_index, mask))
            continue

        # Ordinary Lvalue target.
        if not instr.has_lvalue() or not instr.type.is_first_class():
            continue
        cats = classify_instruction(instr, reach=reach)
        mask = None
        if info is not None and info.masked and info.mask_index is not None:
            mask = MaskSpec(info.mask_index, info.mask_convention)
        targets.append((instr, instr.type, cats, None, mask))
    return targets


def enumerate_sites(fn: Function) -> list[StaticSite]:
    """All static fault sites of a function, in program order."""
    return [site for target in _targets(fn) for site in _expand(*target)]


def _module_targets(module: Module, functions: list[str] | None) -> list[_Target]:
    """Every instrumentable register of the module's (selected) defined
    functions, enumerated once per module version and function selection.

    The cache lives on the module; any IR mutation bumps
    ``module.version`` and so invalidates it.  Sites are expanded from it
    afresh on every call, since each engine numbers its own sites.
    """
    key = (module.version, None if functions is None else tuple(functions))
    cached = getattr(module, "_site_targets", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    targets = [
        target
        for fn in module.defined_functions()
        if functions is None or fn.name in functions
        for target in _targets(fn)
    ]
    module._site_targets = (key, targets)
    return targets


def enumerate_module_sites(
    module: Module, functions: list[str] | None = None
) -> list[StaticSite]:
    """Sites across the module's defined functions (optionally restricted)."""
    return [
        site
        for target in _module_targets(module, functions)
        for site in _expand(*target)
    ]


def module_sites(
    module: Module, category: str, functions: list[str] | None = None
) -> list[StaticSite]:
    """``filter_sites(enumerate_module_sites(module, functions), category)``,
    expanding only the registers the category keeps."""
    _check_category(category)
    return [
        site
        for target in _module_targets(module, functions)
        if category == "all" or category in target[2]
        for site in _expand(*target)
    ]


def _check_category(category: str) -> None:
    if category != "all" and category not in CATEGORIES:
        raise ValueError(f"unknown site category {category!r}")


def filter_sites(sites: list[StaticSite], category: str) -> list[StaticSite]:
    """Apply one of the §II-C site-selection heuristics."""
    _check_category(category)
    if category == "all":
        return list(sites)
    return [s for s in sites if category in s.categories]


def site_groups(sites: list[StaticSite]) -> list[list[StaticSite]]:
    """Group per-lane sites of one register, lanes in order (Fig. 4).

    One group per ``(instruction, operand)`` target, in first-appearance
    order.  Both executable forms of a site list — the IR instrumentor and
    the direct engine's injection plan — walk these identical groups, which
    is what keeps their site ids and dynamic-site ordering in lockstep.
    """
    groups: dict[tuple[int, int | None], list[StaticSite]] = {}
    order: list[tuple[int, int | None]] = []
    for site in sites:
        key = (id(site.instr), site.operand_index)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(site)
    return [
        sorted(groups[key], key=lambda s: (s.lane is not None, s.lane or 0))
        for key in order
    ]


def assign_site_ids(sites: list[StaticSite]) -> list[list[StaticSite]]:
    """Assign sequential site ids in canonical group order.

    Returns the groups so callers can keep walking them.  Deterministic for
    a given site list: parallel workers rebuilding an engine from the same
    pristine module enumerate identical ids.
    """
    groups = site_groups(sites)
    next_id = 0
    for group in groups:
        for site in group:
            site.site_id = next_id
            next_id += 1
    return groups
