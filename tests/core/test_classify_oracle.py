"""The one-pass site classifier against the forward-slice definition.

:class:`~repro.core.classify.SliceReach` finds, in one backward pass over
a function's def-use edges, the values whose forward slice holds a
non-detector ``getelementptr`` or control-flow instruction.  Section II-C
defines the categories by the slice itself, which
:func:`~repro.ir.dataflow.slice_contains` walks value by value.  The two
must agree on every value, and so on every site, of every registry
workload on both targets (with and without the ``foreach`` detectors) and
of the random-program generator's modules.
"""

import pytest

from repro.core import ADDRESS, CONTROL, PURE_DATA, enumerate_sites
from repro.core.classify import SliceReach
from repro.ir.dataflow import slice_contains
from repro.ir.generate import build_random_module, build_remainder_module
from repro.ir.instructions import GetElementPtr
from repro.workloads import all_workloads


def _is_address(user) -> bool:
    return isinstance(user, GetElementPtr) and not user.meta.get("detector")


def _is_control(user) -> bool:
    return user.is_control_flow and not user.meta.get("detector")


def reference_categories(instr, as_store_value: bool) -> frozenset:
    """Fig. 2's categories, each slice walked on its own."""
    if as_store_value:
        return frozenset({PURE_DATA})
    cats = set()
    if isinstance(instr, GetElementPtr):
        cats.add(ADDRESS)
    elif instr.is_control_flow:
        cats.add(CONTROL)
    if instr.has_lvalue() and instr.type.scalar_type.is_pointer():
        cats.add(ADDRESS)
    if slice_contains(instr, _is_address):
        cats.add(ADDRESS)
    if slice_contains(instr, _is_control):
        cats.add(CONTROL)
    return frozenset(cats or {PURE_DATA})


def _check_module(module) -> int:
    """Compare both definitions on every value and site; returns the
    number of sites checked."""
    checked = 0
    for fn in module.defined_functions():
        reach = SliceReach(fn.instructions())
        for value in [*fn.args, *fn.instructions()]:
            where = f"{module.name}:@{fn.name}: {value.ref()}"
            assert (id(value) in reach.address) == slice_contains(value, _is_address), where
            assert (id(value) in reach.control) == slice_contains(value, _is_control), where
        # Drop the per-instruction memo so the sites are classified afresh.
        for instr in fn.instructions():
            instr.meta.pop("vulfi_categories", None)
        for site in enumerate_sites(fn):
            assert site.categories == reference_categories(
                site.instr, site.targets_store_value
            ), site.describe()
            checked += 1
    return checked


@pytest.mark.parametrize("foreach_detectors", [False, True], ids=["plain", "foreach"])
@pytest.mark.parametrize("target", ["avx", "sse"])
def test_registry_workloads_match_slice_definition(target, foreach_detectors):
    checked = 0
    for w in all_workloads():
        checked += _check_module(w.compile(target, foreach_detectors=foreach_detectors))
    assert checked > 0


@pytest.mark.parametrize("seed", range(12))
def test_generated_modules_match_slice_definition(seed):
    assert _check_module(build_random_module(seed)) > 0
    assert _check_module(build_remainder_module(seed)) > 0
