"""Direct-injection plan builder: fault sites folded into the decoder.

The instrumented reference engine (paper §II-D) splices ``injectFault<Ty>Ty``
calls into a cloned module, which the VM then interprets — every vector site
costs an extract/mask-decode/call/insert chain of dynamic instructions on
*both* halves of every experiment.  The direct engine keeps the module
pristine: this module turns the same :class:`~repro.core.sites.StaticSite`
list into an :class:`~repro.vm.decode.InjectionPlan` whose per-lane
:class:`~repro.vm.decode.PlannedSite` descriptors the decoder folds into
specialised closures.

Bit-identical behaviour with the instrumented engine is engineered in, not
hoped for:

* site ids come from :func:`~repro.core.sites.assign_site_ids` — the same
  grouping the instrumentor uses, so both engines number sites identically;
* mask decoding and pointer handling compose the very :mod:`repro.vm.ops`
  evaluators the spliced chain's ``bitcast``/``lshr``/``zext``/``ptrtoint``/
  ``inttoptr`` instructions would execute;
* each descriptor carries the chain's dynamic-instruction *tax*
  (:func:`chain_tax`), charged to the VM's step accounting when the lane is
  visited, so step budgets, timeout crashes, and dynamic-instruction totals
  agree with the instrumented engine.

The block compiler (:mod:`repro.vm.compile`) runs this plan: compiled
chains inline the group counting and charge the same taxes, and fall back
to the decoded appliers built here for any block a target index could
land in — one plan, two tiers, one stream of observables.
"""

from __future__ import annotations

import numpy as np

from ..ir.intrinsics import MASK_I1
from ..ir.types import I32, I64, IntType, PointerType
from ..vm import ops
from ..vm.decode import InjectionPlan, PlannedSite
from .runtime import ENTRY_INDEX, api_name_for
from .sites import StaticSite, assign_site_ids


def chain_tax(site: StaticSite, respect_masks: bool) -> tuple[int, int, int]:
    """The (total, scalar, vector) dynamic-instruction cost of the spliced
    chain this site would get under the instrumented engine.

    Scalar sites: the runtime call, plus the ptrtoint/inttoptr sandwich for
    pointers.  Vector lanes add the extract/insert pair, and masked lanes
    the mask-decode instructions (§II-D): extract + zext for ``i1`` masks,
    extract + bitcast + lshr for sign-bit float masks, extract + lshr for
    sign-bit integer masks.
    """
    # The runtime call itself (scalar: all operands are scalars).
    total, scalar, vector = 1, 1, 0
    if isinstance(site.scalar_type, PointerType):
        total += 2
        scalar += 2
    if site.lane is not None:
        # extractelement + insertelement around the call.
        total += 2
        vector += 2
        if site.mask is not None and respect_masks:
            mask_lane = site.instr.operands[site.mask.operand_index].type.scalar_type
            # extractelement of the mask lane...
            total += 1
            vector += 1
            if site.mask.convention == MASK_I1:
                # ...then zext i1 -> i32.
                total += 1
                scalar += 1
            elif mask_lane.is_float():
                # ...then bitcast to i32 and lshr by 31.
                total += 2
                scalar += 2
            else:
                # ...then lshr by 31 directly.
                total += 1
                scalar += 1
    return total, scalar, vector


def _active_fn(site: StaticSite):
    """The mask-lane -> ``active`` evaluator matching the spliced chain."""
    mask_lane = site.instr.operands[site.mask.operand_index].type.scalar_type
    if site.mask.convention == MASK_I1:
        return ops.cast_fn("zext", mask_lane, I32)
    if mask_lane.is_float():
        bitcast = ops.cast_fn("bitcast", mask_lane, I32)
        lshr = ops.binop_fn("lshr", I32)
        return lambda m: lshr(bitcast(m), 31)
    lshr = ops.binop_fn("lshr", mask_lane)
    return lambda m: lshr(m, 31)


def _bulk_active_fn(site: StaticSite):
    """A packed-mask -> active-lane-count evaluator, or ``None``.

    The batched compiled tier counts a whole mask vector's active lanes in
    one vectorized pass; the result must equal summing :func:`_active_fn`
    over the canonical lanes.  ``lshr(m, 31)`` masks the shift amount to the
    lane width, so for i8/i16/i32 mask lanes it extracts the *sign bit* —
    a ``< 0`` test — while for i64 lanes it extracts bit 31 (not 0/1), so
    those decline the bulk path.  Likewise f64 sign-bit masks: the spliced
    chain's ``bitcast`` to i32 has no packed equivalent, so they stay
    per-lane.
    """
    mask_lane = site.instr.operands[site.mask.operand_index].type.scalar_type
    if site.mask.convention == MASK_I1:
        # zext of canonical 0/1 lanes: active count == nonzero count.
        return lambda m: int(np.count_nonzero(m))
    if mask_lane.is_float():
        if mask_lane.bits == 32:
            return lambda m: int(np.signbit(m).sum())
        return None
    if isinstance(mask_lane, IntType):
        if mask_lane.bits == 1:
            return lambda m: int(np.count_nonzero(m))
        if mask_lane.bits in (8, 16, 32):
            return lambda m: int((m < 0).sum())
    return None


def _planned_site(site: StaticSite, respect_masks: bool) -> PlannedSite:
    scalar_type = site.scalar_type
    to_int = to_ptr = None
    if isinstance(scalar_type, PointerType):
        # Pointers are bit-flipped as 64-bit integers (§II-D).
        to_int = ops.cast_fn("ptrtoint", scalar_type, I64)
        to_ptr = ops.cast_fn("inttoptr", I64, scalar_type)
    masked = site.mask is not None and respect_masks
    return PlannedSite(
        site_id=site.site_id,
        lane=site.lane,
        entry_index=ENTRY_INDEX[api_name_for(scalar_type)],
        mask_operand_index=site.mask.operand_index if masked else None,
        active_fn=_active_fn(site) if masked else None,
        active_bulk_fn=_bulk_active_fn(site) if masked else None,
        to_int=to_int,
        to_ptr=to_ptr,
        tax=chain_tax(site, respect_masks),
    )


def build_injection_plan(
    sites: list[StaticSite], respect_masks: bool = True
) -> InjectionPlan:
    """Assign site ids and compile ``sites`` into an :class:`InjectionPlan`.

    ``respect_masks=False`` mirrors the instrumented engine's ablation
    switch: masked lanes are planned as always-active (and charged the
    cheaper unmasked chain tax, exactly like the chain the ablation would
    have spliced).
    """
    plan = InjectionPlan()
    for group in assign_site_ids(sites):
        first = group[0]
        descriptors = [_planned_site(site, respect_masks) for site in group]
        if first.targets_store_value:
            plan.store[first.instr] = (first.operand_index, descriptors)
        else:
            plan.lvalue[first.instr] = descriptors
    return plan
