"""Structural and SSA verifier.

Run after construction, after every pass, and after instrumentation — a
fault injector that corrupts its *own* IR invalidates a whole campaign, so
the test-suite verifies every module it builds.  Checks:

* every block ends in exactly one terminator (and only the last instruction
  is a terminator);
* the entry block has no predecessors;
* phi nodes are grouped at the top of their block and their incoming edges
  match the block's predecessors exactly;
* use-def bookkeeping is consistent in both directions;
* every definition dominates each of its uses (classic SSA property);
* calls reference functions of the enclosing module.

Linear in the function's size: one predecessor map, one set of use
records per operand value, and dominance answered by the dominator tree's
preorder intervals.
"""

from __future__ import annotations

from ..errors import VerificationError
from .cfg import DominatorTree
from .instructions import Call, Instruction, Phi
from .module import BasicBlock, Function, Module
from .values import Argument, Constant, Value


def verify_module(module: Module) -> None:
    problems: list[str] = []
    for fn in module.defined_functions():
        problems.extend(_function_problems(fn, module))
    if problems:
        raise VerificationError(problems)


def verify_function(fn: Function) -> None:
    problems = _function_problems(fn, fn.module)
    if problems:
        raise VerificationError(problems)


def _function_problems(fn: Function, module: Module | None) -> list[str]:
    problems: list[str] = []
    where = f"@{fn.name}"

    if not fn.blocks:
        return [f"{where}: defined function has no blocks"]

    preds_of = fn.predecessor_map()
    if id(fn.entry) in preds_of:
        problems.append(f"{where}: entry block has predecessors")

    block_set = {id(b) for b in fn.blocks}
    #: id(instruction) -> (block, index), for the dominance checks.
    positions: dict[int, tuple[BasicBlock, int]] = {}
    # Each operand's use records as a set, built on first sight, so the
    # forward bookkeeping check costs one lookup per operand.
    use_records: dict[int, set[tuple[Instruction, int]]] = {}

    for block in fn.blocks:
        bwhere = f"{where}:{block.name}"
        instructions = block.instructions
        if block.terminator is None:
            problems.append(f"{bwhere}: block is not terminated")
        last = len(instructions) - 1
        seen_non_phi = False
        for i, instr in enumerate(instructions):
            positions[id(instr)] = (block, i)
            if instr.parent is not block:
                problems.append(f"{bwhere}: instruction #{i} has wrong parent link")
            if i != last and instr.is_terminator:
                problems.append(f"{bwhere}: terminator in mid-block at #{i}")
            if isinstance(instr, Phi):
                if seen_non_phi:
                    problems.append(f"{bwhere}: phi {instr.ref()} after non-phi")
            else:
                seen_non_phi = True
            # Use-def bookkeeping, forward direction.
            for idx, op in enumerate(instr.operands):
                records = use_records.get(id(op))
                if records is None:
                    records = use_records[id(op)] = set(op._uses)
                if (instr, idx) not in records:
                    problems.append(
                        f"{bwhere}: operand {idx} of {instr.opcode} missing its use record"
                    )
            if isinstance(instr, Call):
                if module is not None and module.functions.get(instr.callee.name) is not instr.callee:
                    problems.append(
                        f"{bwhere}: call to @{instr.callee.name} not in module"
                    )
        # Successor sanity.
        for succ in block.successors():
            if id(succ) not in block_set:
                problems.append(f"{bwhere}: branch to block outside the function")

    # Phi edges match predecessors.
    for block in fn.blocks:
        preds = preds_of.get(id(block), [])
        pred_ids = sorted(id(p) for p in preds)
        for phi in block.phis():
            incoming_ids = sorted(id(b) for b in phi.incoming_blocks)
            if incoming_ids != pred_ids:
                problems.append(
                    f"@{fn.name}:{block.name}: phi {phi.ref()} incoming blocks "
                    f"{[b.name for b in phi.incoming_blocks]} do not match "
                    f"predecessors {[p.name for p in preds]}"
                )

    # SSA dominance. Unreachable blocks are skipped (no dominator relation).
    if not problems:
        dom = DominatorTree(fn, preds_of)
        reachable = {id(b) for b in dom.rpo}
        for block in fn.blocks:
            if id(block) not in reachable:
                continue
            for i, instr in enumerate(block.instructions):
                for idx, op in enumerate(instr.operands):
                    position = positions.get(id(op))
                    if position is None:
                        if isinstance(op, Instruction):
                            problems.append(
                                f"@{fn.name}:{block.name}: {instr.opcode} uses detached "
                                f"value {op.ref()}"
                            )
                        elif not isinstance(op, (Constant, Argument)):
                            problems.append(
                                f"@{fn.name}:{block.name}: operand {idx} of "
                                f"{instr.opcode} is not a constant/argument/instruction"
                            )
                        continue
                    def_block, def_pos = position
                    if id(def_block) not in reachable:
                        continue
                    if isinstance(instr, Phi):
                        edge = instr.incoming_blocks[idx]
                        if id(edge) in reachable and not dom.dominates(def_block, edge):
                            problems.append(
                                f"@{fn.name}:{block.name}: phi {instr.ref()} incoming "
                                f"{op.ref()} does not dominate edge %{edge.name}"
                            )
                    elif def_block is block:
                        if def_pos >= i:
                            problems.append(
                                f"@{fn.name}:{block.name}: {op.ref()} used before "
                                f"definition by {instr.opcode}"
                            )
                    elif not dom.dominates(def_block, block):
                        problems.append(
                            f"@{fn.name}:{block.name}: {op.ref()} (defined in "
                            f"%{def_block.name}) does not dominate use in {instr.opcode}"
                        )
    return problems
