"""CFG cleanup: remove unreachable blocks, fold single-incoming phis, and
merge straight-line block pairs.

Runs after constant folding (which creates unreachable arms) and mem2reg
(which can leave single-incoming phis).  Kept deliberately conservative —
every transform preserves the execution trace of reachable code exactly.
"""

from __future__ import annotations

from ..ir.instructions import Branch, Phi
from ..ir.module import BasicBlock, Function


def _reachable_blocks(fn: Function) -> set[int]:
    seen = {id(fn.entry)}
    work = [fn.entry]
    while work:
        block = work.pop()
        for succ in block.successors():
            if id(succ) not in seen:
                seen.add(id(succ))
                work.append(succ)
    return seen


def remove_unreachable_blocks(fn: Function) -> bool:
    reachable = _reachable_blocks(fn)
    dead = [b for b in fn.blocks if id(b) not in reachable]
    if not dead:
        return False
    dead_ids = {id(b) for b in dead}
    # First fix phis in surviving blocks that mention dead predecessors.
    for block in fn.blocks:
        if id(block) in dead_ids:
            continue
        for phi in block.phis():
            for inc in list(phi.incoming_blocks):
                if id(inc) in dead_ids:
                    phi.remove_incoming(inc)
    # Two-phase erase: drop references first (dead blocks may reference each
    # other cyclically), then remove.  Values defined in unreachable blocks
    # cannot be used from reachable code in valid SSA, and the phi edges from
    # dead predecessors were removed above.
    for block in dead:
        for instr in list(block.instructions):
            instr.drop_all_references()
            block.remove(instr)
        fn.remove_block(block)
    return True


def fold_single_incoming_phis(fn: Function) -> bool:
    changed = False
    for block in fn.blocks:
        for phi in list(block.phis()):
            if len(phi.operands) == 1:
                phi.replace_all_uses_with(phi.operands[0])
                phi.erase()
                changed = True
    return changed


def merge_straightline_blocks(fn: Function) -> bool:
    """Merge B into A when A ends in `br B`, B is A's only successor, and A
    is B's only predecessor.

    One scan in block order.  After a merge A ends in B's old terminator
    and is checked again, so chains fold into their head; a merge changes
    no other block's candidacy (B's successors trade predecessor B for A),
    so this is the same set and order of merges as rescanning from the
    first block after each one.
    """
    preds = fn.predecessor_map()
    any_change = False
    i = 0
    while i < len(fn.blocks):
        a = fn.blocks[i]
        term = a.terminator
        b = term.target if isinstance(term, Branch) else None
        if (
            b is None
            or b is a
            or b is fn.entry
            or preds.get(id(b)) != [a]
            # Single-incoming phis are folded by the sibling transform
            # first; if any remain, skip.
            or b.phis()
        ):
            i += 1
            continue
        term.erase()
        for instr in list(b.instructions):
            b.remove(instr)
            a.instructions.append(instr)
            instr.parent = a
        # Phis in B's successors must re-point their incoming edge to A.
        for succ in a.successors():
            for phi in succ.phis():
                for j, inc in enumerate(phi.incoming_blocks):
                    if inc is b:
                        phi.incoming_blocks[j] = a
            into = preds[id(succ)]
            if b in into:
                into[into.index(b)] = a
        fn.remove_block(b)
        i = fn.blocks.index(a)
        any_change = True
    return any_change


def simplify_cfg(fn: Function) -> bool:
    changed = remove_unreachable_blocks(fn)
    changed |= fold_single_incoming_phis(fn)
    changed |= merge_straightline_blocks(fn)
    return changed
