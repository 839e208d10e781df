"""Promote memory to registers (alloca → SSA phi), standard algorithm:

1. find *promotable* allocas — scalar/vector first-class type, used only by
   plain loads and stores (never as a stored value, gep base, or call
   argument: those take the address);
2. insert phi nodes at the iterated dominance frontier of the stores;
3. rename along a dominator-tree walk, replacing loads with the reaching
   definition and deleting the memory operations.

The frontend emits every local variable as an alloca; this pass turns the
result into the pruned-SSA shape whose def-use chains VULFI slices.
"""

from __future__ import annotations

from ..ir.cfg import DominatorTree
from ..ir.instructions import Alloca, Instruction, Load, Phi, Store
from ..ir.module import BasicBlock, Function
from ..ir.values import Value, zeroinitializer


def _is_promotable(alloca: Alloca) -> bool:
    if alloca.count != 1:
        return False
    for user, index in alloca.uses:
        if isinstance(user, Load):
            continue
        if isinstance(user, Store) and index == 1:  # used as the address
            continue
        return False
    return True


def promote_allocas(fn: Function) -> bool:
    allocas = [
        i for i in fn.instructions() if isinstance(i, Alloca) and _is_promotable(i)
    ]
    if not allocas:
        return False

    # Promotion inserts phis and erases memory operations; the CFG stays.
    preds = fn.predecessor_map()
    dom = DominatorTree(fn, preds)
    reachable = {id(b) for b in dom.rpo}

    promoted: list[_Promotion] = []
    for alloca in allocas:
        # Memory ops in unreachable blocks are simply dropped with the blocks
        # later; skip promotion there to keep renaming sound.
        loads = [u for u, _ in alloca.uses if isinstance(u, Load)]
        stores = [u for u, i in alloca.uses if isinstance(u, Store) and i == 1]
        if any(id(op.parent) not in reachable for op in loads + stores):
            continue
        promotion = _Promotion(len(promoted), alloca, loads, stores)
        promotion.place_phis(dom)
        promoted.append(promotion)
    if promoted:
        _rename(fn, dom, promoted)
        for promotion in promoted:
            promotion.rewrite(preds)
    return True


class _Promotion:
    """One promotable alloca: its memory operations, its phis, and what
    the renaming walk found for it."""

    def __init__(
        self, slot: int, alloca: Alloca, loads: list[Load], stores: list[Store]
    ):
        self.slot = slot
        self.alloca = alloca
        self.loads = loads
        self.stores = stores
        # The value on entry to the function is an unspecified zero (reading
        # an uninitialized variable; MiniISPC's sema rejects that at the
        # source level, so this default is only reachable through
        # hand-written IR).
        self.initial: Value = zeroinitializer(alloca.allocated_type)
        self.phi_blocks: dict[int, Phi] = {}
        #: ``(phi, value, predecessor)`` edges in the walk's order.
        self.incoming: list[tuple[Phi, Value, BasicBlock]] = []
        self.replacements: dict[int, Value] = {}  # load -> reaching value

    def place_phis(self, dom: DominatorTree) -> None:
        """Phase 1: phi placement at the iterated dominance frontier."""
        def_blocks = {id(s.parent): s.parent for s in self.stores}
        work = list(def_blocks.values())
        while work:
            block = work.pop()
            for frontier_block in dom.frontier(block):
                if id(frontier_block) in self.phi_blocks:
                    continue
                phi = Phi(self.alloca.allocated_type, name=self.alloca.name or "promoted")
                frontier_block.insert(0, phi)
                phi.parent = frontier_block
                self.phi_blocks[id(frontier_block)] = phi
                if id(frontier_block) not in def_blocks:
                    def_blocks[id(frontier_block)] = frontier_block
                    work.append(frontier_block)

    def rewrite(self, preds: dict[int, list[BasicBlock]]) -> None:
        """Phase 3: wire the phis, rewrite the loads, erase the memory ops."""
        for phi, value, block in self.incoming:
            phi.add_incoming(value, block)
        for load in self.loads:
            load.replace_all_uses_with(self.replacements[id(load)])
            load.erase()
        for store in self.stores:
            store.erase()
        self.alloca.erase()

        # A phi may await incoming edges from unreachable predecessors; the
        # verifier requires phi edges to match predecessors exactly, and
        # unreachable-block removal (simplifycfg) restores that. Here we
        # only handle the common case of a predecessor not walked because it
        # is unreachable: give it the initial value so the structure stays
        # valid.
        for phi in self.phi_blocks.values():
            block = phi.parent
            assert block is not None
            have = {id(b) for b in phi.incoming_blocks}
            for pred in preds.get(id(block), ()):
                if id(pred) not in have:
                    phi.add_incoming(self.initial, pred)


def _rename(fn: Function, dom: DominatorTree, promoted: list[_Promotion]) -> None:
    """Phase 2: one preorder walk of the dominator tree for every alloca.

    Each alloca's reaching value is threaded as if it were promoted alone,
    after the allocas before it: the IR is only rewritten afterwards, in
    alloca order, so the rewrites run in the same sequence (and leave the
    same use lists) as one walk and rewrite per alloca.  A stored value
    that is the load of an *earlier* alloca therefore reads as that load's
    replacement, which the per-alloca sequence would already have spliced
    in; the load of a later alloca stays, to be rewritten with it.
    """
    owner: dict[int, _Promotion] = {}  # memory op -> its alloca's promotion
    for promotion in promoted:
        for op in (*promotion.loads, *promotion.stores):
            owner[id(op)] = promotion
    phis_at: dict[int, list[_Promotion]] = {}
    for promotion in promoted:
        for block_id in promotion.phi_blocks:
            phis_at.setdefault(block_id, []).append(promotion)

    def resolve(value: Value, slot: int) -> Value:
        while True:
            load_owner = owner.get(id(value))
            if load_owner is None or load_owner.slot >= slot or not isinstance(value, Load):
                return value
            value = load_owner.replacements[id(value)]

    current: list[Value] = [p.initial for p in promoted]
    # Undo records restore a block's reaching values once its dominator
    # subtree is done; children are visited last-pushed first.
    stack: list[tuple[BasicBlock | None, list[tuple[int, Value]]]] = [(fn.entry, [])]
    while stack:
        blk, undo = stack.pop()
        if blk is None:
            for slot, value in reversed(undo):
                current[slot] = value
            continue
        saved: list[tuple[int, Value]] = []
        for promotion in phis_at.get(id(blk), ()):
            saved.append((promotion.slot, current[promotion.slot]))
            current[promotion.slot] = promotion.phi_blocks[id(blk)]
        for instr in blk.instructions:
            promotion = owner.get(id(instr))
            if promotion is None:
                continue
            slot = promotion.slot
            if isinstance(instr, Load):
                promotion.replacements[id(instr)] = current[slot]
            else:
                saved.append((slot, current[slot]))
                current[slot] = resolve(instr.operands[0], slot)
        for succ in blk.successors():
            for promotion in phis_at.get(id(succ), ()):
                promotion.incoming.append(
                    (promotion.phi_blocks[id(succ)], current[promotion.slot], blk)
                )
        stack.append((None, saved))
        for child in dom.children(blk):
            stack.append((child, []))
