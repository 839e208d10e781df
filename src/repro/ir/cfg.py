"""Control-flow-graph utilities: successors/predecessors, reverse post
order, dominator tree (Cooper–Harvey–Kennedy), and dominance frontiers.

The dominator machinery serves the mem2reg pass (SSA construction), which in
turn gives the site classifier clean def-use chains to slice — ISPC's -O3
output, which the paper analyses, is likewise in pruned SSA form.
"""

from __future__ import annotations

from .module import BasicBlock, Function


def reverse_post_order(fn: Function) -> list[BasicBlock]:
    """Blocks in reverse post order from the entry (unreachable blocks are
    excluded)."""
    seen: set[int] = set()
    order: list[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        # Iterative DFS to keep recursion depth independent of CFG size.
        stack: list[tuple[BasicBlock, int]] = [(block, 0)]
        seen.add(id(block))
        while stack:
            current, idx = stack[-1]
            succs = current.successors()
            if idx < len(succs):
                stack[-1] = (current, idx + 1)
                nxt = succs[idx]
                if id(nxt) not in seen:
                    seen.add(id(nxt))
                    stack.append((nxt, 0))
            else:
                order.append(current)
                stack.pop()

    visit(fn.entry)
    order.reverse()
    return order


class DominatorTree:
    """Immediate dominators + dominance frontiers for one function.

    Built in time linear in the CFG (plus the CHK fixpoint): the
    predecessor map, the dominator-tree children (in RPO order) and a
    preorder interval per block are computed once here, so
    :meth:`children` and :meth:`dominates` are table lookups.  The
    frontiers, which only phi placement asks for, are computed on the
    first :meth:`frontier` call.  ``preds`` is the function's
    :meth:`~repro.ir.module.Function.predecessor_map`, when the caller
    already holds it.
    """

    def __init__(
        self, fn: Function, preds: dict[int, list[BasicBlock]] | None = None
    ):
        self.function = fn
        self.rpo = reverse_post_order(fn)
        self._index = {id(b): i for i, b in enumerate(self.rpo)}
        if preds is None:
            preds = fn.predecessor_map()
        #: Reachable predecessors of each reachable block.
        self._preds = {
            id(b): [p for p in preds.get(id(b), ()) if id(p) in self._index]
            for b in self.rpo
        }
        self.idom: dict[int, BasicBlock] = {}
        self._compute_idoms()
        self._children: dict[int, list[BasicBlock]] = {id(b): [] for b in self.rpo}
        for block in self.rpo[1:]:
            self._children[id(self.idom[id(block)])].append(block)
        self._compute_intervals()
        self._frontiers: dict[int, list[BasicBlock]] | None = None

    # -- Cooper-Harvey-Kennedy "engineered" iterative algorithm -------------

    def _intersect(self, b1: BasicBlock, b2: BasicBlock) -> BasicBlock:
        f1, f2 = b1, b2
        while f1 is not f2:
            while self._index[id(f1)] > self._index[id(f2)]:
                f1 = self.idom[id(f1)]
            while self._index[id(f2)] > self._index[id(f1)]:
                f2 = self.idom[id(f2)]
        return f1

    def _compute_idoms(self) -> None:
        entry = self.function.entry
        self.idom[id(entry)] = entry
        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                if block is entry:
                    continue
                preds = [p for p in self._preds[id(block)] if id(p) in self.idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for p in preds[1:]:
                    new_idom = self._intersect(p, new_idom)
                if self.idom.get(id(block)) is not new_idom:
                    self.idom[id(block)] = new_idom
                    changed = True

    def _compute_intervals(self) -> None:
        """Preorder number and subtree end of every block in the tree:
        ``a`` dominates ``b`` iff ``b``'s number lies in ``a``'s interval."""
        self._pre: dict[int, int] = {}
        self._end: dict[int, int] = {}
        stack: list[tuple[BasicBlock, bool]] = [(self.function.entry, False)]
        while stack:
            block, done = stack.pop()
            if done:
                self._end[id(block)] = len(self._pre)
                continue
            self._pre[id(block)] = len(self._pre)
            stack.append((block, True))
            stack.extend((child, False) for child in self._children[id(block)])

    def _compute_frontiers(self) -> dict[int, list[BasicBlock]]:
        frontiers: dict[int, list[BasicBlock]] = {id(b): [] for b in self.rpo}
        for block in self.rpo:
            preds = self._preds[id(block)]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner = pred
                while runner is not self.idom[id(block)]:
                    front = frontiers[id(runner)]
                    if block not in front:
                        front.append(block)
                    runner = self.idom[id(runner)]
        return frontiers

    # -- queries ----------------------------------------------------------------

    def immediate_dominator(self, block: BasicBlock) -> BasicBlock | None:
        if block is self.function.entry:
            return None
        return self.idom.get(id(block))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Whether ``a`` dominates ``b`` (reflexive; an unreachable block
        dominates only itself and is dominated only by itself)."""
        if a is b:
            return True
        pre_a = self._pre.get(id(a))
        pre_b = self._pre.get(id(b))
        if pre_a is None or pre_b is None:
            return False
        return pre_a <= pre_b < self._end[id(a)]

    def frontier(self, block: BasicBlock) -> list[BasicBlock]:
        if self._frontiers is None:
            self._frontiers = self._compute_frontiers()
        return list(self._frontiers.get(id(block), []))

    def children(self, block: BasicBlock) -> list[BasicBlock]:
        """Blocks immediately dominated by ``block``, in RPO order."""
        return list(self._children.get(id(block), ()))
