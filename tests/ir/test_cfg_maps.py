"""The one-pass CFG maps against their naive definitions.

:meth:`Function.predecessor_map` and the maps :class:`DominatorTree` builds
once (children, preorder intervals) replace scans of every block per
query.  Each must answer exactly what the scan did: predecessors in block
order, held once when both arms of a ``condbr`` lead to one block;
children in RPO order; dominance that is reflexive and ignores
unreachable blocks.  Checked on a hand-made CFG with unreachable blocks,
on the nine benchmarks before and after the -O pipeline, on the generated
workload family and on the random-program generator's modules.
"""

import pytest

from repro.frontend import compile_source
from repro.ir import DominatorTree, FunctionType, I1, IRBuilder, Module, VOID
from repro.ir.generate import build_random_module, build_remainder_module
from repro.workloads import GENERATED, all_workloads, benchmark_workloads


def build_awkward_cfg():
    """Both arms of the entry's ``condbr`` lead to ``head``; a loop; dead
    blocks that branch into live ones, and an unreachable cycle."""
    m = Module("awkward")
    fn = m.add_function("f", FunctionType(VOID, (I1,)), ["c"])
    c = fn.args[0]
    entry, head, body, exit_, dead_in, dead_a, dead_b = (
        fn.add_block(name)
        for name in ("entry", "head", "body", "exit", "dead_in", "dead_a", "dead_b")
    )
    b = IRBuilder(entry)
    b.condbr(c, head, head)
    b.position_at_end(head)
    b.condbr(c, body, exit_)
    b.position_at_end(body)
    b.br(head)
    b.position_at_end(exit_)
    b.ret()
    b.position_at_end(dead_in)
    b.br(body)
    b.position_at_end(dead_a)
    b.condbr(c, dead_b, dead_b)
    b.position_at_end(dead_b)
    b.condbr(c, dead_a, exit_)
    return fn


def naive_dominates(dom: DominatorTree, a, b) -> bool:
    """The idom-chain walk the intervals replace."""
    runner = b
    while runner is not None:
        if runner is a:
            return True
        if runner is dom.function.entry:
            return False
        runner = dom.idom.get(id(runner))
    return False


def check_function(fn) -> None:
    preds = fn.predecessor_map()
    for block in fn.blocks:
        assert preds.get(id(block), []) == block.predecessors(), block.name
    assert set(preds) <= {id(b) for b in fn.blocks if b.predecessors()}

    dom = DominatorTree(fn)
    for block in fn.blocks:
        naive_children = [
            b
            for b in dom.rpo
            if b is not fn.entry and dom.idom.get(id(b)) is block
        ]
        assert dom.children(block) == naive_children, block.name
        for other in fn.blocks:
            assert dom.dominates(block, other) == naive_dominates(dom, block, other), (
                block.name,
                other.name,
            )


def test_awkward_cfg():
    fn = build_awkward_cfg()
    check_function(fn)
    blocks = {b.name: b for b in fn.blocks}
    preds = fn.predecessor_map()
    assert preds[id(blocks["head"])] == [blocks["entry"], blocks["body"]]
    assert preds[id(blocks["body"])] == [blocks["head"], blocks["dead_in"]]
    assert preds[id(blocks["dead_b"])] == [blocks["dead_a"]]
    assert id(blocks["entry"]) not in preds and id(blocks["dead_in"]) not in preds
    dom = DominatorTree(fn)
    # RPO visits the exit before the loop body.
    assert dom.children(blocks["head"]) == [blocks["exit"], blocks["body"]]
    assert dom.children(blocks["dead_a"]) == []
    assert dom.dominates(blocks["dead_a"], blocks["dead_a"])
    assert not dom.dominates(blocks["entry"], blocks["dead_a"])
    assert not dom.dominates(blocks["dead_a"], blocks["dead_b"])


@pytest.mark.parametrize("optimize_ir", [False, True], ids=["codegen", "optimized"])
def test_benchmark_functions(optimize_ir):
    for w in benchmark_workloads():
        module = compile_source(w.source, "avx", optimize_ir=optimize_ir)
        for fn in module.defined_functions():
            check_function(fn)


def test_generated_functions():
    modules = [w.compile("sse") for w in all_workloads(suite=GENERATED)]
    for seed in range(8):
        modules += [build_random_module(seed), build_remainder_module(seed)]
    assert len(modules) > 16
    for module in modules:
        for fn in module.defined_functions():
            check_function(fn)
