"""Mid-end optimization passes (the MiniISPC -O pipeline).

The auto-vectorizer (:mod:`repro.passes.vectorize`) loads on first use of
one of its names: the -O pipeline never runs it.
"""

from .constfold import constant_fold
from .dce import dead_code_elimination
from .manager import PassManager, default_pipeline, optimize, vectorize_pipeline
from .mem2reg import promote_allocas
from .simplifycfg import (
    fold_single_incoming_phis,
    merge_straightline_blocks,
    remove_unreachable_blocks,
    simplify_cfg,
)

_VECTORIZE_NAMES = (
    "LoopReport",
    "VectorizeReport",
    "auto_vectorize_pass",
    "auto_vectorized",
    "vectorize_function",
    "vectorize_module",
)


def __getattr__(name: str):
    if name in _VECTORIZE_NAMES:
        from . import vectorize

        return getattr(vectorize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "constant_fold",
    "dead_code_elimination",
    "PassManager",
    "default_pipeline",
    "optimize",
    "vectorize_pipeline",
    "promote_allocas",
    "fold_single_incoming_phis",
    "merge_straightline_blocks",
    "remove_unreachable_blocks",
    "simplify_cfg",
    "LoopReport",
    "VectorizeReport",
    "auto_vectorize_pass",
    "auto_vectorized",
    "vectorize_function",
    "vectorize_module",
]
