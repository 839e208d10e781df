"""Vector-aware LLVM-like intermediate representation.

This package is the substrate the paper's tooling operates on: a typed SSA
IR with first-class fixed-length vectors, the memory/address instructions
(`getelementptr`, masked loads/stores), shuffles, and a verifier plus a
printer/parser pair for text round-trips.

The text parser loads on first use of :func:`parse_module`: compiling and
running programs never parses IR text.
"""

from .builder import IRBuilder
from .cfg import DominatorTree, reverse_post_order
from .dataflow import backward_slice, forward_slice, slice_contains
from .instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    CastOp,
    CompareOp,
    CondBranch,
    ExtractElement,
    FNeg,
    GetElementPtr,
    InsertElement,
    Instruction,
    Load,
    Phi,
    Return,
    Select,
    ShuffleVector,
    Store,
    Unreachable,
)
from .intrinsics import (
    IntrinsicInfo,
    MASK_I1,
    MASK_SIGN,
    declare_intrinsic,
    get_intrinsic,
    intrinsic_info_for_call,
    is_intrinsic_name,
)
from .module import BasicBlock, Function, Module
from .printer import format_function, format_instruction, format_module, print_module
from .types import (
    F32,
    F64,
    FloatType,
    FunctionType,
    I1,
    I8,
    I16,
    I32,
    I64,
    IntType,
    PointerType,
    Type,
    VectorType,
    VOID,
    VoidType,
    parse_type,
    pointer,
    vector,
)
from .values import (
    Argument,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    ConstantVector,
    UndefValue,
    Value,
    const_bool,
    const_double,
    const_float,
    const_int,
    splat,
    zeroinitializer,
)
from .verifier import verify_function, verify_module


def __getattr__(name: str):
    if name == "parse_module":
        from .parser import parse_module

        return parse_module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "IRBuilder",
    "DominatorTree",
    "reverse_post_order",
    "backward_slice",
    "forward_slice",
    "slice_contains",
    "Alloca",
    "BinaryOp",
    "Branch",
    "Call",
    "CastOp",
    "CompareOp",
    "CondBranch",
    "ExtractElement",
    "FNeg",
    "GetElementPtr",
    "InsertElement",
    "Instruction",
    "Load",
    "Phi",
    "Return",
    "Select",
    "ShuffleVector",
    "Store",
    "Unreachable",
    "IntrinsicInfo",
    "MASK_I1",
    "MASK_SIGN",
    "declare_intrinsic",
    "get_intrinsic",
    "intrinsic_info_for_call",
    "is_intrinsic_name",
    "BasicBlock",
    "Function",
    "Module",
    "parse_module",
    "format_function",
    "format_instruction",
    "format_module",
    "print_module",
    "F32",
    "F64",
    "FloatType",
    "FunctionType",
    "I1",
    "I8",
    "I16",
    "I32",
    "I64",
    "IntType",
    "PointerType",
    "Type",
    "VectorType",
    "VOID",
    "VoidType",
    "parse_type",
    "pointer",
    "vector",
    "Argument",
    "Constant",
    "ConstantFloat",
    "ConstantInt",
    "ConstantPointerNull",
    "ConstantVector",
    "UndefValue",
    "Value",
    "const_bool",
    "const_double",
    "const_float",
    "const_int",
    "splat",
    "zeroinitializer",
    "verify_function",
    "verify_module",
]
