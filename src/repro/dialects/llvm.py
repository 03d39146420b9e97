"""The part of the ``llvm`` MLIR dialect the standard flow emits.

Section V-B maps a Fortran module *scalar* variable to an
``llvm.mlir.global`` accessed through ``llvm.mlir.addressof`` +
``llvm.load`` / ``llvm.store`` (module arrays are ``memref.global``); those
four operations and the pointer type are all that is defined here.  Neither
flow lowers any further into this dialect — the repo stops at the optimised
standard-dialect module.
"""

from __future__ import annotations

from typing import Optional

from ..ir.attributes import Attribute, StringAttr, SymbolRefAttr, TypeAttr
from ..ir.core import Operation, Region, Value, register_op
from ..ir.traits import PURE, READ_ONLY, SYMBOL, WRITES_MEMORY
from ..ir.types import Type


class LLVMPointerType(Type):
    """An opaque LLVM pointer (``!llvm.ptr``)."""

    __slots__ = ()

    def mlir(self) -> str:
        return "!llvm.ptr"


ptr = LLVMPointerType()


@register_op
class GlobalOp(Operation):
    """``llvm.mlir.global`` — global scalars (Section V-B)."""

    OP_NAME = "llvm.mlir.global"
    TRAITS = frozenset({SYMBOL})

    def __init__(self, sym_name: str, global_type: Type,
                 value: Optional[Attribute] = None):
        attrs = {
            "sym_name": StringAttr(sym_name),
            "global_type": TypeAttr(global_type),
        }
        if value is not None:
            attrs["value"] = value
        super().__init__(attributes=attrs, regions=[Region()])


@register_op
class AddressOfOp(Operation):
    """``llvm.mlir.addressof`` — pointer to a global symbol."""

    OP_NAME = "llvm.mlir.addressof"
    TRAITS = frozenset({PURE})

    def __init__(self, sym_name: str):
        super().__init__(result_types=[ptr],
                         attributes={"global_name": SymbolRefAttr(sym_name)})


@register_op
class LoadOp(Operation):
    OP_NAME = "llvm.load"
    TRAITS = frozenset({READ_ONLY})

    def __init__(self, address: Value, result_type: Type):
        super().__init__(operands=[address], result_types=[result_type])


@register_op
class StoreOp(Operation):
    OP_NAME = "llvm.store"
    TRAITS = frozenset({WRITES_MEMORY})

    def __init__(self, value: Value, address: Value):
        super().__init__(operands=[value, address])


__all__ = ["LLVMPointerType", "ptr", "GlobalOp", "AddressOfOp", "LoadOp",
           "StoreOp"]
