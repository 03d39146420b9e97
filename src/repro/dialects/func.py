"""The ``func`` dialect: functions, calls and returns."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import StringAttr, SymbolRefAttr, TypeAttr
from ..ir.core import Block, Operation, Region, Value, register_op
from ..ir.traits import (AUTOMATIC_ALLOCATION_SCOPE, CALL_LIKE, IS_TERMINATOR,
                         SYMBOL)
from ..ir.types import FunctionType, Type


@register_op
class FuncOp(Operation):
    """A function definition (or declaration, when the body region is empty)."""

    OP_NAME = "func.func"
    TRAITS = frozenset({SYMBOL, AUTOMATIC_ALLOCATION_SCOPE})

    def __init__(self, name: str, function_type: FunctionType,
                 *, visibility: str = "public",
                 create_entry_block: bool = True):
        attrs = {
            "sym_name": StringAttr(name),
            "function_type": TypeAttr(function_type),
            "sym_visibility": StringAttr(visibility),
        }
        region = Region()
        if create_entry_block:
            region.add_block(Block(arg_types=function_type.inputs))
        super().__init__(regions=[region], attributes=attrs)

    # -- accessors ----------------------------------------------------------
    @property
    def sym_name(self) -> str:
        return self.attributes["sym_name"].value

    @property
    def function_type(self) -> FunctionType:
        return self.attributes["function_type"].type

    @property
    def body(self) -> Region:
        return self.regions[0]

    @property
    def entry_block(self) -> Optional[Block]:
        return self.body.entry_block

    @property
    def is_declaration(self) -> bool:
        return self.body.entry_block is None

    @property
    def arguments(self):
        block = self.entry_block
        return list(block.args) if block is not None else []

    def verify_(self) -> None:
        block = self.entry_block
        if block is not None:
            expected = self.function_type.inputs
            got = tuple(a.type for a in block.args)
            if got != tuple(expected):
                raise ValueError(
                    f"func.func {self.sym_name}: entry block argument types "
                    f"{[t.mlir() for t in got]} do not match the function type")


@register_op
class ReturnOp(Operation):
    OP_NAME = "func.return"
    TRAITS = frozenset({IS_TERMINATOR})

    def __init__(self, values: Sequence[Value] = ()):
        super().__init__(operands=list(values))


@register_op
class CallOp(Operation):
    OP_NAME = "func.call"
    TRAITS = frozenset({CALL_LIKE})

    def __init__(self, callee: str, operands: Sequence[Value],
                 result_types: Sequence[Type]):
        super().__init__(operands=list(operands), result_types=list(result_types),
                         attributes={"callee": SymbolRefAttr(callee)})

    @property
    def callee(self) -> str:
        return self.attributes["callee"].root


__all__ = ["FuncOp", "ReturnOp", "CallOp"]
