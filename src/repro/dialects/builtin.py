"""Builtin dialect: the module container."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import StringAttr
from ..ir.core import Block, Operation, Region, register_op
from ..ir.traits import SYMBOL_TABLE


@register_op
class ModuleOp(Operation):
    """Top-level container for a translation unit (``builtin.module``)."""

    OP_NAME = "builtin.module"
    TRAITS = frozenset({SYMBOL_TABLE})

    def __init__(self, ops: Sequence[Operation] = (), name: Optional[str] = None):
        block = Block()
        for op in ops:
            block.add_op(op)
        attrs = {}
        if name:
            attrs["sym_name"] = StringAttr(name)
        super().__init__(regions=[Region([block])], attributes=attrs)

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]

    def add(self, op: Operation) -> Operation:
        return self.body.add_op(op)

    def lookup_symbol(self, name: str) -> Optional[Operation]:
        """Find an operation in this module defining symbol ``name``."""
        for op in self.body.ops:
            sym = op.get_attr("sym_name")
            if sym is not None and getattr(sym, "value", None) == name:
                return op
        return None

    def functions(self):
        return [op for op in self.body.ops if op.name == "func.func"]


__all__ = ["ModuleOp"]
