"""Textual printer producing MLIR-generic-form-style output.

The output closely follows MLIR's generic operation form, e.g.::

    %3 = "arith.addi"(%1, %2) : (i32, i32) -> i32
    "scf.if"(%5) ({ ... }, { ... }) : (i1) -> ()

The printer assigns SSA names (``%0``, ``%1``, ...) and block names
(``^bb0``, ...) deterministically per top-level operation so output is stable
across runs and suitable for FileCheck-style substring assertions in tests.
"""

from __future__ import annotations

from io import StringIO
from typing import Dict, Optional

from .attributes import Attribute
from .core import Block, BlockArgument, Operation, Region, Value


class Printer:
    def __init__(self, *, indent_width: int = 2):
        self.indent_width = indent_width
        self._value_names: Dict[Value, str] = {}
        self._block_names: Dict[Block, str] = {}
        self._next_value = 0
        self._next_block = 0

    # -- naming ---------------------------------------------------------------
    def _name_value(self, value: Value) -> str:
        if value not in self._value_names:
            if value.name_hint:
                name = f"%{value.name_hint}_{self._next_value}"
            else:
                name = f"%{self._next_value}"
            self._next_value += 1
            self._value_names[value] = name
        return self._value_names[value]

    def _name_block(self, block: Block) -> str:
        if block not in self._block_names:
            self._block_names[block] = f"^bb{self._next_block}"
            self._next_block += 1
        return self._block_names[block]

    # -- printing ---------------------------------------------------------------
    def print_module(self, op: Operation) -> str:
        out = StringIO()
        self._print_op(op, out, 0)
        return out.getvalue()

    print_op = print_module

    def _print_attr(self, attr: Attribute) -> str:
        return attr.mlir()

    def _print_op(self, op: Operation, out: StringIO, indent: int) -> None:
        pad = " " * (indent * self.indent_width)
        results = ", ".join(self._name_value(r) for r in op.results)
        prefix = f"{pad}{results} = " if results else pad
        operands = ", ".join(self._name_value(o) for o in op.operands)
        out.write(f'{prefix}"{op.name}"({operands})')
        if op.successors:
            succ = ", ".join(self._name_block(b) for b in op.successors)
            out.write(f"[{succ}]")
        if op.regions:
            out.write(" (")
            for i, region in enumerate(op.regions):
                if i:
                    out.write(", ")
                self._print_region(region, out, indent)
            out.write(")")
        if op.attributes:
            inner = ", ".join(
                f'"{k}" = {self._print_attr(v)}' for k, v in sorted(op.attributes.items())
            )
            out.write(" {" + inner + "}")
        in_types = ", ".join(o.type.mlir() for o in op.operands)
        if len(op.results) == 1:
            out_types = op.results[0].type.mlir()
        else:
            out_types = "(" + ", ".join(r.type.mlir() for r in op.results) + ")"
        out.write(f" : ({in_types}) -> {out_types}\n")

    def _print_region(self, region: Region, out: StringIO, indent: int) -> None:
        out.write("{\n")
        multi_block = len(region.blocks) > 1
        for block in region.blocks:
            if multi_block or block.args:
                pad = " " * ((indent + 1) * self.indent_width)
                args = ", ".join(
                    f"{self._name_value(a)}: {a.type.mlir()}" for a in block.args
                )
                out.write(f"{pad}{self._name_block(block)}({args}):\n")
            for op in block.ops:
                self._print_op(op, out, indent + 1)
        pad = " " * (indent * self.indent_width)
        out.write(f"{pad}}}")


def print_op(op: Operation) -> str:
    """Print an operation (or module) in generic form."""
    return Printer().print_module(op)


__all__ = ["Printer", "print_op"]
