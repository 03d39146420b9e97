"""Insertion-point based IR builder.

The builder tracks an insertion point (a block and a position inside it) and
inserts every created operation there, mirroring ``mlir::OpBuilder``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .core import Block, IRError, Operation, Value


class InsertPoint:
    """A position inside a block: before ``anchor`` or at the block end."""

    __slots__ = ("block", "anchor")

    def __init__(self, block: Block, anchor: Optional[Operation] = None):
        self.block = block
        self.anchor = anchor

    @staticmethod
    def at_end(block: Block) -> "InsertPoint":
        return InsertPoint(block, None)

    @staticmethod
    def after(op: Operation) -> "InsertPoint":
        if op.parent is None:
            raise IRError("cannot build an insertion point after a detached op")
        return InsertPoint(op.parent, op._next)


class Builder:
    """Creates operations at a movable insertion point."""

    def __init__(self, insert_point: Optional[InsertPoint] = None):
        self._ip = insert_point

    # -- insertion point management ------------------------------------------
    @property
    def insertion_point(self) -> Optional[InsertPoint]:
        return self._ip

    def set_insertion_point(self, ip: InsertPoint) -> None:
        self._ip = ip

    def set_insertion_point_to_end(self, block: Block) -> None:
        self._ip = InsertPoint.at_end(block)

    @contextmanager
    def at(self, ip: InsertPoint):
        """Temporarily move the insertion point."""
        saved = self._ip
        self._ip = ip
        try:
            yield self
        finally:
            self._ip = saved

    # -- insertion --------------------------------------------------------------
    def insert(self, op: Operation) -> Operation:
        if self._ip is None:
            raise IRError("builder has no insertion point")
        block = self._ip.block
        anchor = self._ip.anchor
        if anchor is None:
            block.add_op(op)
        else:
            block.insert_before(anchor, op)
        return op


__all__ = ["InsertPoint", "Builder"]
