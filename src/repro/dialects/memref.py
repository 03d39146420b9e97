"""The ``memref`` dialect: memory allocation, loads/stores, views, globals."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import (Attribute, DenseIntElementsAttr, IntegerAttr,
                             StringAttr, TypeAttr)
from ..ir.core import Block, Operation, Region, Value, register_op
from ..ir.traits import (ALLOCATES, AUTOMATIC_ALLOCATION_SCOPE, FREES,
                         IS_TERMINATOR, PURE, READ_ONLY, SYMBOL,
                         WRITES_MEMORY)
from ..ir.types import DYNAMIC, MemRefType, Type, index


class _AllocLikeOp(Operation):
    """Common base of memref.alloc / memref.alloca.

    Dynamic sizes (one SSA operand per ``?`` dimension, in order) are the
    operands; the result type is the memref being created.
    """

    def __init__(self, memref_type: MemRefType, dynamic_sizes: Sequence[Value] = (),
                 alignment: Optional[int] = None):
        if memref_type.num_dynamic_dims() != len(dynamic_sizes):
            raise ValueError(
                f"{self.OP_NAME}: expected {memref_type.num_dynamic_dims()} dynamic "
                f"sizes, got {len(dynamic_sizes)}")
        attrs = {}
        if alignment is not None:
            attrs["alignment"] = IntegerAttr(alignment)
        super().__init__(operands=list(dynamic_sizes), result_types=[memref_type],
                         attributes=attrs)

    @property
    def memref_type(self) -> MemRefType:
        return self.results[0].type


@register_op
class AllocOp(_AllocLikeOp):
    """Heap allocation."""

    OP_NAME = "memref.alloc"
    TRAITS = frozenset({ALLOCATES})


@register_op
class AllocaOp(_AllocLikeOp):
    """Stack allocation (released at the closest AutomaticAllocationScope)."""

    OP_NAME = "memref.alloca"
    TRAITS = frozenset({ALLOCATES})


@register_op
class DeallocOp(Operation):
    OP_NAME = "memref.dealloc"
    TRAITS = frozenset({FREES})

    def __init__(self, memref: Value):
        super().__init__(operands=[memref])


@register_op
class LoadOp(Operation):
    OP_NAME = "memref.load"
    TRAITS = frozenset({READ_ONLY})

    def __init__(self, memref: Value, indices: Sequence[Value] = ()):
        mtype = memref.type
        if not isinstance(mtype, MemRefType):
            raise TypeError(f"memref.load expects a memref operand, got {mtype.mlir()}")
        if len(indices) != mtype.rank:
            raise ValueError(
                f"memref.load: rank {mtype.rank} memref accessed with "
                f"{len(indices)} indices")
        super().__init__(operands=[memref, *indices],
                         result_types=[mtype.element_type])

    @property
    def memref(self) -> Value:
        return self.operands[0]

    @property
    def indices(self):
        return self.operands[1:]


@register_op
class StoreOp(Operation):
    OP_NAME = "memref.store"
    TRAITS = frozenset({WRITES_MEMORY})

    def __init__(self, value: Value, memref: Value, indices: Sequence[Value] = ()):
        mtype = memref.type
        if not isinstance(mtype, MemRefType):
            raise TypeError(f"memref.store expects a memref operand, got {mtype.mlir()}")
        if len(indices) != mtype.rank:
            raise ValueError(
                f"memref.store: rank {mtype.rank} memref accessed with "
                f"{len(indices)} indices")
        super().__init__(operands=[value, memref, *indices])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def memref(self) -> Value:
        return self.operands[1]

    @property
    def indices(self):
        return self.operands[2:]


@register_op
class DimOp(Operation):
    """Size of one dimension of a memref (dimension given as an index operand)."""

    OP_NAME = "memref.dim"
    TRAITS = frozenset({PURE})

    def __init__(self, memref: Value, dimension: Value):
        super().__init__(operands=[memref, dimension], result_types=[index])


@register_op
class SubViewOp(Operation):
    """A strided view into a memref (used for Fortran array slices).

    Offsets/sizes/strides are SSA index operands, one triple per dimension of
    the source memref.  The result is a memref with the same element type and
    the view's (dynamic) shape; the underlying memory is shared with the
    source, which is exactly why the paper uses subviews to pass array slices
    without copying.
    """

    OP_NAME = "memref.subview"
    TRAITS = frozenset({PURE})

    def __init__(self, source: Value, offsets: Sequence[Value],
                 sizes: Sequence[Value], strides: Sequence[Value],
                 result_type: Optional[MemRefType] = None):
        src_type = source.type
        rank = src_type.rank
        if not (len(offsets) == len(sizes) == len(strides) == rank):
            raise ValueError("memref.subview: offset/size/stride rank mismatch")
        if result_type is None:
            result_type = MemRefType([DYNAMIC] * rank, src_type.element_type)
        super().__init__(operands=[source, *offsets, *sizes, *strides],
                         result_types=[result_type])

    @property
    def source(self) -> Value:
        return self.operands[0]

    def _rank(self) -> int:
        return self.source.type.rank

    @property
    def offsets(self):
        r = self._rank()
        return self.operands[1:1 + r]

    @property
    def sizes(self):
        r = self._rank()
        return self.operands[1 + r:1 + 2 * r]

    @property
    def strides(self):
        r = self._rank()
        return self.operands[1 + 2 * r:1 + 3 * r]


@register_op
class AllocaScopeOp(Operation):
    """Explicit stack-frame scope (``memref.alloca_scope``).

    Section V-B of the paper wraps function bodies in this operation because
    the implicit AutomaticAllocationScope of ``func.func`` did not release
    stack memory in their toolchain.  Its region may hold at most one block.
    """

    OP_NAME = "memref.alloca_scope"
    TRAITS = frozenset({AUTOMATIC_ALLOCATION_SCOPE})

    def __init__(self, body: Optional[Block] = None):
        super().__init__(regions=[Region([body or Block()])])

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]

    def verify_(self) -> None:
        if len(self.regions[0].blocks) > 1:
            raise ValueError("memref.alloca_scope region can contain at most one block")


@register_op
class AllocaScopeReturnOp(Operation):
    OP_NAME = "memref.alloca_scope.return"
    TRAITS = frozenset({IS_TERMINATOR})

    def __init__(self, values: Sequence[Value] = ()):
        super().__init__(operands=list(values))


@register_op
class GlobalOp(Operation):
    """A module-level global memref definition."""

    OP_NAME = "memref.global"
    TRAITS = frozenset({SYMBOL})

    def __init__(self, sym_name: str, memref_type: MemRefType,
                 initial_value: Optional[Attribute] = None):
        attrs = {
            "sym_name": StringAttr(sym_name),
            "type": TypeAttr(memref_type),
        }
        if initial_value is not None:
            attrs["initial_value"] = initial_value
        super().__init__(attributes=attrs)

    @property
    def sym_name(self) -> str:
        return self.attributes["sym_name"].value

    @property
    def type(self) -> MemRefType:
        return self.attributes["type"].type


@register_op
class GetGlobalOp(Operation):
    OP_NAME = "memref.get_global"
    TRAITS = frozenset({PURE})

    def __init__(self, sym_name: str, result_type: MemRefType):
        super().__init__(result_types=[result_type],
                         attributes={"name": StringAttr(sym_name)})

    @property
    def global_name(self) -> str:
        return self.attributes["name"].value


__all__ = [
    "AllocOp", "AllocaOp", "DeallocOp", "LoadOp", "StoreOp", "DimOp",
    "SubViewOp", "AllocaScopeOp", "AllocaScopeReturnOp", "GlobalOp",
    "GetGlobalOp",
]
