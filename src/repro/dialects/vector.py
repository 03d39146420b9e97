"""The ``vector`` dialect: SIMD loads, stores, broadcasts and reductions.

Produced by the affine super-vectorisation pass (Section VI, Figure 3) and
executed as such (the paper goes on to ``convert-vector-to-llvm``).
"""

from __future__ import annotations

from typing import Sequence

from ..ir.attributes import StringAttr
from ..ir.core import Operation, Value, register_op
from ..ir.traits import PURE, READ_ONLY, WRITES_MEMORY
from ..ir.types import MemRefType, Type, VectorType


@register_op
class VectorLoadOp(Operation):
    """Load a 1-D vector of consecutive elements starting at the indices."""

    OP_NAME = "vector.load"
    TRAITS = frozenset({READ_ONLY})

    def __init__(self, result_type: VectorType, memref: Value,
                 indices: Sequence[Value]):
        super().__init__(operands=[memref, *indices], result_types=[result_type])

    @property
    def memref(self) -> Value:
        return self.operands[0]

    @property
    def indices(self):
        return self.operands[1:]


@register_op
class VectorStoreOp(Operation):
    OP_NAME = "vector.store"
    TRAITS = frozenset({WRITES_MEMORY})

    def __init__(self, value: Value, memref: Value, indices: Sequence[Value]):
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
class BroadcastOp(Operation):
    """Broadcast a scalar into a vector."""

    OP_NAME = "vector.broadcast"
    TRAITS = frozenset({PURE})

    def __init__(self, result_type: VectorType, value: Value):
        super().__init__(operands=[value], result_types=[result_type])


#: Supported reduction kinds.
REDUCTION_KINDS = ("add", "mul", "minf", "maxf", "minsi", "maxsi", "and", "or")


@register_op
class ReductionOp(Operation):
    """Horizontal reduction of a vector to a scalar."""

    OP_NAME = "vector.reduction"
    TRAITS = frozenset({PURE})

    def __init__(self, kind: str, vector: Value):
        if kind not in REDUCTION_KINDS:
            raise ValueError(f"invalid vector.reduction kind '{kind}'")
        element_type = vector.type.element_type
        super().__init__(operands=[vector], result_types=[element_type],
                         attributes={"kind": StringAttr(kind)})

    @property
    def kind(self) -> str:
        return self.attributes["kind"].value


__all__ = ["VectorLoadOp", "VectorStoreOp", "BroadcastOp", "ReductionOp",
           "REDUCTION_KINDS"]
