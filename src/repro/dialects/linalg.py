"""The ``linalg`` dialect: named linear-algebra operations on memrefs.

Section V-C and VI-A of the paper lower Fortran intrinsics (sum, matmul,
dot_product, transpose, maxval, minval, product) to linalg operations, which
are then lowered to loops (``convert-linalg-to-loops``) or to affine loops
for tiling/vectorisation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import DenseIntElementsAttr
from ..ir.core import Block, Operation, Region, Value, register_op
from ..ir.traits import IS_TERMINATOR, WRITES_MEMORY
from ..ir.types import MemRefType


@register_op
class LinalgYieldOp(Operation):
    OP_NAME = "linalg.yield"
    TRAITS = frozenset({IS_TERMINATOR})

    def __init__(self, values: Sequence[Value] = ()):
        super().__init__(operands=list(values))


class _NamedLinalgOp(Operation):
    """Common base of named linalg ops operating on memref ins/outs."""

    TRAITS = frozenset({WRITES_MEMORY})
    NUM_INPUTS = 1

    def __init__(self, inputs: Sequence[Value], outputs: Sequence[Value],
                 attributes=None, regions=0):
        super().__init__(operands=[*inputs, *outputs], attributes=attributes or {},
                         regions=regions)

    @property
    def inputs(self):
        return self.operands[:self.NUM_INPUTS]

    @property
    def outputs(self):
        return self.operands[self.NUM_INPUTS:]


@register_op
class MatmulOp(_NamedLinalgOp):
    """C += A @ B on rank-2 memrefs."""

    OP_NAME = "linalg.matmul"
    NUM_INPUTS = 2

    def __init__(self, a: Value, b: Value, c: Value):
        super().__init__([a, b], [c])


@register_op
class DotOp(_NamedLinalgOp):
    """out(0-d memref) += sum(a * b) on rank-1 memrefs."""

    OP_NAME = "linalg.dot"
    NUM_INPUTS = 2

    def __init__(self, a: Value, b: Value, out: Value):
        super().__init__([a, b], [out])


@register_op
class TransposeOp(_NamedLinalgOp):
    """out = permute(input, permutation)."""

    OP_NAME = "linalg.transpose"
    NUM_INPUTS = 1

    def __init__(self, input: Value, out: Value, permutation: Sequence[int]):
        super().__init__([input], [out],
                         attributes={"permutation": DenseIntElementsAttr(permutation)})

    @property
    def permutation(self):
        return tuple(self.attributes["permutation"].values)


@register_op
class FillOp(_NamedLinalgOp):
    """Fill a memref with a scalar value."""

    OP_NAME = "linalg.fill"
    NUM_INPUTS = 1

    def __init__(self, value: Value, out: Value):
        super().__init__([value], [out])


@register_op
class CopyOp(_NamedLinalgOp):
    OP_NAME = "linalg.copy"
    NUM_INPUTS = 1

    def __init__(self, input: Value, out: Value):
        super().__init__([input], [out])


@register_op
class ReduceOp(_NamedLinalgOp):
    """``linalg.reduce``: reduce the input over the given dimensions into the
    output memref using the combiner region (Listing 8 of the paper)."""

    OP_NAME = "linalg.reduce"
    NUM_INPUTS = 1

    def __init__(self, input: Value, out: Value, dimensions: Sequence[int],
                 body: Optional[Block] = None):
        element_type = input.type.element_type
        if body is None:
            body = Block(arg_types=[element_type, element_type])
        super().__init__([input], [out],
                         attributes={"dimensions": DenseIntElementsAttr(dimensions)},
                         regions=[Region([body])])

    @property
    def dimensions(self):
        return tuple(self.attributes["dimensions"].values)

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]


__all__ = [
    "LinalgYieldOp", "MatmulOp", "DotOp", "TransposeOp", "FillOp", "CopyOp",
    "ReduceOp",
]
