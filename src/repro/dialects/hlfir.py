"""The HLFIR (High-Level Fortran IR) dialect of Flang.

HLFIR sits above FIR: it keeps variable declarations (``hlfir.declare``),
whole-array assignments (``hlfir.assign``), designators into arrays and
derived types (``hlfir.designate``) and Fortran transformational intrinsics
(sum, matmul, dot_product, transpose, maxval, minval, product) as first-class
operations, leaving the decision of how to implement them to later lowering.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import IntegerAttr, StringAttr, TypeAttr
from ..ir.core import Operation, Value, register_op
from ..ir.traits import PURE, READ_ONLY, WRITES_MEMORY
from ..ir.types import Type, i32
from .fir import (BoxType, ReferenceType, SequenceType, dereferenced_type)


class ExprType(Type):
    """``!hlfir.expr<shape x T>`` — the value of an array expression."""

    __slots__ = ("shape", "element_type")

    def __init__(self, shape: Sequence[int], element_type: Type):
        self.shape = tuple(shape)
        self.element_type = element_type

    def _key(self):
        return (self.shape, self.element_type)

    def mlir(self) -> str:
        dims = "x".join("?" if d < 0 else str(d) for d in self.shape)
        prefix = f"{dims}x" if self.shape else ""
        return f"!hlfir.expr<{prefix}{self.element_type.mlir()}>"


@register_op
class DeclareOp(Operation):
    """``hlfir.declare`` — associates a memory reference with a Fortran
    variable, carrying its name, attributes (intent, allocatable, ...) and
    optionally its shape.

    Results: (hlfir variable, fir base reference) — both usually of the same
    reference type, mirroring Flang.
    """

    OP_NAME = "hlfir.declare"
    TRAITS = frozenset({PURE})

    def __init__(self, memref: Value, uniq_name: str,
                 shape: Optional[Value] = None,
                 fortran_attrs: Sequence[str] = ()):
        operands = [memref] + ([shape] if shape is not None else [])
        attrs = {
            "uniq_name": StringAttr(uniq_name),
            "has_shape": IntegerAttr(1 if shape is not None else 0),
        }
        if fortran_attrs:
            attrs["fortran_attrs"] = StringAttr(",".join(fortran_attrs))
        super().__init__(operands=operands,
                         result_types=[memref.type, memref.type],
                         attributes=attrs)

    @property
    def memref(self) -> Value:
        return self.operands[0]

    @property
    def shape(self) -> Optional[Value]:
        return self.operands[1] if self.attributes["has_shape"].value else None

    @property
    def uniq_name(self) -> str:
        return self.attributes["uniq_name"].value

    @property
    def fortran_attrs(self) -> Sequence[str]:
        attr = self.get_attr("fortran_attrs")
        return tuple(attr.value.split(",")) if attr is not None and attr.value else ()

    def has_fortran_attr(self, name: str) -> bool:
        return name in self.fortran_attrs


@register_op
class AssignOp(Operation):
    """``hlfir.assign`` — Fortran assignment (scalar or whole array)."""

    OP_NAME = "hlfir.assign"
    TRAITS = frozenset({WRITES_MEMORY})

    def __init__(self, rhs: Value, lhs: Value):
        super().__init__(operands=[rhs, lhs])

    @property
    def rhs(self) -> Value:
        return self.operands[0]

    @property
    def lhs(self) -> Value:
        return self.operands[1]


@register_op
class DesignateOp(Operation):
    """``hlfir.designate`` — a designator: array element, array section or
    derived-type component reference."""

    OP_NAME = "hlfir.designate"
    TRAITS = frozenset({PURE})

    def __init__(self, memref: Value, indices: Sequence[Value] = (),
                 component: Optional[str] = None,
                 result_type: Optional[Type] = None,
                 triplets: Sequence[Value] = ()):
        attrs = {"num_indices": IntegerAttr(len(indices))}
        if component:
            attrs["component"] = StringAttr(component)
        if result_type is None:
            base = dereferenced_type(memref.type)
            if isinstance(base, SequenceType) and indices:
                result_type = ReferenceType(base.element_type)
            else:
                result_type = memref.type
        super().__init__(operands=[memref, *indices, *triplets],
                         result_types=[result_type], attributes=attrs)

    @property
    def memref(self) -> Value:
        return self.operands[0]

    @property
    def indices(self):
        n = self.attributes["num_indices"].value
        return self.operands[1:1 + n]

    @property
    def triplets(self):
        n = self.attributes["num_indices"].value
        return self.operands[1 + n:]

    @property
    def component(self) -> Optional[str]:
        attr = self.get_attr("component")
        return attr.value if attr is not None else None


# ---------------------------------------------------------------------------
# Transformational intrinsics
# ---------------------------------------------------------------------------


class _ReductionIntrinsicOp(Operation):
    """Base of sum/product/maxval/minval: reduce an array to a scalar
    (whole-array reduction; DIM/MASK forms carry extra operands)."""

    TRAITS = frozenset({READ_ONLY})

    def __init__(self, array: Value, result_type: Type,
                 dim: Optional[Value] = None, mask: Optional[Value] = None):
        operands = [array]
        attrs = {"has_dim": IntegerAttr(1 if dim is not None else 0),
                 "has_mask": IntegerAttr(1 if mask is not None else 0)}
        if dim is not None:
            operands.append(dim)
        if mask is not None:
            operands.append(mask)
        super().__init__(operands=operands, result_types=[result_type],
                         attributes=attrs)

    @property
    def array(self) -> Value:
        return self.operands[0]


@register_op
class SumOp(_ReductionIntrinsicOp):
    OP_NAME = "hlfir.sum"


@register_op
class ProductOp(_ReductionIntrinsicOp):
    OP_NAME = "hlfir.product"


@register_op
class MaxvalOp(_ReductionIntrinsicOp):
    OP_NAME = "hlfir.maxval"


@register_op
class MinvalOp(_ReductionIntrinsicOp):
    OP_NAME = "hlfir.minval"


@register_op
class CountOp(_ReductionIntrinsicOp):
    OP_NAME = "hlfir.count"


@register_op
class DotProductOp(Operation):
    OP_NAME = "hlfir.dot_product"
    TRAITS = frozenset({READ_ONLY})

    def __init__(self, lhs: Value, rhs: Value, result_type: Type):
        super().__init__(operands=[lhs, rhs], result_types=[result_type])

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


@register_op
class MatmulOp(Operation):
    OP_NAME = "hlfir.matmul"
    TRAITS = frozenset({READ_ONLY})

    def __init__(self, lhs: Value, rhs: Value, result_type: Type):
        super().__init__(operands=[lhs, rhs], result_types=[result_type])

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


@register_op
class TransposeOp(Operation):
    OP_NAME = "hlfir.transpose"
    TRAITS = frozenset({READ_ONLY})

    def __init__(self, array: Value, result_type: Type):
        super().__init__(operands=[array], result_types=[result_type])

    @property
    def array(self) -> Value:
        return self.operands[0]


#: HLFIR transformational intrinsic op names handled by the linalg lowering.
TRANSFORMATIONAL_INTRINSICS = (
    "hlfir.sum", "hlfir.product", "hlfir.maxval", "hlfir.minval",
    "hlfir.dot_product", "hlfir.matmul", "hlfir.transpose", "hlfir.count",
)


__all__ = [
    "ExprType", "DeclareOp", "AssignOp", "DesignateOp", "SumOp", "ProductOp",
    "MaxvalOp", "MinvalOp", "CountOp", "DotProductOp", "MatmulOp",
    "TransposeOp", "TRANSFORMATIONAL_INTRINSICS",
]
