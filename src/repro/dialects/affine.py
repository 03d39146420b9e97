"""The ``affine`` dialect: affine loops, loads and stores.

The paper's vectorisation path promotes ``scf.for`` loops to ``affine.for``
so that the rich set of affine loop passes (super-vectorisation, tiling,
unrolling) can be applied; these passes live in :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import AffineMapAttr, IntegerAttr
from ..ir.core import Block, Operation, Region, Value, register_op
from ..ir.traits import (IS_TERMINATOR, LOOP_LIKE, READ_ONLY,
                         STRUCTURED_CONTROL_FLOW, WRITES_MEMORY)
from ..ir.types import MemRefType, Type, index


@register_op
class AffineYieldOp(Operation):
    OP_NAME = "affine.yield"
    TRAITS = frozenset({IS_TERMINATOR})

    def __init__(self, values: Sequence[Value] = ()):
        super().__init__(operands=list(values))


@register_op
class AffineForOp(Operation):
    """``affine.for`` with constant or SSA bounds and a constant step.

    Bounds are affine maps over the bound operands; this reproduction keeps
    the common cases used by the lowering: constant bounds, identity maps
    over a single SSA operand, and constant steps.
    """

    OP_NAME = "affine.for"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW, LOOP_LIKE})

    def __init__(self, lower_operands: Sequence[Value], lower_map: AffineMapAttr,
                 upper_operands: Sequence[Value], upper_map: AffineMapAttr,
                 step: int = 1, iter_args: Sequence[Value] = (),
                 body: Optional[Block] = None):
        attrs = {
            "lower_bound_map": lower_map,
            "upper_bound_map": upper_map,
            "step": IntegerAttr(step),
            "num_lower_operands": IntegerAttr(len(lower_operands)),
        }
        if body is None:
            body = Block(arg_types=[index] + [v.type for v in iter_args])
        super().__init__(operands=[*lower_operands, *upper_operands, *iter_args],
                         result_types=[v.type for v in iter_args],
                         regions=[Region([body])], attributes=attrs)

    # -- convenience constructors -----------------------------------------------
    @staticmethod
    def constant_bounds(lower: int, upper: int, step: int = 1,
                        body: Optional[Block] = None) -> "AffineForOp":
        return AffineForOp([], AffineMapAttr.constant_map(lower),
                           [], AffineMapAttr.constant_map(upper), step, body=body)

    # -- accessors -----------------------------------------------------------------
    @property
    def step_value(self) -> int:
        return self.attributes["step"].value

    @property
    def lower_bound_map(self) -> AffineMapAttr:
        return self.attributes["lower_bound_map"]

    @property
    def upper_bound_map(self) -> AffineMapAttr:
        return self.attributes["upper_bound_map"]

    @property
    def num_lower_operands(self) -> int:
        return self.attributes["num_lower_operands"].value

    @property
    def lower_operands(self):
        return self.operands[:self.num_lower_operands]

    @property
    def upper_operands(self):
        n_iter = len(self.results)
        end = len(self.operands) - n_iter
        return self.operands[self.num_lower_operands:end]

    @property
    def iter_args(self):
        n_iter = len(self.results)
        return self.operands[len(self.operands) - n_iter:] if n_iter else ()

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]

    @property
    def induction_variable(self) -> Value:
        return self.body.args[0]


class _AffineMemOp(Operation):
    """Base for affine.load / affine.store: subscripts are an affine map of
    the surrounding loop induction variables."""

    def _init_map(self, memref: Value, indices: Sequence[Value],
                  map_attr: Optional[AffineMapAttr]) -> AffineMapAttr:
        rank = memref.type.rank
        if map_attr is None:
            map_attr = AffineMapAttr.identity(rank)
        if len(map_attr.results) != rank:
            raise ValueError("affine map result count must equal memref rank")
        return map_attr


@register_op
class AffineLoadOp(_AffineMemOp):
    OP_NAME = "affine.load"
    TRAITS = frozenset({READ_ONLY})

    def __init__(self, memref: Value, indices: Sequence[Value],
                 map_attr: Optional[AffineMapAttr] = None):
        map_attr = self._init_map(memref, indices, map_attr)
        super().__init__(operands=[memref, *indices],
                         result_types=[memref.type.element_type],
                         attributes={"map": map_attr})

    @property
    def memref(self) -> Value:
        return self.operands[0]

    @property
    def indices(self):
        return self.operands[1:]

    @property
    def map(self) -> AffineMapAttr:
        return self.attributes["map"]


@register_op
class AffineStoreOp(_AffineMemOp):
    OP_NAME = "affine.store"
    TRAITS = frozenset({WRITES_MEMORY})

    def __init__(self, value: Value, memref: Value, indices: Sequence[Value],
                 map_attr: Optional[AffineMapAttr] = None):
        map_attr = self._init_map(memref, indices, map_attr)
        super().__init__(operands=[value, memref, *indices],
                         attributes={"map": map_attr})

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def memref(self) -> Value:
        return self.operands[1]

    @property
    def indices(self):
        return self.operands[2:]

    @property
    def map(self) -> AffineMapAttr:
        return self.attributes["map"]


__all__ = ["AffineForOp", "AffineYieldOp", "AffineLoadOp", "AffineStoreOp"]
