"""The ``omp`` dialect: OpenMP parallel regions and worksharing loops."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import IntegerAttr, StringAttr
from ..ir.core import Block, Operation, Region, Value, register_op
from ..ir.traits import IS_TERMINATOR, LOOP_LIKE, STRUCTURED_CONTROL_FLOW
from ..ir.types import index


@register_op
class TerminatorOp(Operation):
    OP_NAME = "omp.terminator"
    TRAITS = frozenset({IS_TERMINATOR})

    def __init__(self):
        super().__init__()


@register_op
class YieldOp(Operation):
    OP_NAME = "omp.yield"
    TRAITS = frozenset({IS_TERMINATOR})

    def __init__(self, values: Sequence[Value] = ()):
        super().__init__(operands=list(values))


@register_op
class ParallelOp(Operation):
    """``omp.parallel`` — a team of threads executes the region."""

    OP_NAME = "omp.parallel"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW})

    def __init__(self, num_threads: Optional[Value] = None,
                 body: Optional[Block] = None):
        operands = [num_threads] if num_threads is not None else []
        super().__init__(operands=operands,
                         regions=[Region([body or Block()])])

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]


@register_op
class WsLoopOp(Operation):
    """``omp.wsloop`` — worksharing loop wrapper around a loop nest region.

    The region's single block takes one induction variable per collapsed
    dimension; operands are lower bounds, upper bounds and steps.
    """

    OP_NAME = "omp.wsloop"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW, LOOP_LIKE})

    def __init__(self, lower: Sequence[Value], upper: Sequence[Value],
                 steps: Sequence[Value], body: Optional[Block] = None,
                 schedule: str = "static"):
        rank = len(lower)
        if body is None:
            body = Block(arg_types=[index] * rank)
        super().__init__(operands=[*lower, *upper, *steps],
                         regions=[Region([body])],
                         attributes={"rank": IntegerAttr(rank),
                                     "schedule": StringAttr(schedule)})

    @property
    def rank(self) -> int:
        return self.attributes["rank"].value

    @property
    def lower_bounds(self):
        return self.operands[:self.rank]

    @property
    def upper_bounds(self):
        return self.operands[self.rank:2 * self.rank]

    @property
    def steps(self):
        return self.operands[2 * self.rank:]

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]

    @property
    def induction_variables(self):
        return self.body.args[:self.rank]


__all__ = ["TerminatorOp", "YieldOp", "ParallelOp", "WsLoopOp"]
