"""The ``scf`` dialect: structured control flow (for, while, if, parallel)."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import StringAttr
from ..ir.core import Block, Operation, Region, Value, register_op
from ..ir.traits import (IS_TERMINATOR, LOOP_LIKE, STRUCTURED_CONTROL_FLOW)
from ..ir.types import Type, index


@register_op
class YieldOp(Operation):
    """Terminates scf regions, forwarding iteration/result values."""

    OP_NAME = "scf.yield"
    TRAITS = frozenset({IS_TERMINATOR})

    def __init__(self, values: Sequence[Value] = ()):
        super().__init__(operands=list(values))


@register_op
class ConditionOp(Operation):
    """Terminator of the 'before' region of scf.while."""

    OP_NAME = "scf.condition"
    TRAITS = frozenset({IS_TERMINATOR})

    def __init__(self, condition: Value, args: Sequence[Value] = ()):
        super().__init__(operands=[condition, *args])

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def forwarded(self):
        return self.operands[1:]


@register_op
class ForOp(Operation):
    """``scf.for %iv = %lb to %ub step %step iter_args(...)``.

    The body block receives the induction variable followed by the loop-carried
    values; iteration is always upward and ``step`` must be positive (this is
    the restriction Section V-A of the paper works around for Fortran
    down-counting do loops).
    """

    OP_NAME = "scf.for"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW, LOOP_LIKE})

    def __init__(self, lower: Value, upper: Value, step: Value,
                 iter_args: Sequence[Value] = (),
                 body: Optional[Block] = None):
        result_types = [v.type for v in iter_args]
        if body is None:
            body = Block(arg_types=[index] + [v.type for v in iter_args])
        super().__init__(operands=[lower, upper, step, *iter_args],
                         result_types=result_types,
                         regions=[Region([body])])

    @property
    def lower_bound(self) -> Value:
        return self.operands[0]

    @property
    def upper_bound(self) -> Value:
        return self.operands[1]

    @property
    def step(self) -> Value:
        return self.operands[2]

    @property
    def iter_args(self):
        return self.operands[3:]

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]

    @property
    def induction_variable(self) -> Value:
        return self.body.args[0]

    @property
    def region_iter_args(self):
        return self.body.args[1:]


@register_op
class IfOp(Operation):
    """``scf.if`` with a then region and an (optionally empty) else region."""

    OP_NAME = "scf.if"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW})

    def __init__(self, condition: Value, result_types: Sequence[Type] = (),
                 then_block: Optional[Block] = None,
                 else_block: Optional[Block] = None,
                 with_else: bool = True):
        then_region = Region([then_block or Block()])
        regions = [then_region]
        if with_else or else_block is not None:
            regions.append(Region([else_block or Block()]))
        else:
            regions.append(Region())
        super().__init__(operands=[condition], result_types=list(result_types),
                         regions=regions)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def then_block(self) -> Block:
        return self.regions[0].blocks[0]

    @property
    def else_block(self) -> Optional[Block]:
        region = self.regions[1]
        return region.blocks[0] if region.blocks else None

    def has_else(self) -> bool:
        return bool(self.regions[1].blocks)


@register_op
class WhileOp(Operation):
    """``scf.while``: a 'before' region computing the condition and an 'after'
    region holding the loop body."""

    OP_NAME = "scf.while"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW, LOOP_LIKE})

    def __init__(self, init_values: Sequence[Value], result_types: Sequence[Type],
                 before: Optional[Block] = None, after: Optional[Block] = None):
        before = before or Block(arg_types=[v.type for v in init_values])
        after = after or Block(arg_types=list(result_types))
        super().__init__(operands=list(init_values), result_types=list(result_types),
                         regions=[Region([before]), Region([after])])

    @property
    def before_block(self) -> Block:
        return self.regions[0].blocks[0]

    @property
    def after_block(self) -> Block:
        return self.regions[1].blocks[0]


@register_op
class ParallelOp(Operation):
    """``scf.parallel``: a multi-dimensional parallel loop nest.

    Operand layout: lower bounds, upper bounds, steps and then initial values
    of reductions.  The body block receives one induction variable per
    dimension.
    """

    OP_NAME = "scf.parallel"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW, LOOP_LIKE})

    def __init__(self, lower: Sequence[Value], upper: Sequence[Value],
                 steps: Sequence[Value], init_values: Sequence[Value] = (),
                 body: Optional[Block] = None):
        from ..ir.attributes import IntegerAttr
        rank = len(lower)
        if len(upper) != rank or len(steps) != rank:
            raise ValueError("scf.parallel bound/step rank mismatch")
        result_types = [v.type for v in init_values]
        if body is None:
            body = Block(arg_types=[index] * rank)
        super().__init__(
            operands=[*lower, *upper, *steps, *init_values],
            result_types=result_types,
            regions=[Region([body])],
            attributes={"rank": IntegerAttr(rank)})

    @property
    def rank(self) -> int:
        return self.attributes["rank"].value

    @property
    def lower_bounds(self):
        return self.operands[0:self.rank]

    @property
    def upper_bounds(self):
        return self.operands[self.rank:2 * self.rank]

    @property
    def steps(self):
        return self.operands[2 * self.rank:3 * self.rank]

    @property
    def init_values(self):
        return self.operands[3 * self.rank:]

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]

    @property
    def induction_variables(self):
        return self.body.args[:self.rank]


__all__ = ["YieldOp", "ConditionOp", "ForOp", "IfOp", "WhileOp", "ParallelOp"]
