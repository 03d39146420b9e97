"""The ``gpu`` dialect: kernel launch and host registration."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.core import Block, Operation, Region, Value, register_op
from ..ir.traits import IS_TERMINATOR, LOOP_LIKE, STRUCTURED_CONTROL_FLOW
from ..ir.types import index


@register_op
class TerminatorOp(Operation):
    OP_NAME = "gpu.terminator"
    TRAITS = frozenset({IS_TERMINATOR})

    def __init__(self):
        super().__init__()


@register_op
class HostRegisterOp(Operation):
    """Register host memory for unified/managed access from the device."""

    OP_NAME = "gpu.host_register"

    def __init__(self, memref: Value):
        super().__init__(operands=[memref])


@register_op
class HostUnregisterOp(Operation):
    OP_NAME = "gpu.host_unregister"

    def __init__(self, memref: Value):
        super().__init__(operands=[memref])


@register_op
class LaunchOp(Operation):
    """``gpu.launch`` — inline kernel launch over a grid/block configuration.

    Operands: grid sizes (x, y, z) then block sizes (x, y, z).  The body block
    receives the block ids, thread ids, grid dims and block dims (12 index
    arguments) mirroring MLIR's gpu.launch.
    """

    OP_NAME = "gpu.launch"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW, LOOP_LIKE})

    def __init__(self, grid: Sequence[Value], block: Sequence[Value],
                 body: Optional[Block] = None):
        if len(grid) != 3 or len(block) != 3:
            raise ValueError("gpu.launch expects 3 grid and 3 block sizes")
        if body is None:
            body = Block(arg_types=[index] * 12)
        super().__init__(operands=[*grid, *block], regions=[Region([body])])

    @property
    def grid_sizes(self):
        return self.operands[0:3]

    @property
    def block_sizes(self):
        return self.operands[3:6]

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]


__all__ = ["TerminatorOp", "HostRegisterOp", "HostUnregisterOp", "LaunchOp"]
