"""The ``acc`` dialect: OpenACC kernels and data-movement clauses.

The paper notes that MLIR has *no* lowering out of the acc dialect; Section
VI-C develops one (acc.kernels -> scf.parallel, acc.create ->
gpu.host_register, acc.delete -> gpu.host_unregister) which is
implemented in :mod:`repro.core.acc_to_gpu`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import StringAttr
from ..ir.core import Block, Operation, Region, Value, register_op
from ..ir.traits import IS_TERMINATOR, STRUCTURED_CONTROL_FLOW


@register_op
class TerminatorOp(Operation):
    OP_NAME = "acc.terminator"
    TRAITS = frozenset({IS_TERMINATOR})

    def __init__(self):
        super().__init__()


@register_op
class KernelsOp(Operation):
    """``acc.kernels`` — offloadable region of loops."""

    OP_NAME = "acc.kernels"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW})

    def __init__(self, data_operands: Sequence[Value] = (),
                 body: Optional[Block] = None):
        super().__init__(operands=list(data_operands),
                         regions=[Region([body or Block()])])

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]


@register_op
class DataOp(Operation):
    """``acc.data`` — structured data region."""

    OP_NAME = "acc.data"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW})

    def __init__(self, data_operands: Sequence[Value] = (),
                 body: Optional[Block] = None):
        super().__init__(operands=list(data_operands),
                         regions=[Region([body or Block()])])

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]


class _DataClauseOp(Operation):
    """Base of data-movement clause operations (create/copyin/copyout/delete).

    The operand is the host memref; the result (when present) is the device
    view of the same data.
    """

    def __init__(self, host: Value, with_result: bool = True,
                 name: Optional[str] = None):
        result_types = [host.type] if with_result else []
        attrs = {"var_name": StringAttr(name)} if name else {}
        super().__init__(operands=[host], result_types=result_types,
                         attributes=attrs)

    @property
    def host(self) -> Value:
        return self.operands[0]


@register_op
class CreateOp(_DataClauseOp):
    OP_NAME = "acc.create"


@register_op
class CopyinOp(_DataClauseOp):
    OP_NAME = "acc.copyin"


@register_op
class DeleteOp(_DataClauseOp):
    OP_NAME = "acc.delete"

    def __init__(self, host: Value, name: Optional[str] = None):
        super().__init__(host, with_result=False, name=name)


__all__ = ["TerminatorOp", "KernelsOp", "DataOp", "CreateOp",
           "CopyinOp", "DeleteOp"]
