"""Flang's HLFIR -> FIR lowering (the baseline flow's first stage).

Mirrors what Flang does between its HLFIR and FIR-only forms:

* transformational intrinsics (``hlfir.sum``, ``hlfir.matmul``, ...) become
  calls into the Fortran runtime library (Section VI-A of the paper),
* ``hlfir.designate`` element accesses become explicit address arithmetic
  (1-based index normalisation, stride multiplication, linearisation) — the
  "explicitly calculate array access offsets" step the paper describes —
  with allocatable arrays re-loading their descriptor (box) at every access,
* ``hlfir.assign`` becomes a plain ``fir.store`` for scalars and a runtime
  assignment call for whole arrays,
* ``hlfir.declare`` disappears, uses being rewired to the underlying storage.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dialects import arith, fir, hlfir
from ..ir import types as ir_types
from ..ir.core import Block, Operation, Value
from ..ir.pass_manager import Pass, register_pass
from ..ir.rewriter import PatternRewriter
from . import runtime


class _HlfirToFir:
    """Stateful lowering over one module."""

    def __init__(self, module: Operation):
        self.module = module
        self.rewriter = PatternRewriter(module)

    # -- helpers -------------------------------------------------------------
    def _insert_before(self, anchor: Operation, op: Operation) -> Operation:
        anchor.parent.insert_before(anchor, op)
        return op

    def _declare_of(self, value: Value) -> Optional[hlfir.DeclareOp]:
        owner = getattr(value, "op", None)
        if isinstance(owner, hlfir.DeclareOp):
            return owner
        return None

    def _extent_values(self, declare: Optional[hlfir.DeclareOp],
                       memref: Value, anchor: Operation) -> List[Value]:
        """SSA extents of an array, from its static type, declare shape, or box."""
        base_type = memref.type
        seq = fir.dereferenced_type(base_type)
        boxed = isinstance(seq, fir.BoxType)
        if boxed:
            seq = fir.dereferenced_type(fir.dereferenced_type(seq))
        if declare is not None and declare.shape is not None:
            shape_op = declare.shape.op
            return list(shape_op.operands)
        if isinstance(seq, fir.SequenceType) and seq.has_static_shape():
            extents = []
            for d in seq.shape:
                c = self._insert_before(anchor, arith.ConstantOp(d, ir_types.index))
                extents.append(c.result)
            return extents
        if boxed:
            # load the descriptor and query every dimension
            box = self._insert_before(anchor, fir.LoadOp(memref)).result
            extents = []
            rank = seq.rank if isinstance(seq, fir.SequenceType) else 1
            for d in range(rank):
                dim_c = self._insert_before(anchor, arith.ConstantOp(d, ir_types.index))
                dims = self._insert_before(anchor, fir.BoxDimsOp(box, dim_c.result))
                extents.append(dims.results[1])
            return extents
        return []

    # -- designate -------------------------------------------------------------
    def lower_designate(self, op: hlfir.DesignateOp) -> None:
        memref = op.memref
        declare = self._declare_of(memref)
        base = memref
        base_type = memref.type
        inner = fir.dereferenced_type(base_type)
        boxed = isinstance(inner, fir.BoxType)

        if op.component is not None:
            coord = self._insert_before(op, fir.CoordinateOfOp(
                base, [], op.results[0].type, field=op.component))
            op.replace_all_uses_with([coord.results[0]])
            self.rewriter.erase_op(op)
            return

        if op.triplets:
            # array section: materialise a runtime section view call
            call = self._insert_before(op, fir.CallOp(
                "_FortranASectionView", [base, *op.triplets], [op.results[0].type]))
            op.replace_all_uses_with([call.results[0]])
            self.rewriter.erase_op(op)
            return

        indices = list(op.indices)
        if not indices:
            op.replace_all_uses_with([base])
            self.rewriter.erase_op(op)
            return

        # element access: normalise 1-based indices, linearise column-major
        if boxed:
            # Flang re-loads the descriptor at every access (no hoisting)
            box = self._insert_before(op, fir.LoadOp(memref)).result
            addr_base = self._insert_before(op, fir.BoxAddrOp(box)).result
        else:
            addr_base = base
        extents = self._extent_values(declare, memref, op)
        one = self._insert_before(op, arith.ConstantOp(1, ir_types.index)).result
        linear: Optional[Value] = None
        stride: Optional[Value] = None
        for dim, idx in enumerate(indices):
            zero_based = self._insert_before(op, arith.SubIOp(idx, one)).result
            if stride is None:
                term: Value = zero_based
            else:
                term = self._insert_before(op, arith.MulIOp(zero_based, stride)).result
            linear = term if linear is None else \
                self._insert_before(op, arith.AddIOp(linear, term)).result
            if dim < len(indices) - 1:
                extent = extents[dim] if dim < len(extents) else one
                stride = extent if stride is None else \
                    self._insert_before(op, arith.MulIOp(stride, extent)).result
        coord = self._insert_before(op, fir.CoordinateOfOp(
            addr_base, [linear], op.results[0].type))
        op.replace_all_uses_with([coord.results[0]])
        self.rewriter.erase_op(op)

    # -- assign ------------------------------------------------------------------
    def lower_assign(self, op: hlfir.AssignOp) -> None:
        rhs, lhs = op.rhs, op.lhs
        lhs_inner = fir.dereferenced_type(lhs.type)
        is_array_target = isinstance(lhs_inner, (fir.SequenceType, fir.BoxType)) or \
            isinstance(fir.dereferenced_type(lhs_inner), fir.SequenceType)
        if not is_array_target and not isinstance(rhs.type, hlfir.ExprType):
            store = fir.StoreOp(rhs, lhs)
            self.rewriter.replace_op(op, [store])
            return
        # whole-array assignment goes through the runtime in Flang
        call = fir.CallOp("_FortranAAssign", [rhs, lhs])
        self.rewriter.replace_op(op, [call])

    # -- transformational intrinsics -------------------------------------------------
    def lower_intrinsic(self, op: Operation) -> None:
        kind = op.name.split(".")[1]
        symbol = runtime.RUNTIME_SYMBOLS.get(kind, f"_FortranA{kind.capitalize()}")
        call = fir.CallOp(symbol, list(op.operands), [r.type for r in op.results])
        self.rewriter.replace_op(op, [call])

    # -- declare ------------------------------------------------------------------------
    def lower_declare(self, op: hlfir.DeclareOp) -> None:
        op.replace_all_uses_with([op.memref, op.memref])
        self.rewriter.erase_op(op)

    # -- driver ----------------------------------------------------------------------------
    def run(self) -> None:
        # 1. designates (need declares still present for shape info)
        for op in list(self.module.walk()):
            if isinstance(op, hlfir.DesignateOp):
                self.lower_designate(op)
        # 2. transformational intrinsics
        for op in list(self.module.walk()):
            if op.name in hlfir.TRANSFORMATIONAL_INTRINSICS:
                self.lower_intrinsic(op)
        # 3. assignments
        for op in list(self.module.walk()):
            if isinstance(op, hlfir.AssignOp):
                self.lower_assign(op)
        # 4. declares
        for op in list(self.module.walk()):
            if isinstance(op, hlfir.DeclareOp):
                self.lower_declare(op)


@register_pass
class ConvertHlfirToFirPass(Pass):
    """``convert-hlfir-to-fir``: Flang's own HLFIR bufferisation/lowering."""

    NAME = "convert-hlfir-to-fir"

    def run(self, module: Operation) -> None:
        _HlfirToFir(module).run()


def convert_hlfir_to_fir(module: Operation) -> Operation:
    ConvertHlfirToFirPass().run(module)
    return module


__all__ = ["ConvertHlfirToFirPass", "convert_hlfir_to_fir"]
