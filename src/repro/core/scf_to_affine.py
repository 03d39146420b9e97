"""Promote ``scf.for`` loops to ``affine.for`` (Section VI).

The scf-for-loop-specialization pass proved ineffective for vectorisation, so
the paper raises eligible loops into the affine dialect instead, rewriting
``memref.load`` / ``memref.store`` inside them to ``affine.load`` /
``affine.store`` whose subscripts use the loop induction variables directly
(with optional constant offsets).  The affine passes (super-vectorisation,
tiling, unrolling) then apply.

A loop is promoted when its step is a constant and its bounds are either
constants or loop-invariant SSA index values (both representable as affine
bound maps).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..dialects import affine as affine_d
from ..dialects import arith, memref as memref_d, scf
from ..ir import types as ir_types
from ..ir.attributes import AffineExpr, AffineMapAttr
from ..ir.core import Block, Operation, Value
from ..ir.pass_manager import FunctionPass, register_pass


def _constant_value(value: Value) -> Optional[int]:
    op = getattr(value, "op", None)
    if op is not None and op.name == "arith.constant":
        return int(op.get_attr("value").value)
    return None


def _bound_map(value: Value) -> Tuple[List[Value], AffineMapAttr]:
    const = _constant_value(value)
    if const is not None:
        return [], AffineMapAttr.constant_map(const)
    return [value], AffineMapAttr(1, 0, [AffineExpr.dim(0)])


class ScfToAffine:
    def __init__(self, func: Operation):
        self.func = func
        self.promoted = 0

    def run(self) -> int:
        """One pre-order traversal, outer loops first; the body of a promoted
        loop is visited through the ``affine.for`` that replaced it.  Whether
        a loop can be promoted depends on its own ``iter_args`` and step
        only, so nothing already passed ever needs a second look."""
        stack = [self.func]
        while stack:
            op = stack.pop()
            if op.name == "scf.for":
                promoted = self._promote(op)
                if promoted is not None:
                    self.promoted += 1
                    op = promoted
            for region in reversed(op.regions):
                for block in reversed(region.blocks):
                    stack.extend(reversed(block.ops))
        return self.promoted

    def _promote(self, loop: scf.ForOp) -> Optional[affine_d.AffineForOp]:
        """The ``affine.for`` that replaced ``loop``, or ``None``."""
        if loop.iter_args:
            return None
        step = _constant_value(loop.step)
        if step is None or step <= 0:
            return None
        lower_ops, lower_map = _bound_map(loop.lower_bound)
        upper_ops, upper_map = _bound_map(loop.upper_bound)
        body = Block(arg_types=[ir_types.index])
        new_loop = affine_d.AffineForOp(lower_ops, lower_map, upper_ops, upper_map,
                                        step=step, body=body)
        parent = loop.parent
        parent.insert_before(loop, new_loop)
        loop.induction_variable.replace_all_uses_with(body.args[0])
        for inner in list(loop.body.ops):
            inner.detach()
            if inner.name == "scf.yield":
                inner.drop_all_references()
                continue
            body.add_op(inner)
        body.add_op(affine_d.AffineYieldOp())
        loop.erase(check_uses=False)
        self._raise_memory_ops(new_loop)
        return new_loop

    def _raise_memory_ops(self, loop: affine_d.AffineForOp) -> None:
        """memref.load/store whose indices are induction variables or
        IV +/- constant become affine.load/store with the offset encoded in
        the access map."""
        ivs = self._surrounding_ivs(loop)
        for op in list(loop.walk()):
            if op.name == "memref.load":
                memref_val, indices = op.operands[0], list(op.operands[1:])
                mapped = self._affine_indices(indices, ivs)
                if mapped is None:
                    continue
                operands, amap = mapped
                new = affine_d.AffineLoadOp(memref_val, operands, amap)
                op.parent.insert_before(op, new)
                op.replace_all_uses_with([new.results[0]])
                op.erase(check_uses=False)
            elif op.name == "memref.store":
                value, memref_val = op.operands[0], op.operands[1]
                indices = list(op.operands[2:])
                mapped = self._affine_indices(indices, ivs)
                if mapped is None:
                    continue
                operands, amap = mapped
                new = affine_d.AffineStoreOp(value, memref_val, operands, amap)
                op.parent.insert_before(op, new)
                op.erase(check_uses=False)

    def _surrounding_ivs(self, loop: affine_d.AffineForOp) -> List[Value]:
        ivs = [loop.induction_variable]
        for ancestor in loop.ancestors():
            if ancestor.name == "affine.for":
                ivs.append(ancestor.body.args[0])
        for inner in loop.walk():
            if inner.name == "affine.for" and inner is not loop:
                ivs.append(inner.body.args[0])
        return ivs

    def _affine_indices(self, indices: List[Value], ivs: List[Value]):
        """Build (operands, map) when every subscript is IV, IV±const or const."""
        operands: List[Value] = []
        exprs: List[AffineExpr] = []
        for idx in indices:
            expr = self._affine_expr(idx, ivs, operands)
            if expr is None:
                return None
            exprs.append(expr)
        return operands, AffineMapAttr(len(operands), 0, exprs)

    def _affine_expr(self, value: Value, ivs: List[Value],
                     operands: List[Value]) -> Optional[AffineExpr]:
        const = _constant_value(value)
        if const is not None:
            return AffineExpr.constant(const)
        if value in ivs:
            return self._dim_for(value, operands)
        defining = getattr(value, "op", None)
        if defining is not None and defining.name in ("arith.addi", "arith.subi"):
            lhs, rhs = defining.operands
            lhs_e = self._affine_expr(lhs, ivs, operands)
            rhs_e = self._affine_expr(rhs, ivs, operands)
            if lhs_e is None or rhs_e is None:
                return None
            if defining.name == "arith.addi":
                return lhs_e + rhs_e
            return lhs_e + (rhs_e * -1)
        if defining is not None and defining.name in ("arith.index_cast",
                                                      "arith.extsi", "arith.trunci"):
            # look through width/index conversions so the induction variable is
            # still recognised after Fortran's i32 subscript arithmetic
            return self._affine_expr(defining.operands[0], ivs, operands)
        if isinstance(value.type, (ir_types.IndexType, ir_types.IntegerType)):
            # a loop-invariant integer value: pass as a dimension operand
            return self._dim_for(value, operands)
        return None

    @staticmethod
    def _dim_for(value: Value, operands: List[Value]) -> AffineExpr:
        for i, existing in enumerate(operands):
            if existing is value:
                return AffineExpr.dim(i)
        operands.append(value)
        return AffineExpr.dim(len(operands) - 1)


@register_pass
class ScfToAffinePass(FunctionPass):
    """``raise-scf-to-affine``: promote scf.for loops into the affine dialect."""

    NAME = "raise-scf-to-affine"

    def run_on_function(self, func: Operation) -> None:
        ScfToAffine(func).run()


__all__ = ["ScfToAffinePass", "ScfToAffine"]
