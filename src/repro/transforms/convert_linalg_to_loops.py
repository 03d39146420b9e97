"""``convert-linalg-to-loops``: lower named linalg ops to scf loop nests."""

from __future__ import annotations

from typing import List, Optional

from ..dialects import arith, linalg, memref as memref_d, scf
from ..ir import types as ir_types
from ..ir.core import Block, Operation, Value
from ..ir.pass_manager import FunctionPass, register_pass


class LinalgToLoops:
    def __init__(self, func: Operation):
        self.func = func

    def run(self) -> None:
        for op in list(self.func.walk()):
            handler = {
                "linalg.fill": self._lower_fill,
                "linalg.copy": self._lower_copy,
                "linalg.matmul": self._lower_matmul,
                "linalg.dot": self._lower_dot,
                "linalg.transpose": self._lower_transpose,
                "linalg.reduce": self._lower_reduce,
            }.get(op.name)
            if handler is not None and op.parent is not None:
                handler(op)

    # -- helpers -----------------------------------------------------------------
    def _dims(self, anchor: Operation, memref_value: Value) -> List[Value]:
        """SSA extents of every dimension of a memref (constants when static)."""
        block = anchor.parent
        dims: List[Value] = []
        mtype = memref_value.type
        for d in range(mtype.rank):
            if mtype.shape[d] != ir_types.DYNAMIC:
                const = arith.ConstantOp(mtype.shape[d], ir_types.index)
                block.insert_before(anchor, const)
                dims.append(const.result)
            else:
                idx = arith.ConstantOp(d, ir_types.index)
                block.insert_before(anchor, idx)
                dim = memref_d.DimOp(memref_value, idx.result)
                block.insert_before(anchor, dim)
                dims.append(dim.results[0])
        return dims

    def _zero_and_one(self, anchor: Operation):
        block = anchor.parent
        zero = arith.ConstantOp(0, ir_types.index)
        one = arith.ConstantOp(1, ir_types.index)
        block.insert_before(anchor, zero)
        block.insert_before(anchor, one)
        return zero.result, one.result

    def _loop_nest(self, anchor: Operation, extents: List[Value]):
        """Create a nest of scf.for [0, extent) loops before ``anchor``;
        returns (loops, induction variables, innermost block)."""
        zero, one = self._zero_and_one(anchor)
        loops: List[scf.ForOp] = []
        ivs: List[Value] = []
        insertion_block = anchor.parent
        insertion_anchor = anchor
        for extent in extents:
            loop = scf.ForOp(zero, extent, one)
            if not loops:
                insertion_block.insert_before(insertion_anchor, loop)
            else:
                loops[-1].body.add_op(loop)
            loops.append(loop)
            ivs.append(loop.induction_variable)
        return loops, ivs, loops[-1].body if loops else anchor.parent

    @staticmethod
    def _finish_nest(loops: List[scf.ForOp]) -> None:
        for loop in loops:
            if loop.body.terminator is None:
                loop.body.add_op(scf.YieldOp())

    # -- individual ops ---------------------------------------------------------------
    def _lower_fill(self, op: linalg.FillOp) -> None:
        value, out = op.operands[0], op.operands[1]
        extents = self._dims(op, out)
        loops, ivs, body = self._loop_nest(op, extents)
        body.add_op(memref_d.StoreOp(value, out, ivs))
        self._finish_nest(loops)
        op.erase(check_uses=False)

    def _lower_copy(self, op: linalg.CopyOp) -> None:
        src, out = op.operands[0], op.operands[1]
        extents = self._dims(op, out)
        loops, ivs, body = self._loop_nest(op, extents)
        load = memref_d.LoadOp(src, ivs)
        body.add_op(load)
        body.add_op(memref_d.StoreOp(load.results[0], out, ivs))
        self._finish_nest(loops)
        op.erase(check_uses=False)

    def _lower_matmul(self, op: linalg.MatmulOp) -> None:
        a, b, c = op.operands[0], op.operands[1], op.operands[2]
        m_n = self._dims(op, c)
        k = self._dims(op, a)[1]
        loops, ivs, body = self._loop_nest(op, [m_n[0], m_n[1], k])
        i, j, kk = ivs
        load_a = memref_d.LoadOp(a, [i, kk])
        load_b = memref_d.LoadOp(b, [kk, j])
        load_c = memref_d.LoadOp(c, [i, j])
        elem_float = isinstance(a.type.element_type, ir_types.FloatType)
        mul = arith.MulFOp(load_a.results[0], load_b.results[0]) if elem_float \
            else arith.MulIOp(load_a.results[0], load_b.results[0])
        add = arith.AddFOp(load_c.results[0], mul.result) if elem_float \
            else arith.AddIOp(load_c.results[0], mul.result)
        store = memref_d.StoreOp(add.result, c, [i, j])
        for o in (load_a, load_b, load_c, mul, add, store):
            body.add_op(o)
        self._finish_nest(loops)
        op.erase(check_uses=False)

    def _lower_dot(self, op: linalg.DotOp) -> None:
        a, b, out = op.operands[0], op.operands[1], op.operands[2]
        n = self._dims(op, a)[0]
        loops, ivs, body = self._loop_nest(op, [n])
        i = ivs[0]
        load_a = memref_d.LoadOp(a, [i])
        load_b = memref_d.LoadOp(b, [i])
        load_out = memref_d.LoadOp(out, [])
        elem_float = isinstance(a.type.element_type, ir_types.FloatType)
        mul = arith.MulFOp(load_a.results[0], load_b.results[0]) if elem_float \
            else arith.MulIOp(load_a.results[0], load_b.results[0])
        add = arith.AddFOp(load_out.results[0], mul.result) if elem_float \
            else arith.AddIOp(load_out.results[0], mul.result)
        store = memref_d.StoreOp(add.result, out, [])
        for o in (load_a, load_b, load_out, mul, add, store):
            body.add_op(o)
        self._finish_nest(loops)
        op.erase(check_uses=False)

    def _lower_transpose(self, op: linalg.TransposeOp) -> None:
        src, out = op.operands[0], op.operands[1]
        extents = self._dims(op, out)
        loops, ivs, body = self._loop_nest(op, extents)
        permuted = [ivs[p] for p in op.permutation]
        load = memref_d.LoadOp(src, permuted)
        body.add_op(load)
        body.add_op(memref_d.StoreOp(load.results[0], out, ivs))
        self._finish_nest(loops)
        op.erase(check_uses=False)

    def _lower_reduce(self, op: linalg.ReduceOp) -> None:
        src = op.operands[0]
        out = op.operands[1]
        extents = self._dims(op, src)
        loops, ivs, body = self._loop_nest(op, extents)
        load_src = memref_d.LoadOp(src, ivs)
        load_out = memref_d.LoadOp(out, [])
        body.add_op(load_src)
        body.add_op(load_out)
        # inline the combiner region with (element, accumulator)
        combiner = op.body
        value_map = {combiner.args[0]: load_src.results[0],
                     combiner.args[1]: load_out.results[0]}
        result_value: Optional[Value] = None
        for inner in combiner.ops:
            if inner.name == "linalg.yield":
                result_value = value_map.get(inner.operands[0], inner.operands[0])
                continue
            clone = inner.clone(value_map)
            body.add_op(clone)
        if result_value is None and body.ops:
            result_value = body.ops[-1].results[0]
        body.add_op(memref_d.StoreOp(result_value, out, []))
        self._finish_nest(loops)
        op.erase(check_uses=False)


@register_pass
class ConvertLinalgToLoopsPass(FunctionPass):
    NAME = "convert-linalg-to-loops"

    def run_on_function(self, func: Operation) -> None:
        LinalgToLoops(func).run()


__all__ = ["ConvertLinalgToLoopsPass", "LinalgToLoops"]
