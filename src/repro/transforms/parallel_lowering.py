"""Lowerings of ``scf.parallel``: to OpenMP (CPU threading) and to GPU kernels.

* ``convert-scf-to-openmp`` wraps parallel loops in ``omp.parallel`` +
  ``omp.wsloop`` (Section VI-A/B);
* ``convert-parallel-loops-to-gpu`` converts parallel loops into
  ``gpu.launch`` kernels (Section VI-C), with the loop body executed per
  thread.
"""

from __future__ import annotations

from ..dialects import arith, gpu as gpu_d, omp as omp_d, scf
from ..ir import types as ir_types
from ..ir.core import Block, Operation
from ..ir.pass_manager import FunctionPass, register_pass


@register_pass
class ConvertScfToOpenMPPass(FunctionPass):
    NAME = "convert-scf-to-openmp"

    def run_on_function(self, func: Operation) -> None:
        for op in list(func.walk()):
            if op.name == "scf.parallel" and op.parent is not None:
                self._lower(op)

    def _lower(self, op: scf.ParallelOp) -> None:
        parallel = omp_d.ParallelOp()
        op.parent.insert_before(op, parallel)
        wsloop = omp_d.WsLoopOp(list(op.lower_bounds), list(op.upper_bounds),
                                list(op.steps))
        parallel.body.add_op(wsloop)
        parallel.body.add_op(omp_d.TerminatorOp())
        for old_iv, new_iv in zip(op.induction_variables, wsloop.induction_variables):
            old_iv.replace_all_uses_with(new_iv)
        for inner in list(op.body.ops):
            inner.detach()
            if inner.name == "scf.yield":
                inner.drop_all_references()
                continue
            wsloop.body.add_op(inner)
        if wsloop.body.terminator is None:
            wsloop.body.add_op(omp_d.YieldOp())
        op.erase(check_uses=False)


@register_pass
class ConvertParallelLoopsToGpuPass(FunctionPass):
    NAME = "convert-parallel-loops-to-gpu"

    def run_on_function(self, func: Operation) -> None:
        for op in list(func.walk()):
            if op.name == "scf.parallel" and op.parent is not None:
                # only map outermost parallel loops onto the device grid
                if any(a.name in ("scf.parallel", "gpu.launch") for a in op.ancestors()):
                    continue
                self._lower(op)

    def _lower(self, op: scf.ParallelOp) -> None:
        block = op.parent
        one = arith.ConstantOp(1, ir_types.index)
        block.insert_before(op, one)
        block_size = arith.ConstantOp(128, ir_types.index)
        block.insert_before(op, block_size)
        # grid size = ceil((ub - lb) / step / block)
        span = arith.SubIOp(op.upper_bounds[0], op.lower_bounds[0])
        block.insert_before(op, span)
        per_thread = arith.CeilDivSIOp(span.result, op.steps[0])
        block.insert_before(op, per_thread)
        grid = arith.CeilDivSIOp(per_thread.result, block_size.result)
        block.insert_before(op, grid)

        launch = gpu_d.LaunchOp([grid.result, one.result, one.result],
                                [block_size.result, one.result, one.result])
        block.insert_before(op, launch)
        body = launch.body
        # global index = block_id.x * block_dim.x + thread_id.x (+ lower bound)
        bid, tid = body.args[0], body.args[3]
        bdim = body.args[9]
        mul = arith.MulIOp(bid, bdim)
        gid = arith.AddIOp(mul.result, tid)
        offset = arith.MulIOp(gid.result, op.steps[0])
        global_index = arith.AddIOp(offset.result, op.lower_bounds[0])
        in_range = arith.CmpIOp("slt", global_index.result, op.upper_bounds[0])
        guard = scf.IfOp(in_range.result)
        for o in (mul, gid, offset, global_index, in_range, guard):
            body.add_op(o)
        body.add_op(gpu_d.TerminatorOp())

        op.induction_variables[0].replace_all_uses_with(global_index.result)
        inner_ivs = list(op.induction_variables[1:])
        target_block = guard.then_block
        # additional parallel dimensions execute sequentially inside the kernel
        for d, iv in enumerate(inner_ivs, start=1):
            loop = scf.ForOp(op.lower_bounds[d], op.upper_bounds[d], op.steps[d])
            target_block.add_op(loop)
            iv.replace_all_uses_with(loop.induction_variable)
            target_block = loop.body
        for inner in list(op.body.ops):
            inner.detach()
            if inner.name == "scf.yield":
                inner.drop_all_references()
                continue
            target_block.add_op(inner)
        # close every block with the right terminator
        blk = target_block
        while blk is not None and blk is not guard.then_block:
            if blk.terminator is None:
                blk.add_op(scf.YieldOp())
            blk = blk.parent_op().parent if blk.parent_op() is not None else None
        if guard.then_block.terminator is None:
            guard.then_block.add_op(scf.YieldOp())
        if guard.else_block is not None and guard.else_block.terminator is None:
            guard.else_block.add_op(scf.YieldOp())
        op.erase(check_uses=False)


__all__ = ["ConvertScfToOpenMPPass", "ConvertParallelLoopsToGpuPass"]
