"""Tests for the standard MLIR transformation passes."""

import pytest

from repro.core import convert_fir_to_standard
from repro.dialects import arith, func as func_d, memref, scf
from repro.frontend import lower_to_hlfir
from repro.ir import Block, PassManager
from repro.ir import types as T
from repro.ir.printer import print_op
from repro.machine import Interpreter
from repro.transforms.cleanup import (ForwardScalarStoresPass,
                                      LoopInvariantCodeMotionPass)

from ..conftest import last_value, ours_module, run_flang, run_ours


def _interpret_printed(module):
    interp = Interpreter(module)
    interp.run_main()
    return interp.printed


def _run_pass_and_compare(source, pass_pipeline):
    """Execution equivalence: printed output identical before/after passes."""
    before = _interpret_printed(standard_module(source))
    module = standard_module(source)
    PassManager.from_pipeline(pass_pipeline).run(module)
    after = _interpret_printed(module)
    assert after == before, (before, after)
    return module


def standard_module(source):
    return convert_fir_to_standard(lower_to_hlfir(source))


SRC = """
program p
  implicit none
  integer, parameter :: n = 12
  real(kind=8), dimension(n) :: v
  real(kind=8) :: t
  integer :: i
  do i = 1, n
    v(i) = real(i, 8) * 3.0d0
  end do
  t = sum(v)
  if (t > 100.0d0) then
    t = t - 100.0d0
  end if
  print *, t
end program p
"""


class TestCleanupPasses:
    def test_canonicalize_folds_constants(self):
        module = standard_module(SRC)
        before = sum(1 for op in module.walk() if op.name == "arith.constant")
        PassManager.from_pipeline("builtin.module(canonicalize, cse)").run(module)
        after = sum(1 for op in module.walk() if op.name == "arith.constant")
        assert after <= before

    def test_cse_removes_duplicate_pure_ops(self):
        module = standard_module(SRC)
        PassManager.from_pipeline("builtin.module(cse)").run(module)
        # duplicated 'constant 1 : index' within one block must collapse
        for func in module.functions():
            for block in func.regions[0].blocks:
                ones = [op for op in block.ops if op.name == "arith.constant"
                        and op.get_attr("value").value == 1
                        and op.results[0].type.mlir() == "index"]
                assert len(ones) <= 1

    def test_licm_hoists_invariant_ops(self):
        module = standard_module(SRC)
        PassManager.from_pipeline(
            "builtin.module(loop-invariant-code-motion)").run(module)
        for op in module.walk():
            if op.name == "scf.for":
                body_names = [o.name for o in op.body.ops]
                assert "arith.constant" not in body_names

    def test_semantics_preserved_by_cleanups(self):
        module = standard_module(SRC)
        from repro.machine import Interpreter
        PassManager.from_pipeline(
            "builtin.module(canonicalize, cse, loop-invariant-code-motion)").run(module)
        interp = Interpreter(module)
        interp.run_main()
        assert float(interp.printed[-1]) == pytest.approx(
            sum(i * 3.0 for i in range(1, 13)) - 100.0)


def _loop_module(body_builder):
    """A func with one scf.for over [0, 8); ``body_builder(body, iv)``
    populates the loop body and returns ops of interest."""
    fn = func_d.FuncOp("main", T.FunctionType((), ()))
    entry = fn.entry_block
    lb = arith.ConstantOp(0, T.index)
    ub = arith.ConstantOp(8, T.index)
    step = arith.ConstantOp(1, T.index)
    entry.add_ops([lb, ub, step])
    loop = scf.ForOp(lb.result, ub.result, step.result)
    interesting = body_builder(loop.body, loop.body.args[0], entry)
    loop.body.add_op(scf.YieldOp())
    entry.add_op(loop)
    entry.add_op(func_d.ReturnOp())
    from repro.dialects.builtin import ModuleOp
    return ModuleOp([fn]), loop, interesting


class TestLoopInvariantCodeMotion:
    def test_invariant_pure_op_is_hoisted(self):
        def build(body, iv, entry):
            c1 = arith.ConstantOp(2, T.i32)
            c2 = arith.ConstantOp(3, T.i32)
            entry.add_ops([c1, c2])
            invariant = arith.AddIOp(c1.result, c2.result)
            body.add_op(invariant)
            sink = memref.AllocaOp(T.MemRefType([], T.i32))
            entry.add_op(sink)
            body.add_op(memref.StoreOp(invariant.result, sink.results[0], []))
            return invariant

        module, loop, invariant = _loop_module(build)
        LoopInvariantCodeMotionPass().run(module)
        assert invariant.parent is not loop.body
        assert invariant.parent is loop.parent

    def test_impure_ops_are_not_hoisted(self):
        """Stores are loop-invariant by operand analysis here, but impure:
        hoisting one would change how many times memory is written."""
        def build(body, iv, entry):
            cell = memref.AllocaOp(T.MemRefType([], T.i32))
            value = arith.ConstantOp(7, T.i32)
            entry.add_ops([cell, value])
            store = memref.StoreOp(value.result, cell.results[0], [])
            body.add_op(store)
            return store

        module, loop, store = _loop_module(build)
        LoopInvariantCodeMotionPass().run(module)
        assert store.parent is loop.body

    def test_induction_dependent_ops_are_not_hoisted(self):
        def build(body, iv, entry):
            scaled = arith.MulIOp(iv, iv)
            body.add_op(scaled)
            cell = memref.AllocaOp(T.MemRefType([], T.index))
            entry.add_op(cell)
            body.add_op(memref.StoreOp(scaled.result, cell.results[0], []))
            return scaled

        module, loop, scaled = _loop_module(build)
        LoopInvariantCodeMotionPass().run(module)
        assert scaled.parent is loop.body

    def test_execution_equivalence(self):
        _run_pass_and_compare(
            SRC, "builtin.module(loop-invariant-code-motion)")


class TestForwardScalarStores:
    def _cell_with_store_load(self, between=()):
        fn = func_d.FuncOp("main", T.FunctionType((), ()))
        entry = fn.entry_block
        cell = memref.AllocaOp(T.MemRefType([], T.i32))
        value = arith.ConstantOp(11, T.i32)
        entry.add_ops([cell, value])
        entry.add_op(memref.StoreOp(value.result, cell.results[0], []))
        for op in between:
            entry.add_op(op)
        load = memref.LoadOp(cell.results[0], [])
        entry.add_op(load)
        # keep the loaded value live in a way no cleanup can eliminate
        sink = func_d.CallOp("consume", [load.results[0]], [])
        entry.add_op(sink)
        entry.add_op(func_d.ReturnOp())
        from repro.dialects.builtin import ModuleOp
        return ModuleOp([fn]), value, load, sink

    def test_store_forwards_to_load(self):
        module, value, load, sink = self._cell_with_store_load()
        ForwardScalarStoresPass().run(module)
        assert load.parent is None          # the load was folded away
        assert sink.operands[0] is value.result

    def test_intervening_call_blocks_forwarding(self):
        """A call may write any scalar passed by reference: the tracked
        value must be invalidated, not forwarded across the call."""
        call = func_d.CallOp("opaque", [], [])
        module, value, load, _ = self._cell_with_store_load(between=[call])
        ForwardScalarStoresPass().run(module)
        assert load.parent is not None      # load survives

    def test_region_op_blocks_forwarding(self):
        cond = arith.ConstantOp(True, T.i1)
        branch = scf.IfOp(cond.result)
        branch.then_block.add_op(scf.YieldOp())
        branch.else_block.add_op(scf.YieldOp())
        module, value, load, _ = self._cell_with_store_load(
            between=[cond, branch])
        ForwardScalarStoresPass().run(module)
        assert load.parent is not None

    def test_array_store_does_not_invalidate_scalar(self):
        array = memref.AllocaOp(T.MemRefType([4], T.i32))
        index = arith.ConstantOp(0, T.index)
        elem = arith.ConstantOp(5, T.i32)
        store = memref.StoreOp(elem.result, array.results[0], [index.result])
        module, value, load, _ = self._cell_with_store_load(
            between=[array, index, elem, store])
        ForwardScalarStoresPass().run(module)
        assert load.parent is None          # rank>0 store cannot alias rank-0

    def test_execution_equivalence(self):
        _run_pass_and_compare(SRC, "builtin.module(forward-scalar-stores)")


class TestConversions:
    def test_linalg_to_loops(self):
        module = standard_module(SRC)
        PassManager.from_pipeline("builtin.module(convert-linalg-to-loops)").run(module)
        names = {op.name for op in module.walk()}
        assert not any(n.startswith("linalg.") for n in names)
        assert "scf.for" in names

    def test_scf_to_openmp(self):
        module = ours_module(SRC, vector_width=0, threads=2)
        names = {op.name for op in module.walk()}
        assert "omp.parallel" in names

    def test_section_argument_reads_through_a_subview(self):
        src = """
subroutine total(v, t)
  implicit none
  real(kind=8), dimension(3), intent(in) :: v
  real(kind=8), intent(out) :: t
  t = v(1) + v(2) + v(3)
end subroutine total

program p
  implicit none
  real(kind=8), dimension(10) :: a
  real(kind=8) :: t
  integer :: i
  do i = 1, 10
    a(i) = real(i, 8)
  end do
  call total(a(4:6), t)
  print *, t
end program p
"""
        assert last_value(run_ours(src)) == pytest.approx(4.0 + 5.0 + 6.0)
        assert last_value(run_flang(src)) == pytest.approx(15.0)
