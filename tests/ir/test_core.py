"""Unit tests for the IR core: values, operations, blocks, regions."""

import pytest

from repro.dialects import arith, func as func_d, scf
from repro.dialects.builtin import ModuleOp
from repro.ir import (Block, IRError, Region, VerificationError,
                      create_operation, print_op, verify_operation)
from repro.ir import types as T
from repro.frontend import lower_to_hlfir
from repro.ir.attributes import IntegerAttr

from ..conftest import flang_module, ours_module


def make_add_block():
    block = Block()
    c1 = arith.ConstantOp(1, T.i32)
    c2 = arith.ConstantOp(2, T.i32)
    add = arith.AddIOp(c1.result, c2.result)
    block.add_ops([c1, c2, add])
    return block, c1, c2, add


class TestValuesAndUses:
    def test_operation_results_register_uses(self):
        _, c1, c2, add = make_add_block()
        assert c1.result.num_uses == 1
        assert c2.result.num_uses == 1
        assert add.result.num_uses == 0

    def test_replace_all_uses_with(self):
        block, c1, c2, add = make_add_block()
        c3 = arith.ConstantOp(5, T.i32)
        block.insert_op_at(0, c3)
        c1.result.replace_all_uses_with(c3.result)
        assert c1.result.num_uses == 0
        assert add.operands[0] is c3.result

    def test_set_operand_updates_use_lists(self):
        _, c1, c2, add = make_add_block()
        add.set_operand(1, c1.result)
        assert c2.result.num_uses == 0
        assert c1.result.num_uses == 2

    def test_erase_with_live_uses_raises(self):
        _, c1, _, _ = make_add_block()
        with pytest.raises(IRError):
            c1.erase()

    def test_erase_unused_op(self):
        block, *_ , add = make_add_block()
        add.erase()
        assert add not in block.ops


class TestBlocksAndRegions:
    def test_block_argument_types(self):
        block = Block(arg_types=[T.i32, T.f64])
        assert [a.type for a in block.args] == [T.i32, T.f64]
        assert block.args[0].index == 0

    def test_insert_before_and_after(self):
        block, c1, c2, add = make_add_block()
        c3 = arith.ConstantOp(3, T.i32)
        block.insert_before(add, c3)
        assert block.ops.index(c3) == block.ops.index(add) - 1

    def test_terminator_detection(self):
        block = Block()
        block.add_op(func_d.ReturnOp())
        assert block.terminator is not None
        assert block.terminator.name == "func.return"

    def test_region_entry_block(self):
        region = Region([Block(), Block()])
        assert region.entry_block is region.blocks[0]
        with pytest.raises(IRError):
            _ = region.block  # more than one block

    def test_parent_links(self):
        module = ModuleOp()
        fn = func_d.FuncOp("f", T.FunctionType([], []))
        module.add(fn)
        assert fn.parent is module.body
        assert fn.parent_op() is module


class TestCloning:
    def test_clone_preserves_structure(self):
        fn = func_d.FuncOp("f", T.FunctionType([T.i32], []))
        block = fn.entry_block
        c = arith.ConstantOp(4, T.i32)
        add = arith.AddIOp(block.args[0], c.result)
        block.add_ops([c, add, func_d.ReturnOp()])
        clone = fn.clone()
        assert clone is not fn
        assert len(clone.entry_block.ops) == 3
        # cloned ops reference cloned values, not the originals
        cloned_add = clone.entry_block.ops[1]
        assert cloned_add.operands[0] is clone.entry_block.args[0]
        assert cloned_add.operands[0] is not block.args[0]

    def test_clone_remaps_nested_regions(self):
        cond = arith.ConstantOp(True, T.i1)
        if_op = scf.IfOp(cond.result)
        inner = arith.ConstantOp(7, T.i32)
        if_op.then_block.add_op(inner)
        if_op.then_block.add_op(scf.YieldOp())
        if_op.else_block.add_op(scf.YieldOp())
        clone = if_op.clone()
        assert clone.then_block is not if_op.then_block
        assert len(clone.then_block.ops) == 2


class TestWalkAndVerify:
    def test_walk_visits_nested_ops(self, simple_program_source):
        module = lower_to_hlfir(simple_program_source)
        names = [op.name for op in module.walk()]
        assert "builtin.module" in names
        assert "fir.do_loop" in names
        assert "hlfir.declare" in names

    def test_verifier_accepts_valid_module(self, conditional_source):
        module = lower_to_hlfir(conditional_source)
        verify_operation(module)

    def test_verifier_rejects_use_before_def(self):
        block = Block()
        c = arith.ConstantOp(1, T.i32)
        add = arith.AddIOp(c.result, c.result)
        # insert the add before its operand definition
        block.add_op(add)
        block.add_op(c)
        module = create_operation("builtin.module", regions=[Region([block])])
        with pytest.raises(VerificationError):
            verify_operation(module)

    def test_printer_round_trips_op_names(self):
        block, *_ = make_add_block()
        module = create_operation("builtin.module", regions=[Region([block])])
        text = print_op(module)
        assert '"arith.addi"' in text
        assert text.count("arith.constant") == 2

    def test_create_operation_uses_registered_class(self):
        op = create_operation("arith.constant", result_types=[T.i32],
                              attributes={"value": IntegerAttr(3, T.i32)})
        assert isinstance(op, arith.ConstantOp)


class TestDropReferences:
    def test_a_dropped_module_is_freed_by_reference_count_alone(
            self, simple_program_source):
        # IR is cyclic (op <-> results, value <-> users, block <-> ops,
        # region <-> owner): without drop_references a dead module waits
        # for the cycle collector, with it the last name frees everything
        import gc
        import weakref
        module = ours_module(simple_program_source)
        innermost = max(module.walk(),
                        key=lambda op: sum(1 for _ in op.ancestors()))
        assert innermost.results and innermost.parent is not None
        refs = [weakref.ref(module), weakref.ref(innermost)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            module.drop_references()
            assert all(ref() is not None for ref in refs)
            del module, innermost
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_an_executed_module_is_freed_too(self, simple_program_source):
        # executing leaves the jit's instantiation records on the blocks;
        # they go with the block
        import gc
        import weakref
        from repro.machine import Interpreter
        module = flang_module(simple_program_source)
        interp = Interpreter(module, engine="jit")
        for function in interp.functions.values():
            for block in function.regions[0].blocks:
                interp._jit.source_for(block)
        interp.run_main()
        alive = weakref.ref(module)
        # the interpreter is itself cyclic (bound dispatch method): take it
        # apart by hand so only the module's own cycles are under test
        interp.__dict__.clear()
        enabled = gc.isenabled()
        gc.disable()
        try:
            module.drop_references()
            del module, interp, function, block
            assert alive() is None
        finally:
            if enabled:
                gc.enable()
