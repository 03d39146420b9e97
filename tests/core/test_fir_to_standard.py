"""Tests for the paper's core contribution: the HLFIR/FIR -> standard MLIR
mapping (Section V) and its supporting passes."""

import pytest

from repro.core import (convert_fir_to_standard,
                        fixup_branches, wrap_in_alloca_scope)
from repro.dialects import cf, dialects_used, fir, tmpbr, uses_only_standard_dialects
from repro.dialects import func as func_d
from repro.dialects.builtin import ModuleOp
from repro.ir import Block, Region
from repro.ir import types as T
from repro.frontend import lower_to_hlfir
from repro.ir.printer import print_op
from repro.machine import Interpreter

from ..conftest import compile_source, last_value, run_flang, run_ours


def lower(source: str) -> ModuleOp:
    hlfir = lower_to_hlfir(source)
    return convert_fir_to_standard(hlfir)


class TestControlStructures:
    def test_conditional_matches_paper_listing3(self, conditional_source):
        """Listing 3: intent(in) scalar passed by value, scf.if with yields."""
        module = lower(conditional_source)
        text = print_op(module)
        assert '"scf.if"' in text
        assert '"scf.yield"' in text
        assert "fir." not in text and "hlfir." not in text
        solver = module.lookup_symbol("_QPrun_solver")
        # the intent(in) argument becomes a plain i32, by value
        assert solver.function_type.inputs[0] == T.i32

    def test_forward_do_loop_becomes_scf_for(self, simple_program_source):
        module = lower(simple_program_source)
        names = {op.name for op in module.walk()}
        assert "scf.for" in names
        assert "fir.do_loop" not in names

    def test_negative_step_loop_reverses_bounds(self):
        src = """
program p
  implicit none
  integer :: i
  real(kind=8), dimension(16) :: v
  real(kind=8) :: t
  do i = 1, 16
    v(i) = real(i, 8)
  end do
  t = 0.0d0
  do i = 16, 1, -1
    t = t + v(i) * real(i, 8)
  end do
  print *, t
end program p
"""
        module = lower(src)
        assert uses_only_standard_dialects(module)
        # semantics preserved: both flows agree
        assert last_value(run_flang(src)) == pytest.approx(last_value(run_ours(src)))

    def test_unknown_step_sign_emits_runtime_check(self):
        src = """
subroutine strided(n, s, v, total)
  implicit none
  integer, intent(in) :: n, s
  real(kind=8), dimension(n), intent(in) :: v
  real(kind=8), intent(out) :: total
  integer :: i
  total = 0.0d0
  do i = 1, n, s
    total = total + v(i)
  end do
end subroutine strided
"""
        module = lower(src)
        text = print_op(module)
        # a runtime scf.if selects between the forward and reversed loops
        assert text.count('"scf.for"') >= 2
        assert '"scf.if"' in text

    def test_do_while_becomes_scf_while(self):
        src = """
program p
  implicit none
  integer :: i
  i = 1
  do while (i < 10)
    i = i * 2
  end do
  print *, i
end program p
"""
        module = lower(src)
        names = {op.name for op in module.walk()}
        assert "scf.while" in names
        assert "fir.iterate_while" not in names
        assert last_value(run_flang(src)) == last_value(run_ours(src)) == 16.0

    def test_exit_preserves_do_variable(self):
        """F2018 11.1.7.4.3: the do-variable keeps its value at the moment
        of EXIT, not the loop's normal-completion value."""
        src = """
program p
  implicit none
  integer :: i
  do i = 1, 10
    if (i == 3) then
      exit
    end if
  end do
  print *, i
end program p
"""
        assert last_value(run_flang(src)) == last_value(run_ours(src)) == 3.0

    def test_i64_reductions_outside_i32_range(self):
        """Reduction sentinels follow the element width: i64 maxval/minval
        below i32 range must not return the i32 sentinel (both the linalg
        init and the vectorised accumulator paths)."""
        src = """
program p
  implicit none
  integer(kind=8) :: m, big(8)
  integer :: i
  m = 100000
  m = m * 100000 * (-3)
  do i = 1, 8
    big(i) = m - i
  end do
  print *, maxval(big), minval(big)
end program p
"""
        for interp in (run_flang(src), run_ours(src),
                       run_ours(src, vector_width=0)):
            values = [float(tok) for tok in interp.printed[-1].split()]
            assert values == [-30000000001.0, -30000000008.0]

    def test_exit_loop_preserves_semantics(self):
        """EXIT from inside a nested IF block desugars to a flag-guarded
        loop in semantics, giving exact Fortran semantics on every flow."""
        src = """
program p
  implicit none
  integer :: i, found
  real(kind=8), dimension(50) :: v
  do i = 1, 50
    v(i) = real(i, 8)
  end do
  found = 0
  do i = 1, 50
    if (v(i) > 20.5d0) then
      found = i
      exit
    end if
  end do
  print *, found
end program p
"""
        assert last_value(run_flang(src)) == last_value(run_ours(src)) == 21.0

    def test_branch_fixup_rewrites_tmpbr(self):
        """The intermediate branch dialect of Section V-A is replaced by cf."""
        func = func_d.FuncOp("f", T.FunctionType([], []))
        entry = func.entry_block
        second = Block()
        func.body.add_block(second)
        entry.add_op(tmpbr.BrOp(1))
        second.add_op(func_d.ReturnOp())
        rewritten = fixup_branches(func)
        assert rewritten == 1
        assert entry.terminator.name == "cf.br"
        assert entry.terminator.successors[0] is second


    def test_unstructured_branches_survive_the_mapping_on_every_engine(self):
        """Section V-A end to end: a FIR function whose blocks are joined by
        a forward ``cf.br``, a ``cf.cond_br`` to two later blocks and a back
        edge (the frontend itself never emits one) goes through ``tmpbr``
        and the fix-up, and still sums 0..19."""
        from repro.dialects import arith
        from repro.service.serialization import stats_to_dict

        main = func_d.FuncOp("_QQmain", T.FunctionType([], []))
        entry = main.entry_block
        head, body, done = (Block(arg_types=[T.i32, T.i32]),
                            Block(arg_types=[T.i32, T.i32]),
                            Block(arg_types=[T.i32]))
        for block in (head, body, done):
            main.body.add_block(block)

        def emit(block, op):
            block.add_op(op)
            return op.results[0] if op.results else None

        zero = emit(entry, arith.ConstantOp(0, T.i32))
        one = emit(entry, arith.ConstantOp(1, T.i32))
        bound = emit(entry, arith.ConstantOp(20, T.i32))
        entry.add_op(cf.BranchOp(head, [zero, zero]))
        i, total = head.args
        more = emit(head, arith.CmpIOp("slt", i, bound))
        head.add_op(cf.CondBranchOp(more, body, done, [i, total], [total]))
        i, total = body.args
        summed = emit(body, arith.AddIOp(total, i))
        following = emit(body, arith.AddIOp(i, one))
        body.add_op(cf.BranchOp(head, [following, summed]))
        done.add_op(fir.CallOp("_FortranAioOutput", [done.args[0]]))
        done.add_op(func_d.ReturnOp())

        standard = convert_fir_to_standard(ModuleOp([main]))
        names = [op.name for op in standard.walk()]
        assert not any(name.startswith("tmpbr.") for name in names)
        assert names.count("cf.br") == 2 and names.count("cf.cond_br") == 1
        assert uses_only_standard_dialects(standard)

        observed = {}
        for engine in ("reference", "compiled", "jit", "vector"):
            interp = Interpreter(standard, engine=engine)
            interp.run_main()
            observed[engine] = (interp.printed, stats_to_dict(interp.stats))
        assert observed["reference"][0] == [str(sum(range(20)))]
        assert all(seen == observed["reference"]
                   for seen in observed.values())


class TestMemoryMapping:
    def test_scalar_becomes_rank0_memref(self):
        module = lower("""
program p
  implicit none
  integer :: i
  i = 23
  print *, i
end program p
""")
        text = print_op(module)
        assert "memref<i32>" in text
        assert '"memref.alloca"' in text
        assert '"memref.store"' in text

    def test_allocatable_becomes_memref_of_memref(self):
        """Listing 7: outer stack memref containing the heap-allocated memref."""
        module = lower("""
program p
  implicit none
  integer, dimension(:), allocatable :: data
  allocate(data(10))
  data(2) = 100
end program p
""")
        text = print_op(module)
        assert "memref<memref<?xi32>>" in text
        assert '"memref.alloc"' in text
        assert '"memref.dealloc"' not in text  # no deallocate statement

    def test_one_based_index_rebasing(self):
        """Listing 7 lines 6-11: subtraction of the lower bound before access."""
        module = lower("""
program p
  implicit none
  integer, dimension(:), allocatable :: data
  allocate(data(10))
  data(2) = 100
end program p
""")
        text = print_op(module)
        assert '"arith.subi"' in text

    def test_static_array_uses_static_memref(self, simple_program_source):
        module = lower(simple_program_source)
        text = print_op(module)
        assert "memref<8x8xf64>" in text

    def test_explicit_shape_dummy_becomes_dynamic_memref(self):
        module = lower("""
subroutine fill(n, v)
  implicit none
  integer, intent(in) :: n
  real(kind=8), dimension(n), intent(inout) :: v
  integer :: i
  do i = 1, n
    v(i) = 1.0d0
  end do
end subroutine fill
""")
        fn = module.lookup_symbol("_QPfill")
        assert fn.function_type.inputs[0] == T.i32
        arg1 = fn.function_type.inputs[1]
        assert isinstance(arg1, T.MemRefType) and not arg1.has_static_shape()

    def test_array_section_becomes_subview(self):
        module = lower("""
subroutine consume(v, t)
  implicit none
  real(kind=8), dimension(4), intent(in) :: v
  real(kind=8), intent(out) :: t
  t = v(1) + v(4)
end subroutine consume

program p
  implicit none
  real(kind=8), dimension(10, 10) :: a
  real(kind=8) :: t
  a(3, 5) = 7.0d0
  call consume(a(2:5, 5), t)
  print *, t
end program p
""")
        names = {op.name for op in module.walk()}
        assert "memref.subview" in names

    def test_deallocate_becomes_memref_dealloc(self):
        module = lower("""
program p
  implicit none
  real(kind=8), dimension(:), allocatable :: x
  allocate(x(4))
  deallocate(x)
end program p
""")
        names = {op.name for op in module.walk()}
        assert "memref.dealloc" in names

    def test_derived_type_split_into_member_memrefs(self):
        module = lower("""
program p
  implicit none
  type :: config
    integer :: steps
    real(kind=8) :: dt
  end type config
  type(config) :: c
  c%steps = 10
  c%dt = 0.5d0
  print *, c%dt
end program p
""")
        text = print_op(module)
        # one memref per member, no fir record types remaining
        assert text.count('"memref.alloca"') >= 2
        assert "fir.type" not in text

    def test_alloca_scope_wrapping(self):
        module = lower("""
program p
  implicit none
  real(kind=8), dimension(8) :: v
  v(1) = 1.0d0
end program p
""")
        func = module.functions()[0]
        assert wrap_in_alloca_scope(func)
        names = [op.name for op in func.entry_block.ops]
        assert names[0] == "memref.alloca_scope"


class TestIntrinsicsToLinalg:
    def test_sum_lowered_per_listing8(self):
        """Listing 8: 0-d output memref initialised then linalg.reduce."""
        module = lower("""
program p
  implicit none
  real(kind=8), dimension(16) :: v
  real(kind=8) :: t
  v(1) = 3.0d0
  t = sum(v)
  print *, t
end program p
""")
        text = print_op(module)
        assert '"linalg.reduce"' in text
        assert '"linalg.yield"' in text
        assert "memref<f64>" in text

    def test_matmul_transpose_dotproduct_lowered_to_linalg(self):
        module = lower("""
program p
  implicit none
  real(kind=8), dimension(8, 8) :: a, b, c, d
  real(kind=8), dimension(8) :: x, y
  real(kind=8) :: t
  a(1, 1) = 1.0d0
  b(1, 1) = 2.0d0
  x(1) = 1.0d0
  y(1) = 4.0d0
  c = matmul(a, b)
  d = transpose(c)
  t = dot_product(x, y) + maxval(d)
  print *, t
end program p
""")
        names = {op.name for op in module.walk()}
        assert {"linalg.matmul", "linalg.transpose", "linalg.dot",
                "linalg.reduce"} <= names
        assert not any(n.startswith("hlfir.") for n in names)

    def test_intrinsic_results_match_flang_runtime(self):
        src = """
program p
  implicit none
  integer, parameter :: n = 12
  real(kind=8), dimension(n, n) :: a, b, c
  real(kind=8), dimension(n) :: x, y
  real(kind=8) :: t
  integer :: i, j
  do j = 1, n
    do i = 1, n
      a(i, j) = 1.0d0 / real(i + j, 8)
      b(i, j) = real(i - j, 8) * 0.25d0
    end do
  end do
  do i = 1, n
    x(i) = real(i, 8)
    y(i) = 1.0d0 / real(i, 8)
  end do
  c = matmul(a, b)
  t = sum(c) + dot_product(x, y) + maxval(a) + minval(b) + product(x(1:3))
  print *, t
end program p
"""
        assert last_value(run_flang(src)) == pytest.approx(last_value(run_ours(src)),
                                                           rel=1e-10)


class TestWholeFlow:
    def test_no_flang_dialects_remain(self, simple_program_source):
        module = lower(simple_program_source)
        assert uses_only_standard_dialects(module)

    def test_compiler_driver_stages(self, simple_program_source):
        result = compile_source("ours", simple_program_source,
                                stages=("hlfir", "standard"))
        assert "hlfir" in dialects_used(result.kept_stage("hlfir"))
        assert uses_only_standard_dialects(result.kept_stage("standard"))
        assert result.module is result.stages["optimised"]
        assert "affine" in dialects_used(result.module) or \
               "scf" in dialects_used(result.module)
        assert result.pipeline.startswith(
            "builtin.module(convert-fir-to-standard,func.func(")

    def test_intermediate_stages_are_kept_only_on_request(
            self, simple_program_source):
        from repro.flows import FlowError
        kept = compile_source("ours", simple_program_source,
                              stages=("standard",))
        plain = compile_source("ours", simple_program_source)
        assert plain.stage_names == kept.stage_names
        assert plain.stages["hlfir"] is plain.stages["standard"] is None
        assert kept.stages["hlfir"] is None
        assert kept.stages["standard"] is not None
        # a snapshot that was not taken is an error that says what to pass,
        # never a silent None
        with pytest.raises(FlowError, match=r"stages=\('hlfir',\)"):
            plain.kept_stage("hlfir")
        with pytest.raises(FlowError, match=r"stages=\('standard',\)"):
            plain.kept_stage("standard")
        # and the final IR does not depend on what was kept
        assert print_op(plain.module) == print_op(kept.module)

    def test_in_place_pass_erases_what_it_replaces(self,
                                                   simple_program_source):
        """The pass form swaps the module's contents: the old top-level ops
        must end up erased (``parent is None`` is what every pattern driver
        reads as "gone"), not merely dropped from the list."""
        from repro.core import ConvertFirToStandardPass
        module = lower_to_hlfir(simple_program_source)
        replaced = list(module.body.ops)
        nested = [op for top in replaced for op in top.walk()]
        ConvertFirToStandardPass().run(module)
        assert all(op.parent is None for op in nested)
        assert module.body.ops and \
            all(op.parent is module.body for op in module.body.ops)
        assert not set(replaced) & set(module.body.ops)
        assert print_op(module) == print_op(lower(simple_program_source))
