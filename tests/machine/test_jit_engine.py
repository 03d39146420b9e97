"""Trace-compiling jit engine corners.

The registry-wide parity suite (``test_engine_parity``) covers the broad
guarantee; these tests target the jit's *generator* mechanics specifically:
loop-body inlining (upward, downward, runtime-sign and zero-trip loops),
structured-if inlining with results, fallback thunks embedded inside
generated loops (calls, runtime intrinsics), env-residency of values that
cross the generated/fallback boundary, and the execution limit firing from
inside an inlined loop.
"""

import pytest

from repro.machine import ExecutionLimitExceeded, Interpreter
from repro.service.serialization import stats_to_dict

from ..conftest import flang_module as _compile_fir
from ..conftest import ours_module as _compile_ours


def _assert_jit_identical(module):
    reference = Interpreter(module, engine="reference")
    reference.run_main()
    jit = Interpreter(module, engine="jit")
    jit.run_main()
    assert jit.printed == reference.printed
    assert stats_to_dict(jit.stats) == stats_to_dict(reference.stats)
    return jit


def _program(body: str) -> str:
    return f"program p\n  implicit none\n{body}\nend program p\n"


class TestLoopInlining:
    def test_upward_do_loop_with_reduction(self):
        source = _program("""
  integer :: i
  real(kind=8) :: total
  total = 0.0d0
  do i = 1, 100
    total = total + real(i, 8)
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert jit.printed[-1].strip() == "5050.0"

    def test_downward_do_loop_negative_step(self):
        source = _program("""
  integer :: i, total
  total = 0
  do i = 10, 1, -1
    total = total + i
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert jit.printed[-1].strip() == "55"

    def test_zero_trip_loop(self):
        source = _program("""
  integer :: i, total
  total = 7
  do i = 5, 1
    total = total + 1000
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert jit.printed[-1].strip() == "7"

    def test_runtime_step_sign(self):
        """A step held in a variable: the jit cannot specialize the loop
        direction at generate time and must pick it at run time."""
        source = _program("""
  integer :: i, st, total
  total = 0
  st = -2
  do i = 9, 1, st
    total = total + i
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert jit.printed[-1].strip() == "25"

    def test_nested_loops_with_array_accesses(self):
        source = _program("""
  integer :: i, j
  real(kind=8), dimension(8, 8) :: a
  real(kind=8) :: total
  total = 0.0d0
  do j = 1, 8
    do i = 1, 8
      a(i, j) = real(i * j, 8)
    end do
  end do
  do j = 1, 8
    do i = 1, 8
      total = total + a(i, j)
    end do
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            _assert_jit_identical(module)


class TestStructuredIfInlining:
    def test_if_else_inside_loop(self):
        source = _program("""
  integer :: i, evens, odds
  evens = 0
  odds = 0
  do i = 1, 20
    if (mod(i, 2) == 0) then
      evens = evens + 1
    else
      odds = odds + 1
    end if
  end do
  print *, evens, odds
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert jit.printed[-1].split() == ["10", "10"]

    def test_untaken_arm_loop_hoist_does_not_leak(self):
        """Regression: a loop inside an if-arm hoists env reads into the
        arm-local preheader; values registered there must not shadow env
        reads emitted *after* the if, or the untaken-arm path crashes with
        UnboundLocalError."""
        source = """
subroutine work(flag, x)
  implicit none
  integer, intent(in) :: flag
  integer, intent(inout) :: x
  integer :: i
  if (flag > 0) then
    do i = 1, 3
      x = x + i
    end do
  end if
  x = x + 1
end subroutine work

program p
  implicit none
  integer :: x
  x = 1
  call work(0, x)
  print *, x
  call work(1, x)
  print *, x
end program p
"""
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert [line.strip() for line in jit.printed] == ["2", "9"]

    def test_conditional_exit_falls_back_cleanly(self):
        """EXIT desugars to guarded control flow; whatever shape the flows
        produce, the jit must stay bit-identical to the reference."""
        source = _program("""
  integer :: i, total
  total = 0
  do i = 1, 100
    total = total + i
    if (total > 50) then
      exit
    end if
  end do
  print *, i, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            _assert_jit_identical(module)


class TestFallbackInsideGeneratedCode:
    def test_call_inside_inlined_loop(self):
        """func.call is a fallback thunk; its operands/results must cross
        the generated-code boundary through env."""
        source = """
subroutine double_it(x, y)
  implicit none
  integer, intent(in) :: x
  integer, intent(out) :: y
  y = 2 * x
end subroutine double_it

program p
  implicit none
  integer :: i, r, total
  total = 0
  do i = 1, 10
    call double_it(i, r)
    total = total + r
  end do
  print *, total
end program p
"""
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert jit.printed[-1].strip() == "110"

    def test_intrinsic_reduction_inside_loop(self):
        source = _program("""
  integer :: i
  real(kind=8), dimension(16) :: v
  real(kind=8) :: total
  total = 0.0d0
  do i = 1, 16
    v(i) = real(i, 8)
  end do
  do i = 1, 4
    total = total + sum(v)
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            _assert_jit_identical(module)


class TestGeneratorMechanics:
    def test_loop_bodies_are_inlined_as_while_loops(self):
        source = _program("""
  integer :: i
  real(kind=8) :: total
  total = 0.0d0
  do i = 1, 50
    total = total + real(i, 8)
  end do
  print *, total
""")
        module = _compile_fir(source)
        jit = Interpreter(module, engine="jit")
        jit.run_main()
        sources = [jit._jit.source_for(block) for block in jit._jit.cache]
        assert any("while " in text for text in sources)
        # deferred stats: counters are integer locals flushed via _ctx_counts
        assert any("_ctx_counts" in text for text in sources)

    def test_affine_and_vector_ops_are_translated_end_to_end(self):
        """A vectorised ``ours`` inner loop runs as generated code only:
        affine maps are inlined as expressions over operand locals, loop
        bounds are literals, and none of the affine / vector-dialect ops
        drops to a fallback thunk."""
        from repro.machine import jit as machine_jit
        source = _program("""
  integer :: i, j
  real(kind=8), dimension(11, 6) :: a, b
  real(kind=8), dimension(11) :: x
  real(kind=8) :: total
  do j = 1, 6
    do i = 1, 11
      a(i, j) = 1.5d0
    end do
  end do
  do j = 2, 5
    do i = 2, 10
      b(i, j) = a(i + 1, j - 1)
    end do
  end do
  do i = 1, 11
    x(i) = real(i, 8)
  end do
  total = dot_product(x, x)
  print *, total, b(2, 2), b(10, 5)
""")
        module = _compile_ours(source)
        jit = _assert_jit_identical(module)
        translated = {"affine.load", "affine.store", "affine.for",
                      "vector.load", "vector.store", "vector.broadcast",
                      "vector.reduction"}
        present = {op.name for op in module.walk()} & translated
        assert {"affine.load", "affine.for", "vector.load", "vector.store",
                "vector.broadcast", "vector.reduction"} <= present
        # the kernel is small enough for the tiering to keep it on cached
        # dispatch: translate the blocks that hold the outermost loops
        outer = {op.parent for op in module.walk()
                 if op.name == "affine.for"
                 and op.parent.parent.parent.name != "affine.for"}
        sources = []
        for block in outer:
            sources.append(jit._jit.source_for(block))
            record = machine_jit._instantiation_for(
                block, jit._check_stride)
            fallbacks = {op.name for _, op in record.fallback_binds}
            assert not fallbacks & translated, fallbacks
            # no map object is bound into the generated function either
            assert not any(name.startswith("_m") for name in record.template)
        text = "\n".join(sources)
        assert ".evaluate(" not in text
        assert "_vload(" in text and "_vstore(" in text
        assert "in range(1, 9, 4):" in text         # literal loop bounds

    def test_unsupported_reduction_kind_fails_when_executed(self):
        # "and" is a legal vector.reduction kind no engine implements: it
        # translates (as a fallback) and raises only where the reference
        # engine raises — when the op runs
        from repro.dialects import arith, func, vector
        from repro.dialects.builtin import ModuleOp
        from repro.ir import types as T
        main = func.FuncOp("_QQmain", T.FunctionType([], []))
        block = main.regions[0].blocks[0]
        one = arith.ConstantOp(1.0, T.f64)
        lanes = vector.BroadcastOp(T.VectorType([4], T.f64), one.results[0])
        for op in (one, lanes, vector.ReductionOp("and", lanes.results[0]),
                   func.ReturnOp()):
            block.add_op(op)
        module = ModuleOp([main])
        jit = Interpreter(module, engine="jit")
        assert "_vbcast(" in jit._jit.source_for(block)
        for engine in ("reference", "compiled", "jit"):
            with pytest.raises(KeyError):
                Interpreter(module, engine=engine).run_main()

    def test_engine_name_is_validated(self):
        from repro.dialects.builtin import ModuleOp
        with pytest.raises(Exception):
            Interpreter(ModuleOp([]), engine="turbo")

    def test_execution_limit_fires_inside_inlined_loop(self):
        source = _program("""
  integer :: i
  real(kind=8) :: total
  total = 0.0d0
  do i = 1, 100000
    total = total + 1.0d0
  end do
  print *, total
""")
        module = _compile_fir(source)
        interp = Interpreter(module, max_ops=200, engine="jit")
        with pytest.raises(ExecutionLimitExceeded):
            interp.run_main()

    def test_parallel_context_stats_survive_stride_flushes(self):
        """Regression: a unit whose last inlined-loop iteration lands exactly
        on a stride-check boundary exits with ``_t == 0``; the exit flush
        must still move the accumulated category counters into the (parallel)
        context Counter.  Caught by table4 regeneration diverging on jit."""
        from repro.flows import get_flow
        from repro.workloads import get_workload

        workload = get_workload("pw-advection", openmp=True)
        module = get_flow("flang").run(workload).module
        _assert_jit_identical(module)

    def test_division_semantics_inside_generated_loops(self):
        """divsi/remsi corners run through generated code, not thunks."""
        source = _program("""
  integer :: i, q, r
  do i = -3, 3
    q = i / 2
    r = mod(i, 2)
    print *, q, r
  end do
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
        # spot-check LLVM trunc semantics on the last flow's output
        assert jit.printed[0].split() == ["-1", "-1"]
