"""Whole-array vector engine corners.

The registry-wide parity suite (``test_engine_parity``) covers the broad
guarantee; these tests target the vector engine's *matcher and evaluator*
mechanics specifically: analytic stats bit-equality on zero-trip,
negative-step and runtime-bound loops, per-nest runtime fallback (hazards
detected at evaluation time must re-run the nest iteratively without
observable difference), the loop-carried-dependence declines that keep
read-modify-write nests off the whole-array path, and the match/run
accounting the examples demo reports.
"""

import pytest

from repro.machine import ExecutionLimitExceeded, Interpreter
from repro.service.serialization import stats_to_dict

from ..conftest import flang_module as _compile_fir
from ..conftest import ours_module as _compile_ours


def _assert_vector_identical(module):
    reference = Interpreter(module, engine="reference")
    reference.run_main()
    vec = Interpreter(module, engine="vector")
    vec.run_main()
    assert vec.printed == reference.printed
    assert stats_to_dict(vec.stats) == stats_to_dict(reference.stats)
    return vec


def _program(body: str) -> str:
    return f"program p\n  implicit none\n{body}\nend program p\n"


class TestAnalyticStats:
    """The synthesized ExecutionStats must be bit-identical to iterating."""

    def test_elementwise_nest(self):
        source = _program("""
  integer :: i
  real(kind=8), dimension(64) :: a, b
  do i = 1, 64
    a(i) = real(i, 8)
  end do
  do i = 1, 64
    b(i) = a(i) * 2.0d0 + 1.0d0
  end do
  print *, b(1), b(64)
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            _assert_vector_identical(module)

    def test_zero_trip_loop(self):
        source = _program("""
  integer :: i
  real(kind=8), dimension(8) :: a
  a = 3.0d0
  do i = 5, 1
    a(i) = 1000.0d0
  end do
  print *, a(1)
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            vec = _assert_vector_identical(module)
            assert vec.printed[-1].strip() == "3.0"

    def test_negative_step_loop(self):
        source = _program("""
  integer :: i
  real(kind=8), dimension(16) :: a
  do i = 16, 1, -1
    a(i) = real(i * i, 8)
  end do
  print *, a(1), a(16)
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            _assert_vector_identical(module)

    def test_runtime_bound_loop(self):
        """Bounds held in variables: trip counts are only known when the
        nest runs, so the analytic stats must come from runtime values."""
        source = _program("""
  integer :: i, n
  real(kind=8), dimension(32) :: a
  real(kind=8) :: total
  n = 27
  total = 0.0d0
  do i = 1, n
    a(i) = real(i, 8) * 0.5d0
  end do
  do i = 1, n
    total = total + a(i)
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            _assert_vector_identical(module)

    def test_nested_stencil(self):
        source = _program("""
  integer :: i, j
  real(kind=8), dimension(12, 12) :: a, b
  do j = 1, 12
    do i = 1, 12
      a(i, j) = real(i + j, 8)
    end do
  end do
  b = 0.0d0
  do j = 2, 11
    do i = 2, 11
      b(i, j) = 0.25d0 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
    end do
  end do
  print *, b(2, 2), b(11, 11)
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            _assert_vector_identical(module)


class TestFallback:
    """Nests the matcher admits but the evaluator must decline at runtime
    (or bodies the matcher declines outright) run iteratively — with
    observables bit-identical to the reference engine either way."""

    def test_fallback_inside_nest_stats(self):
        """A call in the loop body keeps the nest off the whole-array path;
        the surrounding block still runs under the vector engine and the
        stats must not drift."""
        source = _program("""
  integer :: i
  real(kind=8), dimension(16) :: a
  real(kind=8) :: s
  do i = 1, 16
    a(i) = sqrt(real(i, 8))
  end do
  s = 0.0d0
  do i = 1, 16
    s = s + a(i)
  end do
  print *, s
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            _assert_vector_identical(module)

    def test_scalar_accumulation_under_outer_loop(self):
        """Regression: a scalar cell initialised in the outer body and
        accumulated in the inner loop (``s = s + a(i)``) is a loop-carried
        dependence — broadcast evaluation once produced exactly half the
        correct sum."""
        source = _program("""
  integer :: i, k
  real(kind=8), dimension(8) :: a
  real(kind=8) :: s
  do i = 1, 8
    a(i) = real(i, 8)
  end do
  do k = 1, 2
    s = 0.0d0
    do i = 1, 8
      s = s + a(i)
    end do
    print *, s
  end do
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            vec = _assert_vector_identical(module)
            assert vec.printed[-1].strip() == "36.0"

    def test_array_read_modify_write_under_outer_loop(self):
        """Regression: an inner nest updating ``a(i) = a(i) + ...`` re-run
        by an outer loop must not read pre-nest memory for every outer
        iteration — the store pattern does not span the full nest space."""
        source = _program("""
  integer :: i, k
  real(kind=8), dimension(8) :: a
  a = 1.0d0
  do k = 1, 3
    do i = 1, 8
      a(i) = a(i) + real(k, 8)
    end do
  end do
  print *, a(1), a(8)
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            vec = _assert_vector_identical(module)
            assert vec.printed[-1].strip().split()[0] == "7.0"


class TestEngineMechanics:
    def test_match_and_run_accounting(self):
        source = _program("""
  integer :: i
  real(kind=8), dimension(64) :: a
  do i = 1, 64
    a(i) = real(i, 8) * 2.0d0
  end do
  print *, a(64)
""")
        vec = _assert_vector_identical(_compile_fir(source))
        engine = vec._vector
        assert engine.matched_sites > 0
        assert engine.vector_runs > 0
        # everything here is pure element-wise: no runtime fallbacks
        assert engine.fallback_runs == 0

    def test_fallback_accounting(self):
        """A matched nest that trips a runtime hazard is counted as a
        fallback run, not a vector run going wrong."""
        source = _program("""
  integer :: i, k
  real(kind=8), dimension(8) :: a
  a = 0.0d0
  do k = 1, 3
    do i = 1, 8
      a(i) = a(i) + 1.0d0
    end do
  end do
  print *, a(4)
""")
        vec = _assert_vector_identical(_compile_fir(source))
        engine = vec._vector
        if engine.matched_sites:
            assert engine.fallback_runs > 0

    def test_execution_limit_still_fires(self):
        """Analytic stats feed the op budget: a nest whose synthesized cost
        exceeds ``max_ops`` must raise exactly like the iterative engines."""
        source = _program("""
  integer :: i
  real(kind=8), dimension(1000) :: a
  do i = 1, 1000
    a(i) = real(i, 8) * 3.0d0
  end do
  print *, a(1000)
""")
        module = _compile_fir(source)
        interp = Interpreter(module, max_ops=200, engine="vector")
        with pytest.raises(ExecutionLimitExceeded):
            interp.run_main()

    def test_engine_name_registered(self):
        from repro.machine.interpreter import ENGINE_NAMES
        assert "vector" in ENGINE_NAMES
        with pytest.raises(Exception, match="unknown interpreter engine"):
            Interpreter(_compile_fir(_program("  print *, 1")),
                        engine="vectorize")


class TestWorkFloor:
    """Tiny statically-bounded nests must stay on the iterative thunks:
    whole-array evaluation pays a planning + materialization overhead that
    a handful of element operations never amortizes (the bench's
    ``vector_vs_compiled < 1`` rows)."""

    def test_tiny_static_nest_stays_iterative(self):
        source = _program("""
  integer :: i
  real(kind=8), dimension(8) :: a
  do i = 1, 8
    a(i) = real(i, 8) * 2.0d0
  end do
  print *, a(1), a(8)
""")
        vec = _assert_vector_identical(_compile_ours(source))
        engine = vec._vector
        assert engine.floor_declined_sites > 0
        assert engine.vector_runs == 0

    def test_large_static_nest_still_vectorizes(self):
        source = _program("""
  integer :: i
  real(kind=8), dimension(4096) :: a
  do i = 1, 4096
    a(i) = real(i, 8) * 2.0d0
  end do
  print *, a(1), a(4096)
""")
        vec = _assert_vector_identical(_compile_ours(source))
        engine = vec._vector
        assert engine.floor_declined_sites == 0
        assert engine.matched_sites > 0
        # the nest ran on the whole-array path or hazard-fell back — the
        # floor kept it *eligible* either way
        assert engine.vector_runs + engine.fallback_runs > 0

    def test_runtime_bound_nest_is_assumed_hot(self):
        # flang-fir loop bounds only resolve at run time: the static
        # floor must not decline them (they estimate to None)
        source = _program("""
  integer :: i
  real(kind=8), dimension(64) :: a
  do i = 1, 64
    a(i) = real(i, 8) * 2.0d0
  end do
  print *, a(1), a(64)
""")
        vec = _assert_vector_identical(_compile_fir(source))
        engine = vec._vector
        assert engine.floor_declined_sites == 0
        assert engine.matched_sites > 0
        assert engine.vector_runs > 0

    def test_estimated_work_on_static_and_runtime_bounds(self):
        from repro.dialects import arith, scf
        from repro.ir import Block
        from repro.ir import types as T
        from repro.machine.loop_patterns import (VECTOR_WORK_FLOOR,
                                                 estimated_nest_work)

        def nest(trips):
            block = Block()
            lo = arith.ConstantOp(0, T.index)
            hi = arith.ConstantOp(trips, T.index)
            st = arith.ConstantOp(1, T.index)
            block.add_ops([lo, hi, st])
            loop = scf.ForOp(lo.result, hi.result, st.result)
            block.add_op(loop)
            loop.regions[0].blocks[0].add_op(scf.YieldOp())
            return loop

        small, large = nest(8), nest(8192)
        assert estimated_nest_work(small) < VECTOR_WORK_FLOOR
        assert estimated_nest_work(large) >= VECTOR_WORK_FLOOR

        # runtime bounds (block arguments) estimate to None: assumed hot
        block = Block()
        arg = block.add_argument(T.index)
        st = arith.ConstantOp(1, T.index)
        block.add_op(st)
        loop = scf.ForOp(st.result, arg, st.result)
        block.add_op(loop)
        loop.regions[0].blocks[0].add_op(scf.YieldOp())
        assert estimated_nest_work(loop) is None
