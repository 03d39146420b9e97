"""Tests for the baseline Flang flow (HLFIR -> FIR)."""

import pytest

from repro.dialects import dialects_used
from repro.flang.runtime import (RUNTIME_SYMBOLS, dispatch, is_runtime_symbol)
from repro.ir.printer import print_op
from repro.machine import Interpreter

import numpy as np

from ..conftest import flang_module, last_value


class TestHlfirToFir:
    def test_hlfir_removed(self, simple_program_source):
        module = flang_module(simple_program_source)
        used = dialects_used(module)
        assert "hlfir" not in used
        assert "fir" in used

    def test_intrinsics_become_runtime_calls(self):
        src = """
program p
  implicit none
  real(kind=8), dimension(8) :: v
  real(kind=8) :: t
  v(1) = 2.0d0
  t = sum(v) + dot_product(v, v)
  print *, t
end program p
"""
        module = flang_module(src)
        text = print_op(module)
        assert "_FortranASum" in text
        assert "_FortranADotProduct" in text

    def test_element_access_uses_explicit_offsets(self):
        src = """
program p
  implicit none
  real(kind=8), dimension(8, 8) :: a
  a(3, 4) = 1.0d0
  print *, a(3, 4)
end program p
"""
        module = flang_module(src)
        text = print_op(module)
        # 1-based normalisation + linearisation + coordinate_of
        assert '"fir.coordinate_of"' in text
        assert '"arith.subi"' in text
        assert '"arith.muli"' in text

    def test_allocatable_descriptor_reloaded_per_access(self):
        src = """
program p
  implicit none
  real(kind=8), dimension(:), allocatable :: v
  integer :: i
  allocate(v(8))
  do i = 1, 8
    v(i) = real(i, 8)
  end do
  print *, v(8)
end program p
"""
        module = flang_module(src)
        loops = [op for op in module.walk() if op.name == "fir.do_loop"]
        assert loops
        body_names = [op.name for op in loops[0].walk()]
        # the box is re-loaded inside the loop (no hoisting in the baseline)
        assert "fir.load" in body_names and "fir.box_addr" in body_names


class TestRuntimeLibrary:
    def test_symbol_classification(self):
        assert is_runtime_symbol("_FortranASumReal8")
        assert is_runtime_symbol("_FortranAioOutput")
        assert not is_runtime_symbol("my_subroutine")

    def test_dispatch_matches_numpy(self):
        a = np.arange(12, dtype=float).reshape(3, 4)
        assert dispatch(RUNTIME_SYMBOLS["sum"], [a]) == pytest.approx(a.sum())
        assert dispatch(RUNTIME_SYMBOLS["maxval"], [a]) == pytest.approx(a.max())
        b = np.ones((4, 2))
        out = dispatch(RUNTIME_SYMBOLS["matmul"], [a, b])
        assert out.shape == (3, 2)
        assert np.allclose(out, a @ b)

    def test_executable_baseline_produces_output(self, simple_program_source):
        module = flang_module(simple_program_source)
        interp = Interpreter(module)
        interp.run_main()
        expected = sum(float(i + j) for i in range(1, 9) for j in range(1, 9))
        expected += sum(float(i + 1) * 2.0 for i in range(1, 9))
        assert last_value(interp) == pytest.approx(expected)
