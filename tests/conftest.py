"""Shared fixtures for the test suite."""

import os
import sys

import pytest

from repro.flows import ExecutionContext, get_flow, source_workload
from repro.machine import Interpreter


#: path fragment of the package under test (``count_lines``)
_SRC = os.sep + os.path.join("src", "repro") + os.sep

SIMPLE_PROGRAM = """
program main
  implicit none
  integer, parameter :: n = 8
  real(kind=8), dimension(n, n) :: a
  real(kind=8), dimension(:), allocatable :: b
  real(kind=8) :: total
  integer :: i, j
  allocate(b(n))
  total = 0.0d0
  do j = 1, n
    do i = 1, n
      a(i, j) = real(i + j, 8)
    end do
  end do
  do i = 1, n
    b(i) = a(i, 1) * 2.0d0
    total = total + b(i)
  end do
  total = total + sum(a)
  print *, total
end program main
"""

CONDITIONAL_SUBROUTINE = """
subroutine run_solver(i, out)
  implicit none
  integer, intent(in) :: i
  integer, intent(out) :: out
  if (i == 50) then
    out = 1
  else
    out = 2
  end if
end subroutine run_solver

program main
  implicit none
  integer :: r1, r2
  call run_solver(50, r1)
  call run_solver(7, r2)
  print *, r1, r2
end program main
"""


@pytest.fixture(scope="session")
def simple_program_source():
    return SIMPLE_PROGRAM


@pytest.fixture(scope="session")
def conditional_source():
    return CONDITIONAL_SUBROUTINE


def compile_source(flow: str, source: str, options=None, *,
                   execution=None, **kwargs):
    """Run flow ``flow`` over Fortran source text; the :class:`FlowResult`."""
    return get_flow(flow).run(source_workload(source), options, execution,
                              **kwargs)


def flang_module(source: str):
    """The ``flang`` flow's final (FIR) module for ``source``."""
    return compile_source("flang", source).module


def ours_module(source: str, *, threads: int = 1, gpu: bool = False,
                **options):
    """The ``ours`` flow's optimised module for ``source``; ``threads > 1``
    parallelises, ``gpu`` lowers OpenACC, like the flow's own options."""
    return compile_source("ours", source, options,
                          execution=ExecutionContext(threads=threads,
                                                     gpu=gpu)).module


def run_flang(source: str):
    """Compile with the baseline flow (FIR level) and interpret."""
    interp = Interpreter(flang_module(source))
    interp.run_main()
    return interp


def run_ours(source: str, **kwargs):
    """Compile with the standard-MLIR flow and interpret the optimised IR."""
    interp = Interpreter(ours_module(source, **kwargs))
    interp.run_main()
    return interp


def last_value(interp) -> float:
    assert interp.printed, "program produced no output"
    return float(interp.printed[-1].split()[-1])


def count_lines(action) -> int:
    """Python line events ``action()`` executes under ``src/repro`` — a
    deterministic stand-in for its cost: the complexity guards compare
    counts, never seconds.  Frames from elsewhere are not counted: a
    collection that starts inside ``action`` runs hypothesis's
    ``gc.callbacks`` hook, which is Python too."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if _SRC not in frame.f_code.co_filename:
            return None
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        action()
    finally:
        sys.settrace(previous)
    return lines
