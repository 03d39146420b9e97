"""Fortran features no registry workload exercises, and the arms they keep.

Three things live here:

* ``PROGRAMS`` — small sources for module variables (shared, initialised,
  with a module procedure), declaration initialisers, derived types,
  strided sections, whole-array copies, (re)allocation, array inquiries,
  pointer assignment, an array element bound to a scalar dummy, a
  character literal and a trailing STOP — run on every flow that accepts
  them x all four engines: the printed output equals a written
  expectation and the stats equal the ``reference`` engine's bit for bit;
* ``FIXTURES`` — pass-equivalence fixtures for ops that exist only *before*
  the optimise stage (``linalg.*``, the ``acc.*`` host fallback,
  ``scf.parallel``): the standard-stage module prints the same before and
  after the passes that lower them, on all four engines at every step;
* a guard: every op name an engine has an arm for occurs in a module
  executed here or in the registry parity sweep, so an arm nothing can
  reach fails CI instead of waiting for a trace.
"""

import pytest

from repro.core import StandardMLIRCompiler, convert_fir_to_standard
from repro.flang import FlangCompiler
from repro.flows import ENGINES, available_flows, get_flow
from repro.frontend import SemanticError
from repro.ir import PassManager
from repro.ir.core import OP_REGISTRY
from repro.machine import Interpreter
from repro.service.serialization import stats_to_dict
from repro.workloads import all_workloads

BOTH = ("flang", "ours")

#: name -> (source, expected printed lines, flows that accept the program)
PROGRAMS = {
    "initialised-locals": ("""
program p
  implicit none
  integer :: k = 3
  real(8) :: x = 2.5d0
  k = k + 1
  print *, k, x
end program p
""", ["4 2.5"], BOTH),
    "module-variables": ("""
module m
  implicit none
  integer :: counter = 3
  real(8) :: scale = 0.5d0
  real(8) :: table(4)
contains
  subroutine bump(k)
    implicit none
    integer, intent(in) :: k
    counter = counter + k
    table(k) = real(k, 8) * scale
  end subroutine bump
end module m

subroutine double_counter()
  use m
  implicit none
  counter = counter * 2
end subroutine double_counter

program p
  use m
  implicit none
  integer :: i
  do i = 1, 4
    call bump(i)
  end do
  call double_counter()
  print *, counter, table(3), table(4)
end program p
""", ["26 1.5 2.0"], BOTH),
    "derived-type": ("""
program p
  implicit none
  type pt
    real(8) :: x
    integer :: n
  end type pt
  type(pt) :: a, b
  a%x = 1.5d0
  a%n = 4
  b%x = 0.25d0
  b%n = a%n + 1
  a%x = a%x * real(a%n, 8) + b%x
  print *, a%x, a%n, b%x, b%n
end program p
""", ["6.25 4 0.25 5"], BOTH),
    "strided-section-and-copy": ("""
program p
  implicit none
  real(8) :: a(10), b(4), c(10)
  integer :: i
  do i = 1, 10
    a(i) = real(i * i, 8)
  end do
  b = a(2:8:2)
  c = a
  c(3) = 0.0d0
  print *, b(1), b(4), sum(b), c(3), c(10)
end program p
""", ["4.0 64.0 120.0 0.0 100.0"], BOTH),
    "reallocation": ("""
program p
  implicit none
  real(8), allocatable :: v(:)
  integer :: i, n
  n = 6
  allocate(v(n))
  do i = 1, n
    v(i) = real(i, 8) + 0.25d0
  end do
  print *, v(1), v(n), size(v)
  deallocate(v)
  allocate(v(3))
  v(3) = 9.0d0
  print *, v(3), size(v)
  deallocate(v)
end program p
""", ["1.25 6.25 6", "9.0 3"], BOTH),
    "array-inquiries": ("""
program p
  implicit none
  real(8) :: a(3, 5)
  print *, size(a), size(a, 1), size(a, 2), lbound(a, 1), ubound(a, 2)
end program p
""", ["15 3 5 1 5"], BOTH),
    "pointer-assignment": ("""
program p
  implicit none
  real(8), target :: a(5)
  real(8), pointer :: q(:)
  integer :: i
  do i = 1, 5
    a(i) = real(i, 8)
  end do
  q => a
  q(2) = 20.0d0
  print *, a(2), q(5)
end program p
""", ["20.0 5.0"], BOTH),
    # ``ours`` passes the whole array for ``a(3)`` and fails at run time: the
    # element reference reaching a loop is what the flang engines must agree on
    "element-as-scalar-dummy": ("""
subroutine spread(n, x, b)
  implicit none
  integer, intent(in) :: n
  real(8) :: x
  real(8) :: b(n)
  integer :: i
  do i = 1, n
    b(i) = x * real(i, 8)
  end do
  x = x + 1.0d0
end subroutine spread

program p
  implicit none
  real(8) :: a(4), b(700)
  a(3) = 3.0d0
  call spread(700, a(3), b)
  print *, a(3), b(1), b(700)
end program p
""", ["4.0 3.0 2100.0"], ("flang",)),
    # ``ours`` has no mapping for ``fir.string_lit`` (a clean ConversionError)
    "character-literal": ("""
program p
  implicit none
  integer :: k
  k = 7
  print *, 'k is', k
end program p
""", ["k is 7"], ("flang",)),
    # any other STOP: test_stop_that_does_not_end_the_program_is_rejected
    "trailing-stop": ("""
program p
  implicit none
  integer :: i
  do i = 1, 2
    print *, i
  end do
  stop
end program p
""", ["1", "2"], BOTH),
}

#: name -> (source, the pipelines applied one after another)
FIXTURES = {
    "linalg": ("""
program p
  implicit none
  real(8) :: a(3, 4), b(4, 2), c(3, 2), t(4, 3), x(5), y(5)
  integer :: i, j
  do j = 1, 4
    do i = 1, 3
      a(i, j) = real(i + 2 * j, 8)
    end do
  end do
  do j = 1, 2
    do i = 1, 4
      b(i, j) = real(i - j, 8)
    end do
  end do
  x = 1.5d0
  do i = 1, 5
    y(i) = real(i, 8)
  end do
  c = matmul(a, b)
  t = transpose(a)
  x = y
  print *, c(1, 1), c(3, 2), t(4, 3), dot_product(x, y), sum(a), x(5)
  print *, maxval(y), minval(y), product(y)
end program p
""", ["convert-linalg-to-loops"]),
    "openacc": ("""
program p
  implicit none
  real(8) :: u(16), su(16)
  integer :: i
  do i = 1, 16
    u(i) = real(i, 8)
  end do
!$acc data copyin(u)
!$acc kernels create(su)
  do i = 2, 15
    su(i) = u(i - 1) + u(i + 1)
  end do
!$acc end kernels
!$acc end data
  print *, su(2), su(15)
end program p
""", ["convert-acc-to-gpu, convert-parallel-loops-to-gpu, canonicalize, cse"]),
    "scf-parallel": ("""
program p
  implicit none
  real(8) :: a(32), b(32)
  integer :: i
  do i = 1, 32
    a(i) = real(i, 8)
  end do
  do i = 1, 32
    b(i) = a(i) * 2.0d0 + 1.0d0
  end do
  print *, b(1), b(32)
end program p
""", ["canonicalize, cse, forward-scalar-stores, canonicalize, cse",
      "convert-scf-for-to-parallel", "convert-scf-to-openmp"]),
}


def compile_on(flow: str, source: str):
    if flow == "flang":
        return FlangCompiler().compile(source).fir_module
    return StandardMLIRCompiler().compile(source).optimised_module


def run_everywhere(module):
    """``printed`` of the reference engine, after checking that every other
    engine prints and counts exactly the same."""
    observed = {}
    for engine in ENGINES:
        interp = Interpreter(module, engine=engine)
        interp.run_main()
        observed[engine] = (interp.printed, stats_to_dict(interp.stats))
    for engine, seen in observed.items():
        assert seen == observed["reference"], engine
    return observed["reference"][0]


@pytest.mark.parametrize(("name", "flow"), [
    (name, flow) for name, (_, _, flows) in PROGRAMS.items() for flow in flows])
def test_feature_program(name, flow):
    source, expected, _ = PROGRAMS[name]
    assert run_everywhere(compile_on(flow, source)) == expected


def fixture_stages(name):
    """The standard-stage module of a fixture, then again after each of its
    pipelines — clones: a jit translation cached on an executed block does
    not outlive a pass that rewrites the block."""
    source, pipelines = FIXTURES[name]
    module = convert_fir_to_standard(FlangCompiler().lower_to_hlfir(source))
    yield module.clone()
    for pipeline in pipelines:
        PassManager.from_pipeline(f"builtin.module({pipeline})").run(module)
        yield module.clone()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_pass_equivalence_fixture(name):
    printed = [run_everywhere(module) for module in fixture_stages(name)]
    assert printed[0] and all(after == printed[0] for after in printed)


def test_linalg_reduce_applies_its_combiner():
    """Before ``convert-linalg-to-loops`` a ``maxval`` / ``minval`` /
    ``product`` is a ``linalg.reduce`` whose region is not an addition."""
    module = next(fixture_stages("linalg"))
    assert "linalg.reduce" in {op.name for op in module.walk()}
    assert run_everywhere(module)[1] == "5.0 1.0 120.0"


@pytest.mark.parametrize(("source", "needles"), [
    ("""
subroutine f()
  implicit none
  integer :: calls = 0
  calls = calls + 1
end subroutine f
program p
  call f()
end program p
""", ("'calls'", "line 4", "SAVE")),
    ("""
program p
  implicit none
  integer :: n
  integer :: k = n + 1
  print *, k
end program p
""", ("'k'", "line 5", "constant")),
    ("""
program p
  implicit none
  real(8) :: a(3) = 1.0d0
  print *, a(1)
end program p
""", ("'a'", "line 4", "scalar")),
    ("""
program p
  implicit none
  type pt
    integer :: n = 5
  end type pt
  type(pt) :: a
  print *, a%n
end program p
""", ("'pt%n'", "line 5", "component")),
], ids=["saved-local", "not-constant", "array", "component-default"])
def test_initialiser_that_cannot_be_honoured_is_rejected(source, needles):
    with pytest.raises(SemanticError) as failure:
        FlangCompiler().lower_to_hlfir(source)
    for needle in needles:
        assert needle in str(failure.value)


@pytest.mark.parametrize(("source", "line"), [
    ("""
program p
  integer :: i
  do i = 1, 3
    print *, i
    if (i == 2) stop
  end do
  print *, 99
end program p
""", "line 6"),
    ("""
subroutine f()
  stop
end subroutine f
program p
  call f()
  print *, 1
end program p
""", "line 3"),
], ids=["inside-a-loop", "in-a-subroutine"])
def test_stop_that_does_not_end_the_program_is_rejected(source, line):
    # run as a no-op, it would print what follows it
    for flow in BOTH:
        with pytest.raises(SemanticError) as failure:
            compile_on(flow, source)
        assert "STOP" in str(failure.value)
        assert line in str(failure.value)


def test_every_engine_arm_names_an_op_some_test_executes():
    from repro.machine import interpreter, jit, loop_patterns

    executed = set()
    for workload in all_workloads():
        for flow in available_flows():
            module = get_flow(flow).run(workload).module
            executed.update(op.name for op in module.walk())
    for source, _, flows in PROGRAMS.values():
        for flow in flows:
            executed.update(op.name for op in compile_on(flow, source).walk())
    for name in FIXTURES:
        for module in fixture_stages(name):
            executed.update(op.name for op in module.walk())

    handled = {name for name in OP_REGISTRY if hasattr(
        Interpreter, "_exec_" + name.replace(".", "_"))}
    # no handler is left behind by an op class that went
    assert len(handled) == sum(
        1 for attribute in vars(Interpreter) if attribute.startswith("_exec_")
        and attribute != "_exec_value_op")
    arms = {
        "_exec_*": handled,
        "_THUNK_MAKERS": set(interpreter._THUNK_MAKERS),
        "jit._SIMPLE_INLINE": set(jit._SIMPLE_INLINE),
        "loop_patterns": set().union(
            loop_patterns.LOOP_OPS, loop_patterns._LOAD_OPS,
            loop_patterns._STORE_OPS, loop_patterns._BOX_OPS,
            loop_patterns._MAPPED_OPS),
    }
    # the value-op table has its own row x engine test (test_op_table)
    unreached = {family: sorted(names - executed - set(interpreter.VALUE_OPS))
                 for family, names in arms.items()}
    assert not any(unreached.values()), unreached
