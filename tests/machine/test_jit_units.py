"""Translation units: the jit cuts a heavy step list into parts.

``compile()`` needs memory in proportion to the largest function it is
handed, so no unit may grow with the program: a step list above
``jit._UNIT_OPS`` becomes consecutive ``_jit_part_N(env)`` calls, one
generated function each.  These tests force the cut everywhere
(``_UNIT_OPS = 8``) and require what the engine parity suite requires of an
unpartitioned translation — output, :class:`ExecutionStats` and raised
error identical to the ``reference`` engine — over the shapes where a cut
could go wrong: loop-carried values, ``scf.if`` results, a fused address
pair next to a cut, a fallback op between two parts, a value that skips a
part, and the execution limit tripping inside a part.  A spy on
``compile`` holds every unit under a byte cap, and a sweep over the table
jobs holds the real budget's cap (48 KB; one unit was 288 KB before).
"""

import builtins

import numpy as np
import pytest

from repro.dialects import arith, func, scf
from repro.dialects.builtin import ModuleOp
from repro.ir import types as T
from repro.machine import ExecutionLimitExceeded, Interpreter
from repro.machine import jit as machine_jit
from repro.service.serialization import stats_to_dict

from ..conftest import flang_module, ours_module

SMALL_UNIT_OPS = 8
#: what 8 planned ops may come to: ~170 B each plus a unit's fixed frame
#: (entry reads of outside values, one flush per counter category)
SMALL_UNIT_BYTES = 6 * 1024
#: the cap the default budget has to hold on every table job
UNIT_BYTES = 48 * 1024


@pytest.fixture
def unit_sizes(monkeypatch):
    """Force the cut and record the size of every unit ``compile()`` sees."""
    sizes = []

    def spy(source, filename, mode):
        sizes.append(len(source))
        return builtins.compile(source, filename, mode)

    monkeypatch.setattr(machine_jit, "_UNIT_OPS", SMALL_UNIT_OPS)
    monkeypatch.setattr(machine_jit, "compile", spy, raising=False)
    machine_jit.clear_translation_cache()
    yield sizes
    machine_jit.clear_translation_cache()


def _observe(module, engine, max_ops=80_000_000):
    interp = Interpreter(module, engine=engine, max_ops=max_ops)
    if engine == "jit":
        # translate every block now: a cold one would stay on the
        # compiled tier and the parts would never run
        for function in interp.functions.values():
            for block in function.regions[0].blocks:
                interp._jit.source_for(block)
    returned = error = None
    with np.errstate(all="ignore"):
        try:
            returned = interp.run_main()
        except Exception as exc:
            error = (type(exc), str(exc))
    return returned, interp.printed, stats_to_dict(interp.stats), error


def _assert_parts_match_reference(module, sizes, **kwargs):
    want = _observe(module, "reference", **kwargs)
    before = len(sizes)
    got = _observe(module, "jit", **kwargs)
    assert got[3] == want[3]                        # raised error
    if want[3] is None:
        assert got[:3] == want[:3]                  # output, stats
    units = sizes[before:]
    assert len(units) > 1
    assert max(units) <= SMALL_UNIT_BYTES
    return got


def _main(result_types):
    main = func.FuncOp("_QQmain", T.FunctionType([], list(result_types)))
    return main, main.entry_block


def _emit(block, op):
    block.add_op(op)
    return op.results[0] if len(op.results) == 1 else op.results


def _chain(block, seed, other, length):
    """``length`` float ops, each reading its predecessor and ``other``
    (sums only: the values stay finite, so equality means something)."""
    value = seed
    for step in range(length):
        kind = (arith.AddFOp, arith.AddFOp, arith.SubFOp)[step % 3]
        value = _emit(block, kind(value, other))
    return value


def _parts(block):
    return [step[1] for step in machine_jit.plan_block(block).steps
            if step[0] == "part"]


class TestHandBuiltShapes:
    def test_loop_carried_values_cross_parts(self, unit_sizes):
        # two carried values, a nested carried loop in the middle of a
        # partitioned body, results read after the loop
        main, entry = _main([T.f64, T.f64])
        zero, one, five = (_emit(entry, arith.ConstantOp(n, T.index))
                           for n in (0, 1, 5))
        half = _emit(entry, arith.ConstantOp(0.5, T.f64))
        two = _emit(entry, arith.ConstantOp(2.0, T.f64))
        outer = scf.ForOp(zero, five, one, iter_args=[half, two])
        body = outer.body
        iv, a, b = body.args
        as_float = _emit(body, arith.SIToFPOp(
            _emit(body, arith.IndexCastOp(iv, T.i64)), T.f64))
        head = _chain(body, a, as_float, 11)
        inner = scf.ForOp(zero, five, one, iter_args=[head])
        inner.body.add_op(scf.YieldOp([_chain(
            inner.body, inner.body.args[1], b, 5)]))
        tail = _chain(body, _emit(body, inner), head, 10)
        body.add_op(scf.YieldOp([tail, _emit(body, arith.AddFOp(b, a))]))
        entry.add_op(outer)
        total = _emit(entry, arith.AddFOp(*outer.results))
        entry.add_op(func.ReturnOp([total, outer.results[1]]))
        module = ModuleOp([main])

        plan = machine_jit.plan_block(entry)
        loop, = [step for step in plan.steps if step[0] == "loop"]
        assert sum(step[0] == "part" for step in loop[2]) >= 3
        returned, *_ = _assert_parts_match_reference(module, unit_sizes)
        assert all(np.isfinite(value) for value in returned)

    def test_if_results_inside_a_partitioned_body(self, unit_sizes):
        # one conditional above the budget (it stays in the parent, its
        # arms become parts) and one below it (it moves into a part whole)
        main, entry = _main([T.f64])
        zero, one, six = (_emit(entry, arith.ConstantOp(n, T.index))
                          for n in (0, 1, 6))
        three = _emit(entry, arith.ConstantOp(3, T.index))
        start = _emit(entry, arith.ConstantOp(1.25, T.f64))
        loop = scf.ForOp(zero, six, one, iter_args=[start])
        body = loop.body
        iv, carried = body.args
        low = _emit(body, arith.CmpIOp("slt", iv, three))
        heavy = scf.IfOp(low, [T.f64, T.f64])
        for arm, scale in ((heavy.then_block, 1.5), (heavy.else_block, 0.75)):
            factor = _emit(arm, arith.ConstantOp(scale, T.f64))
            first = _chain(arm, carried, factor, 9)
            arm.add_op(scf.YieldOp([first, _chain(arm, first, factor, 4)]))
        picked, other = _emit(body, heavy)
        light = scf.IfOp(low, [T.f64])
        light.then_block.add_op(scf.YieldOp([picked]))
        light.else_block.add_op(scf.YieldOp(
            [_emit(light.else_block, arith.AddFOp(picked, other))]))
        joined = _chain(body, _emit(body, light), other, 6)
        body.add_op(scf.YieldOp([joined]))
        entry.add_op(loop)
        entry.add_op(func.ReturnOp([loop.results[0]]))
        module = ModuleOp([main])

        steps = machine_jit.plan_block(entry).steps
        kept, = [step for outer in steps if outer[0] == "loop"
                 for step in outer[2] if step[0] == "if"]
        assert kept[1] is heavy
        assert all(arm[0][0] == "part" for arm in kept[2:])
        _assert_parts_match_reference(module, unit_sizes)

    def test_value_defined_in_the_first_part_is_read_in_a_later_one(
            self, unit_sizes):
        main, entry = _main([T.f64])
        seed = _emit(entry, arith.ConstantOp(1.0, T.f64))
        step = _emit(entry, arith.ConstantOp(1.0625, T.f64))
        early = _emit(entry, arith.MulFOp(seed, step))
        late = _chain(entry, early, step, 3 * SMALL_UNIT_OPS)
        closing = arith.AddFOp(late, early)
        entry.add_op(closing)
        entry.add_op(func.ReturnOp([closing.results[0]]))
        module = ModuleOp([main])

        parts = _parts(entry)
        defines = [early in part.defined for part in parts]
        reads = [closing in part.inline_ops for part in parts]
        assert reads.index(True) - defines.index(True) >= 2
        _assert_parts_match_reference(module, unit_sizes)


def _program(body: str, units: str = "") -> str:
    return f"program p\n  implicit none\n{body}\nend program p\n{units}"


def _both_flows(source):
    return flang_module(source), ours_module(source)


class TestCompiledPrograms:
    def test_fused_address_pairs_on_both_sides_of_a_cut(self, unit_sizes):
        source = _program("""
  integer :: i
  real(kind=8), dimension(40) :: a, b, c, d
  do i = 1, 40
    a(i) = real(i, 8)
    b(i) = 0.5d0 * real(i, 8)
    c(i) = 2.0d0
  end do
  do i = 2, 39
    d(i) = a(i - 1) * b(i) + a(i + 1) * c(i) - b(i - 1) * c(i + 1) &
         + a(i) * a(i) - b(i + 1) * b(i) + c(i - 1) * a(i)
  end do
  print *, d(2), d(20), d(39)
""")
        fir, ours = _both_flows(source)
        for module in (fir, ours):
            _assert_parts_match_reference(module, unit_sizes)
        # the flang form reaches every element through a fused address +
        # load/store pair: a pair is never split, and parts on both sides
        # of a cut hold some
        entry = Interpreter(fir).functions["_QQmain"].regions[0].blocks[0]
        loops = [step for step in machine_jit.plan_block(entry).steps
                 if step[0] == "loop"]
        holding = [part for loop in loops for part in loop[2]
                   if part[0] == "part"
                   and any(step[0] == "fusedcoor"
                           for step in part[1].steps)]
        assert len(holding) >= 4

    def test_a_call_between_two_parts(self, unit_sizes):
        source = _program("""
  integer :: i
  real(kind=8) :: x, y, total
  total = 0.0d0
  do i = 1, 12
    x = real(i, 8) * 1.5d0 + 2.0d0 - real(i, 8) / 3.0d0 + 0.25d0 * real(i, 8)
    call bump(x, y)
    total = total + y * 2.0d0 - x / 4.0d0 + real(i, 8) * y - 1.0d0 + x * y
  end do
  print *, total
""", """
subroutine bump(x, y)
  implicit none
  real(kind=8), intent(in) :: x
  real(kind=8), intent(out) :: y
  y = x * x + 1.0d0
end subroutine bump
""")
        for module in _both_flows(source):
            _assert_parts_match_reference(module, unit_sizes)

    def test_execution_limit_trips_inside_a_part(self, unit_sizes):
        source = _program("""
  integer :: i, j
  real(kind=8) :: total, x
  total = 0.0d0
  do i = 1, 4
    x = real(i, 8) * 1.5d0 + 2.0d0 - real(i, 8) / 3.0d0 + 0.25d0 * real(i, 8)
    do j = 1, 100000
      total = total + x
    end do
    total = total * 0.5d0 + x - 1.0d0 + x * x - total / 8.0d0 + 3.0d0
  end do
  print *, total
""")
        modules = _both_flows(source)
        for module in modules:
            *_, error = _assert_parts_match_reference(module, unit_sizes,
                                                      max_ops=200)
            assert error[0] is ExecutionLimitExceeded
        # the loop that trips it was not left behind in the parent unit
        entry = Interpreter(modules[0]).functions["_QQmain"] \
            .regions[0].blocks[0]
        outer, = [step for step in machine_jit.plan_block(entry).steps
                  if step[0] == "loop"]
        assert any(step[0] == "loop" for part in outer[2]
                   if part[0] == "part" for step in part[1].steps)


def test_no_table_job_has_a_unit_above_the_cap():
    """Every block of the 46 unique table jobs, emitted under the real
    budget: the largest unit any ``compile()`` could be handed."""
    from repro.flows import get_flow
    from repro.service import enumerate_jobs

    unique = {}
    for job in enumerate_jobs(None, None):
        unique.setdefault(job.key(), job)
    assert len(unique) == 46
    largest, most_units = 0, 0
    for job in unique.values():
        result = get_flow(job.flow).run(job.resolve_workload(),
                                        job.options_dict(), job.execution(),
                                        collect_statistics=False)
        if result.error is not None:
            continue
        interp = Interpreter(result.module, engine="jit")
        for op in result.module.walk():
            for region in op.regions:
                for block in region.blocks:
                    units, _ = machine_jit._Emitter(
                        interp, machine_jit.plan_block(block)).build()
                    largest = max(largest, max(map(len, units)))
                    most_units = max(most_units, len(units))
    assert most_units > 1           # flang / pw-advection: one 1,268-op body
    assert largest <= UNIT_BYTES
