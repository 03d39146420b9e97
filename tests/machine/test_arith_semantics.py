"""Arithmetic-semantics tests that are not one row of the value-op table
(those live in ``test_op_table.py``: every row x every engine, with the
hand-written cmpi / cmpf / division / IEEE expectations): the unsigned
reinterpretation helper, Fortran integer division end to end, and the
dispatch-cache regression — the ``compiled`` and ``jit`` engines against the
one-op ``reference`` on whole workloads, and the execution limit on all four.
"""

import numpy as np
import pytest

from repro.machine import Interpreter
from repro.service.serialization import stats_to_dict

from ..conftest import flang_module, ours_module, run_flang, run_ours

ENGINES = pytest.mark.parametrize("engine",
                                  ["compiled", "reference", "jit", "vector"])


def test_unsigned_reinterpretation_is_width_aware():
    from repro.machine.semantics import as_unsigned
    assert as_unsigned(-1, 32) == 2**32 - 1
    assert as_unsigned(-1, 64) == 2**64 - 1
    assert as_unsigned(-1, 8) == 255
    assert as_unsigned(True, 1) == 1
    # out-of-range values wrap at the declared width, scalar and ndarray
    assert as_unsigned(2**33, 32) == 0
    arr = np.array([-1, -128], dtype=np.int32)
    assert list(as_unsigned(arr, 32)) == [2**32 - 1, 2**32 - 128]
    assert as_unsigned(arr, 32).dtype == np.uint32
    assert as_unsigned(np.array([-1], dtype=np.int64), 64).dtype == np.uint64


def test_fortran_division_and_mod_on_negatives():
    """End-to-end: Fortran ``/`` truncates toward zero and ``mod`` takes
    the dividend's sign, through both compilation flows."""
    src = """
program p
  implicit none
  integer :: q, r
  q = (-7) / 2
  r = mod(-7, 2)
  print *, q, r
end program p
"""
    for interp in (run_flang(src), run_ours(src)):
        assert interp.printed[-1].split() == ["-3", "-1"]


class TestDispatchCacheRegression:
    """The compiled (cached-dispatch) engine must be observationally
    identical to the one-op reference engine: same printed output, same
    statistics, bit for bit."""

    def _assert_engines_identical(self, module):
        reference = Interpreter(module, engine="reference")
        reference.run_main()
        for engine in ("compiled", "jit"):
            other = Interpreter(module, engine=engine)
            other.run_main()
            assert other.printed == reference.printed, engine
            assert stats_to_dict(other.stats) == \
                stats_to_dict(reference.stats), engine

    def test_polyhedron_workload_stats_equality(self):
        from repro.workloads import get_workload
        source = get_workload("ac").source(scaled=True)
        self._assert_engines_identical(flang_module(source))
        self._assert_engines_identical(ours_module(source))

    def test_stencil_workload_stats_equality(self, simple_program_source):
        self._assert_engines_identical(ours_module(simple_program_source))

    @ENGINES
    def test_execution_limit_still_enforced(self, engine,
                                            simple_program_source):
        from repro.machine import ExecutionLimitExceeded
        interp = Interpreter(ours_module(simple_program_source), max_ops=50,
                             engine=engine)
        with pytest.raises(ExecutionLimitExceeded):
            interp.run_main()
