#!/usr/bin/env python3
"""Function-granular incremental compilation, end to end.

1. Compile a two-subroutine source cold on the ``ours`` flow: every
   function runs the full standard pipeline and lands in the per-function
   stage store.
2. Recompile the identical source: both program units are served from the
   store (nothing is lowered, converted or passed through the pipeline),
   and the output is bit-identical.
3. Edit ONE subroutine and recompile: exactly one function recompiles,
   the other is served, and the result is bit-identical to a from-scratch
   compile of the edited source.

Usage::

    PYTHONPATH=src python examples/incremental_demo.py
"""

import time

from repro.flows import get_flow, source_workload
from repro.ir import print_op
from repro.service.incremental import FunctionArtifactStore

HEAT = """
subroutine heat(n)
  implicit none
  integer, intent(in) :: n
  integer :: i, it
  real(kind=8), dimension(128) :: u, unew
  do it = 1, 10
    do i = 2, 127
      unew(i) = 0.25d0 * (u(i-1) + 2.0d0 * u(i) + u(i+1))
    end do
    do i = 2, 127
      u(i) = unew(i)
    end do
  end do
end subroutine heat
"""

SCALE = """
subroutine scale(n)
  implicit none
  integer, intent(in) :: n
  integer :: i
  real(kind=8), dimension(128) :: v
  do i = 1, 128
    v(i) = v(i) * {factor}
  end do
end subroutine scale
"""


def compile_with(source, store):
    t0 = time.perf_counter()
    result = get_flow("ours").run(source_workload(source),
                                  function_cache=store)
    return result.module, time.perf_counter() - t0


def main() -> None:
    store = FunctionArtifactStore()
    source = HEAT + SCALE.format(factor="2.0d0")

    print("== 1. cold compile (two functions, empty store)")
    cold, t_cold = compile_with(source, store)
    print(f"   {t_cold * 1000:6.1f}ms   "
          f"store: {store.counters.as_dict()}")

    print("== 2. identical source again: both functions splice")
    warm, t_warm = compile_with(source, store)
    print(f"   {t_warm * 1000:6.1f}ms   "
          f"store: {store.counters.as_dict()}")
    print(f"   bit-identical to cold: {print_op(warm) == print_op(cold)}")

    print("== 3. edit ONE subroutine: exactly one recompile")
    edited_source = HEAT + SCALE.format(factor="3.0d0")
    incremental, t_inc = compile_with(edited_source, store)
    print(f"   {t_inc * 1000:6.1f}ms   "
          f"store: {store.counters.as_dict()}")
    from_scratch, _ = compile_with(edited_source, None)
    print(f"   bit-identical to a from-scratch compile: "
          f"{print_op(incremental) == print_op(from_scratch)}")

    print()
    print(f"cold {t_cold * 1000:.1f}ms -> warm {t_warm * 1000:.1f}ms "
          f"-> one-function edit {t_inc * 1000:.1f}ms")


if __name__ == "__main__":
    main()
