#!/usr/bin/env python3
"""Vector engine demo: whole-array evaluation vs iterative fallback.

Runs two kernels under the ``vector`` engine and reports what its static
matcher and runtime evaluator decided:

* a Jacobi-style stencil whose loop nests are pure element-wise dataflow —
  every nest is matched and evaluated as single whole-array numpy
  expressions, and the synthesized :class:`ExecutionStats` are checked
  bit-for-bit against the one-op reference engine;
* a read-modify-write kernel (``a(i) = a(i) + ...`` re-run by an outer
  loop) whose inner nest the matcher admits but the runtime hazard check
  must decline — the nest falls back to the exact iterative thunks, still
  bit-identical.

Usage: ``PYTHONPATH=src python examples/vector_engine_demo.py``
"""

from repro.flows import get_flow, source_workload
from repro.machine import Interpreter
from repro.service.serialization import stats_to_dict

STENCIL = """
program stencil
  implicit none
  integer, parameter :: n = 64
  real(kind=8), dimension(n, n) :: u, unew
  integer :: i, j, it
  do j = 1, n
    do i = 1, n
      u(i, j) = real(i, 8) * 0.01d0 + real(j, 8) * 0.02d0
    end do
  end do
  do it = 1, 5
    do j = 2, n - 1
      do i = 2, n - 1
        unew(i, j) = 0.25d0 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
      end do
    end do
    do j = 2, n - 1
      do i = 2, n - 1
        u(i, j) = unew(i, j)
      end do
    end do
  end do
  print *, u(32, 32)
end program stencil
"""

CARRIED = """
program carried
  implicit none
  real(kind=8), dimension(64) :: a
  integer :: i, k
  a = 1.0d0
  do k = 1, 8
    do i = 1, 64
      a(i) = a(i) + real(k, 8)
    end do
  end do
  print *, a(1), a(64)
end program carried
"""


def run(name: str, source: str) -> None:
    module = get_flow("flang").run(source_workload(source, name=name)).module
    reference = Interpreter(module, engine="reference")
    reference.run_main()
    vec = Interpreter(module, engine="vector")
    vec.run_main()
    assert vec.printed == reference.printed, "output diverged!"
    assert stats_to_dict(vec.stats) == stats_to_dict(reference.stats), \
        "stats diverged!"
    engine = vec._vector
    print(f"== {name} ==")
    print(f"  program output : {vec.printed[-1].strip()}")
    print(f"  matched nests  : {engine.matched_sites} "
          f"(declined statically: {engine.declined_sites})")
    print(f"  whole-array runs {engine.vector_runs:3d} / "
          f"iterative fallbacks {engine.fallback_runs}")
    print("  stats + output bit-identical to the reference engine")


def main() -> None:
    run("jacobi stencil — the 2-d sweeps vectorise", STENCIL)
    print()
    run("loop-carried read-modify-write — runtime fallback", CARRIED)


if __name__ == "__main__":
    main()
