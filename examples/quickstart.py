#!/usr/bin/env python3
"""Quickstart: compile one Fortran kernel with both flows and compare them.

Runs the baseline Flang flow (HLFIR -> FIR -> bespoke LLVM lowering) and the
paper's standard-MLIR flow side by side on a small stencil, checks that they
agree numerically, and prints the dynamic instruction mix plus the modeled
ARCHER2 runtime of each.
"""

from repro.flows import get_flow, source_workload
from repro.machine import (FLANG_V20_PROFILE, OURS_PROFILE, Interpreter,
                           PerformanceModel, WorkloadScaling, profile_stats)

SOURCE = """
program demo
  implicit none
  integer, parameter :: n = 64
  real(kind=8), dimension(:,:), allocatable :: u, unew
  real(kind=8) :: residual
  integer :: i, j, it
  allocate(u(n, n), unew(n, n))
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
  residual = sum(u)
  print *, residual
end program demo
"""


def main() -> None:
    workload = source_workload(SOURCE, name="demo")
    print("== Baseline Flang flow (Figure 1) ==")
    flang = get_flow("flang")
    print("  ", flang.description)
    flang_result = flang.run(workload)
    print("   pipeline:", flang_result.pipeline)
    flang_interp = Interpreter(flang_result.module)
    flang_interp.run_main()
    print("  program output:", flang_interp.printed[-1])

    print("\n== Standard MLIR flow (Figure 2, this paper) ==")
    ours = get_flow("ours")
    print("  ", ours.description)
    ours_result = ours.run(workload, stages=("standard",))
    print("   pipeline:", ours_result.pipeline)
    print("  dialects after the Section V transformation:",
          sorted({op.dialect
                  for op in ours_result.kept_stage("standard").walk()}))
    ours_interp = Interpreter(ours_result.module)
    ours_interp.run_main()
    print("  program output:", ours_interp.printed[-1])
    flang_value = float(flang_interp.printed[-1])
    ours_value = float(ours_interp.printed[-1])
    # vectorised reductions reassociate the sum, so compare with a tolerance
    assert abs(flang_value - ours_value) <= 1e-9 * max(1.0, abs(flang_value)), \
        "the two flows disagree!"

    print("\n== Instruction mix (Section IV style profile) ==")
    for name, interp in (("flang-v20", flang_interp), ("our-approach", ours_interp)):
        mix = profile_stats(interp.stats)
        print(f"  {name:13s} total ops {mix.total_instructions:10.0f}  "
              f"FP {mix.floating_point_fraction:5.1%}  "
              f"vectorised FP {mix.vectorised_fp_fraction:5.1%}")

    print("\n== Modeled ARCHER2 runtime (work scaled x1000) ==")
    model = PerformanceModel()
    scaling = WorkloadScaling(work_ratio=1000.0, working_set_bytes=2 * 8 * 1024 ** 2)
    flang_t = model.cpu_runtime(flang_interp.stats, scaling, FLANG_V20_PROFILE)
    ours_t = model.cpu_runtime(ours_interp.stats, scaling, OURS_PROFILE)
    print(f"  flang-v20    : {flang_t.total_s:8.3f} s ({flang_t.bound}-bound)")
    print(f"  our-approach : {ours_t.total_s:8.3f} s ({ours_t.bound}-bound)")
    print(f"  speed-up     : {flang_t.total_s / ours_t.total_s:.2f}x")


if __name__ == "__main__":
    main()
