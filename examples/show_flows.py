#!/usr/bin/env python3
"""Enumerate the registered compilation flows and print the IR at each stage.

Machine-readable rendition of the paper's flow diagrams: every flow in the
:mod:`repro.flows` registry with its options schema and pipeline, the stages
of the baseline Flang pipeline (Figure 1) and the standard-MLIR pipeline
(Figure 2), together with the IR of a tiny subroutine at every stage, and the
paper's own ``mlir-opt`` pipelines (Listing 1, Figure 3) quoted as text: the
repo stops at the optimised standard-dialect module and does not model their
conversions to the ``llvm`` dialect.
"""

from repro.flows import (ExecutionContext, available_flows, get_flow,
                         source_workload)
from repro.ir.printer import print_op
from repro.workloads import get_workload

#: Listing 1 of the paper, quoted: the base pipeline down to ``llvm``.
LISTING_1 = (
    "builtin.module(canonicalize, cse, loop-invariant-code-motion, "
    "convert-linalg-to-loops, convert-scf-to-cf, "
    "convert-cf-to-llvm{index-bitwidth=64}, fold-memref-alias-ops, "
    "lower-affine, finalize-memref-to-llvm, "
    "convert-arith-to-llvm{index-bitwidth=64}, convert-func-to-llvm, "
    "math-uplift-to-fma, convert-math-to-llvm, fold-memref-alias-ops, "
    "lower-affine, finalize-memref-to-llvm, reconcile-unrealized-casts)")

#: Figure 3 of the paper, quoted: vectorisation from affine down to ``llvm``.
FIGURE_3 = (
    "builtin.module(affine-super-vectorize{virtual-vector-size=4}, "
    "lower-affine, convert-scf-to-cf, "
    "convert-vector-to-llvm{enable-x86vector}, "
    "convert-cf-to-llvm{index-bitwidth=64}, finalize-memref-to-llvm, "
    "convert-arith-to-llvm{index-bitwidth=64}, convert-func-to-llvm, "
    "reconcile-unrealized-casts)")

SOURCE = """
subroutine run_solver(i, x)
  implicit none
  integer, intent(in) :: i
  real(kind=8), intent(out) :: x
  if (i == 50) then
    x = 1.0d0
  else
    x = 2.0d0
  end if
end subroutine run_solver
"""


def main() -> None:
    print("=" * 70)
    print("Registered compilation flows (repro.flows)")
    print("=" * 70)
    for name in available_flows():
        flow = get_flow(name)
        print(f"\n{name}")
        print(f"  {flow.description}")
        print(f"  options: {flow.schema.describe()}")
        workload = get_workload("dotproduct")
        options = flow.normalise_options({}, workload, ExecutionContext())
        print(f"  pipeline: {flow.pipeline(options)}")

    for name, figure in (("flang", "Figure 1 — Flang's existing flow"),
                         ("ours", "Figure 2 — the standard MLIR flow "
                                  "of this paper")):
        print()
        print("=" * 70)
        print(figure)
        print("=" * 70)
        flow = get_flow(name)
        result = flow.run(source_workload(SOURCE, name="run_solver"),
                          stages=flow.snapshot_stages)
        for stage in result.stage_names:
            module = result.stage(stage)
            if module is None:
                continue
            print(f"\n--- stage: {stage} ---")
            print(print_op(module))

    print("=" * 70)
    print("Listing 1 — base mlir-opt pipeline (the paper's text)")
    print("=" * 70)
    print(LISTING_1)
    print()
    print("=" * 70)
    print("Figure 3 — vectorisation pipeline (the paper's text)")
    print("=" * 70)
    print(FIGURE_3)


if __name__ == "__main__":
    main()
