#!/usr/bin/env python3
"""Enumerate the registered compilation flows and print the IR at each stage.

Machine-readable rendition of the paper's flow diagrams: every flow in the
:mod:`repro.flows` registry with its options schema and pipeline, the stages
of the baseline Flang pipeline (Figure 1) and the standard-MLIR pipeline
(Figure 2), and the vectorisation pass pipeline (Figure 3), together with
the IR of a tiny subroutine at every stage.
"""

from repro.core.pipelines import BASE_PIPELINE, VECTORIZE_PIPELINE
from repro.flows import ExecutionContext, available_flows, get_flow
from repro.ir.printer import print_op
from repro.workloads import get_workload

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


class _Source:
    name = "run_solver"
    uses_openmp = False
    uses_openacc = False

    def source(self, *, scaled=True, **_):
        return SOURCE


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
        pipeline = flow.pipeline(options)
        if pipeline is not None:
            print(f"  pipeline: {pipeline.describe()}")

    for name, figure in (("flang", "Figure 1 — Flang's existing flow"),
                         ("ours", "Figure 2 — the standard MLIR flow "
                                  "of this paper")):
        print()
        print("=" * 70)
        print(figure)
        print("=" * 70)
        flow = get_flow(name)
        result = flow.run(_Source(), stages=flow.snapshot_stages)
        for stage in result.stage_names:
            module = result.stage(stage)
            if module is None:
                continue
            print(f"\n--- stage: {stage} ---")
            print(print_op(module))

    print("=" * 70)
    print("Listing 1 — base mlir-opt pipeline")
    print("=" * 70)
    print(BASE_PIPELINE)
    print()
    print("=" * 70)
    print("Figure 3 — vectorisation pipeline")
    print("=" * 70)
    print(VECTORIZE_PIPELINE)


if __name__ == "__main__":
    main()
