#!/usr/bin/env python3
"""Table V: OpenACC GPU offload of the pw-advection benchmark.

Shows the paper's OpenACC lowering in action: ``acc.kernels`` regions become
``scf.parallel`` loops, then ``gpu.launch`` kernels with host registration of
the managed arrays, and the modeled V100 runtime is compared against the
nvfortran reference.  Also demonstrates that the baseline Flang build fails
with the internal error reported in Section VI-C.
"""

from repro.flang import FlangCodegenError
from repro.flows import get_flow
from repro.harness import format_table
from repro.service import run_tables
from repro.workloads import pw_advection


def main() -> None:
    workload = pw_advection(openacc=True)

    print("Baseline Flang on OpenACC input:")
    try:
        get_flow("flang").run(workload)
    except FlangCodegenError as error:
        print("  compiled: False")
        print("  error   :", error)
    print()

    print("Standard MLIR flow with the OpenACC -> GPU lowering:")
    compiled = get_flow("ours").run(workload, {"vector_width": 0})
    gpu_ops = sorted({op.name for op in compiled.module.walk()
                      if op.dialect == "gpu"})
    print("  gpu dialect operations generated:", ", ".join(gpu_ops))
    print()

    print("Regenerating Table V (modeled V100 runtimes)...")
    print(format_table(run_tables(["table5"])["tables"]["table5"]))


if __name__ == "__main__":
    main()
