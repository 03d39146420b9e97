#!/usr/bin/env python3
"""Section IV profiling narrative: instruction-mix profiles per compiler.

Reproduces the style of analysis the paper performs on tfft and induct:
fraction of floating-point work, fraction of it vectorised, memory-op share
and total dynamic operations, for the baseline Flang flow and the standard
MLIR flow.

Usage::

    python examples/profile_benchmark.py [benchmark]   # default: induct
"""

import sys

from repro.service import section4_profile


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "induct"
    profiles = section4_profile(benchmark)
    print(f"Instruction-mix profile for '{benchmark}':\n")
    for flow in ("flang-v20", "our-approach"):
        mix = profiles[flow]
        print(f"  {flow}")
        print(f"    total dynamic operations : {mix['total_instructions']:12.0f}")
        print(f"    floating-point fraction  : {mix['floating_point_fraction']:6.1%}")
        print(f"    vectorised FP fraction   : {mix['vectorised_fp_fraction']:6.1%}")
        print(f"    memory-op fraction       : {mix['memory_op_fraction']:6.1%}")
        print(f"    est. memory stall share  : "
              f"{mix['estimated_memory_stall_fraction']:6.1%}")
        print()
    if profiles["paper"]:
        print("Published observations (Section IV):")
        for key, value in profiles["paper"].items():
            print(f"    {key}: {value}")


if __name__ == "__main__":
    main()
