#!/usr/bin/env python3
"""Regenerate (a subset of) Tables I and II: compiler runtime comparison.

Usage::

    python examples/compiler_comparison.py [benchmark ...]

Without arguments a representative subset is used (the three stencils the
paper focuses on plus two Polyhedron kernels); pass benchmark names or
``all`` for the full Table I/II sweep.
"""

import sys

from repro.harness import format_table, ordering_agreement, speedup
from repro.service import run_tables


def main() -> None:
    args = sys.argv[1:]
    if args == ["all"]:
        benchmarks = None
    elif args:
        benchmarks = args
    else:
        benchmarks = ["ac", "linpk", "jacobi", "pw-advection", "tra-adv"]

    print("Regenerating Tables I and II (reference compilers, our approach)...")
    tables = run_tables(["table1", "table2"], benchmarks=benchmarks)["tables"]
    print(format_table(tables["table1"]))
    print()
    t2 = tables["table2"]
    print(format_table(t2))
    print()

    gains = speedup(t2, baseline="flang-v20", candidate="our-approach")
    print("Speed-up of the standard MLIR flow over Flang v20:")
    for name, gain in sorted(gains.items()):
        print(f"  {name:15s} {gain:5.2f}x")
    print(f"\nFastest-compiler agreement with the paper (Table II): "
          f"{ordering_agreement(t2):.0%}")


if __name__ == "__main__":
    main()
