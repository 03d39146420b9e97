#!/usr/bin/env python3
"""Table IV: OpenMP strong scaling of jacobi and pw-advection.

Compares the speed-up over serial execution of the two compilation flows at
increasing core counts, reproducing the qualitative result of Section VI-B:
comparable scaling for the memory-bound pw-advection kernel, and markedly
better scaling of the standard-MLIR flow for jacobi at large core counts.
"""

from repro.harness import paper_data
from repro.service import run_tables


def main() -> None:
    table = run_tables(["table4"])["tables"]["table4"]
    header = f"{'cores':>6s} | {'ours jacobi':>12s} {'ours pw-adv':>12s} | " \
             f"{'flang jacobi':>13s} {'flang pw-adv':>13s} | paper (ours jacobi/pw)"
    print(header)
    print("-" * len(header))
    for row in table.rows:
        paper = paper_data.TABLE4[int(row.label)]
        print(f"{row.label:>6s} | {row.measured['ours-jacobi']:12.2f} "
              f"{row.measured['ours-pw']:12.2f} | "
              f"{row.measured['flang-jacobi']:13.2f} "
              f"{row.measured['flang-pw']:13.2f} | "
              f"{paper['ours-jacobi']:.2f} / {paper['ours-pw']:.2f}")
    last = table.rows[-1].measured
    print()
    print(f"At 64 cores: jacobi scales to {last['ours-jacobi']:.1f}x with the "
          f"standard flow vs {last['flang-jacobi']:.1f}x with Flang; "
          f"pw-advection saturates near {last['ours-pw']:.1f}x (memory bound).")


if __name__ == "__main__":
    main()
