"""Table III: Fortran intrinsics via the linalg dialect vs the runtime library."""

import math

from repro.harness import format_table
from repro.service import run_tables


def test_table3_intrinsics(benchmark):
    table = benchmark.pedantic(lambda: run_tables(["table3"]),
                               iterations=1, rounds=1)["tables"]["table3"]
    print()
    print(format_table(table))
    for row in table.rows:
        ours = row.measured["ours-serial"]
        flang = row.measured["flang-v20"]
        # "leveraging the linalg dialect always delivers better performance
        #  compared to the runtime library approach of Flang" (serial)
        assert ours <= flang * 1.05, f"{row.label}: {ours} vs {flang}"
    # threading helps the two non-reduction intrinsics (transpose, matmul)
    for label in ("transpose", "matmul"):
        row = table.row(label)
        assert row.measured["ours-threaded"] < row.measured["ours-serial"]
    # the paper's scf.parallel conversion does not support reductions yet
    assert math.isnan(table.row("dotproduct").measured["ours-threaded"])
    assert math.isnan(table.row("sum").measured["ours-threaded"])
