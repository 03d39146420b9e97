"""Table IV: OpenMP speed-up over serial execution (jacobi, pw-advection)."""

from repro.harness import format_table
from repro.service import run_tables


def test_table4_openmp_scaling(benchmark):
    table = benchmark.pedantic(lambda: run_tables(["table4"]),
                               iterations=1, rounds=1)["tables"]["table4"]
    print()
    print(format_table(table))
    by_cores = {int(row.label): row.measured for row in table.rows
                if int(row.label) in (2, 8, 16, 64)}
    # speed-ups grow with core count for both approaches
    assert by_cores[64]["ours-jacobi"] > by_cores[8]["ours-jacobi"] > \
        by_cores[2]["ours-jacobi"]
    assert by_cores[64]["flang-jacobi"] > by_cores[2]["flang-jacobi"]
    # pw-advection saturates around 10x (memory bound) for both approaches
    assert by_cores[64]["ours-pw"] < 35
    assert by_cores[64]["flang-pw"] < 35
    # at large core counts the standard MLIR flow scales jacobi further than
    # Flang (the paper's 72.6x vs 18.4x observation, in shape)
    assert by_cores[64]["ours-jacobi"] > by_cores[64]["flang-jacobi"]
