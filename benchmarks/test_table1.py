"""Table I: Flang v20 / Flang v17 / Cray / GNU across the benchmark suite."""

from repro.harness import format_table
from repro.service import run_tables


def test_table1_runtime_comparison(benchmark, table1_benchmarks):
    table = benchmark.pedantic(lambda: run_tables(["table1"], benchmarks=table1_benchmarks),
                               iterations=1, rounds=1)["tables"]["table1"]
    print()
    print(format_table(table))
    # Shape checks from the paper's Table I discussion:
    for row in table.rows:
        if row.label in ("jacobi", "pw-advection", "tra-adv"):
            # "for the stencil benchmarks the Cray compiler delivers
            #  significantly better performance ... Flang producing the
            #  lowest performing executables"
            assert row.measured["cray"] < row.measured["flang-v20"]
            assert row.measured["cray"] < row.measured["gnu"]
    assert len(table.rows) >= 5
