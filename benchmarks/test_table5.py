"""Table V: OpenACC pw-advection on the V100 GPU, ours vs nvfortran."""

from repro.harness import format_table
from repro.service import run_tables


def test_table5_gpu_offload(benchmark):
    table = benchmark.pedantic(lambda: run_tables(["table5"]),
                               iterations=1, rounds=1)["tables"]["table5"]
    print()
    print(format_table(table))
    ours = [row.measured["our-approach"] for row in table.rows]
    nvf = [row.measured["nvfortran"] for row in table.rows]
    # runtime grows with the number of grid cells for both compilers
    assert ours == sorted(ours)
    assert nvf == sorted(nvf)
    # "the Nvidia compiler outperforms our approach ... arguably fairly close"
    for o, n in zip(ours, nvf):
        assert o / n < 2.5
