"""Figure 3 / Section VI-A: effect of the affine vectorisation and tiling
pipeline on the linalg-backed kernels."""

from repro.service import run_tables, section4_profile


def test_figure3_vectorisation_speedup(benchmark):
    table = benchmark.pedantic(
        lambda: run_tables(["figure3"], benchmarks=["dotproduct"]),
        iterations=1, rounds=1)["tables"]["figure3"]
    row = table.rows[0]
    print()
    print({k: round(v, 3) for k, v in row.measured.items()})
    # vectorisation (and unrolling) gave ~2x on dot product in the paper
    assert row.measured["vectorised"] <= row.measured["scalar"]


def test_section4_instruction_mix_profile(benchmark):
    profiles = benchmark.pedantic(lambda: section4_profile("induct"),
                                  iterations=1, rounds=1)
    flang = profiles["flang-v20"]
    ours = profiles["our-approach"]
    # Section IV: Flang issues far more instructions than needed (704e9 vs
    # 383e9 for induct) and none of its FP work is vectorised
    assert flang["vectorised_fp_fraction"] == 0.0
    assert flang["total_instructions"] > ours["total_instructions"]
