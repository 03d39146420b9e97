"""Self-test of the end-to-end benchmark (``--quick`` sizes, a few seconds).

Checks the contract, not the numbers: declared names and schema, that every
workload emits exactly the declared metrics with no failed operation, that
``--seed`` decides the generated inputs, and that a wrong expected line is
counted as a failed operation.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import calibrate  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = list(spec.WORKLOAD_NAMES)


def driver(workload: str, trace: int, seed: int = 3):
    completed = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--quick", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_meets_the_contract():
    declared = spec.DECLARED
    assert declared["command"] == ["python3", "benchmarks/e2e/bench.py"]
    assert declared["paths"] == ["benchmarks/e2e"]
    assert 1 <= declared["run_seconds"] <= 60
    assert len(spec.NAMED_PASSES) == 12
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in
               declared["end_to_end"] + declared["per_layer"])
    assert 2 <= len(declared["workloads"]) <= 8
    assert len(declared["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in declared["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_its_declared_metrics(workload):
    result = driver(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {name: unit for name, unit, _, _ in spec.END_TO_END}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(workload="edit_rebuild"):
    result = driver(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {name: unit for name, unit, _ in spec.PER_LAYER}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["machine.parity_mismatches"] == 0
    assert values["daemon.compiled"] > 0
    assert values["trace.overhead_ratio"] > 0
    trace_file = HERE / "out" / f"trace.{workload}.json"
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert events and {"name", "ts", "dur", "args"} <= set(events[0])


def test_seed_decides_generated_inputs():
    for workload in ("compile_cold", "edit_rebuild", "exec_steady",
                     "daemon_miss", "daemon_hit"):
        assert inputs.inputs_digest(workload, 5) \
            == inputs.inputs_digest(workload, 5)
        assert inputs.inputs_digest(workload, 5) \
            != inputs.inputs_digest(workload, 6)
    program = inputs.EditProgram(5)
    assert program.source() == inputs.EditProgram(5).source()
    assert sorted(program.kinds) == sorted(inputs.EditProgram(6).kinds)


def test_edit_program_rota_and_model():
    program = inputs.EditProgram(9, subroutines=5)
    before = list(program.consts)
    edited = {program.edit() for _ in range(5)}
    assert edited == set(range(5))
    assert all(a != b for a, b in zip(before, program.consts))
    assert len(program.model_output()) == 5


def test_wrong_expected_line_is_a_failed_operation(tmp_path):
    expected = inputs.load_expected()
    assert inputs.printed_mismatch(["1 2.0"], ["1 2.0000000001"]) is None
    assert inputs.printed_mismatch(["1 2.0"], ["2 2.0"]) is not None
    assert inputs.printed_mismatch(["1 2.0"], ["1 2.1"]) is not None
    assert inputs.printed_mismatch(["NaN"], ["nan"]) is None

    from recorder import Recorder
    from workloads import OutputChecker
    rec = Recorder()
    checker = OutputChecker(rec)
    good = expected["dotproduct"]
    assert checker.printed("dotproduct", good, "self-test")
    wrong = list(good)
    wrong[0] = wrong[0] + " 1"
    assert not checker.printed("dotproduct", wrong, "self-test")
    assert (rec.attempted, rec.failed) == (2, 1)


def test_speed_trace_normalises_a_slow_machine():
    trace = calibrate.SpeedTrace()
    # a machine twice as slow as the reference for the first second
    trace._samples = [(0.1 * i, calibrate.REF_UNIT_S * (2 if i < 10 else 1))
                      for i in range(21)]
    assert trace.normalise(0.0, 0.5) == pytest.approx(0.25, rel=0.05)
    assert trace.normalise(1.5, 2.0) == pytest.approx(0.5, rel=0.05)
    assert calibrate.SpeedTrace().normalise(1.0, 3.0) == 2.0


def test_percentile_and_compare_verdicts():
    assert bench.percentile([1, 2, 3, 4, 5], 50) == 3
    assert bench.percentile([1, 2, 3, 4, 5], 100) == 5
    steady = {("wall_s", "tables_warm", False): [1.0, 1.01, 0.99, 1.0]}
    slower = {("wall_s", "tables_warm", False): [1.3, 1.31, 1.29, 1.3]}
    noisy = {("wall_s", "tables_warm", False): [0.9, 1.6, 1.0, 1.5]}
    verdict = lambda a, b: bench.compare_rows(a, b)[0]["verdict"]  # noqa: E731
    assert verdict(steady, steady) == "ok"
    assert verdict(steady, slower) == "regressed"
    assert verdict(steady, noisy) == "unresolved"
    # A/A on noisy data: the medians land close, the runs still cannot
    # tell a change of the bound from none
    noisy_again = {("wall_s", "tables_warm", False): [1.55, 0.95, 1.0, 1.5]}
    assert verdict(noisy, noisy_again) == "unresolved"
    # unless every new run beats every base run
    faster = {("wall_s", "tables_warm", False): [0.5, 0.8, 0.55, 0.75]}
    assert verdict(noisy, faster) == "ok"
    # and noise does not excuse runs that are all worse
    crawling = {("wall_s", "tables_warm", False): [1.7, 2.5, 1.8, 2.4]}
    assert verdict(noisy, crawling) == "regressed"
    rate = lambda *v: {("ops_per_s", "exec_steady", False): list(v)}  # noqa: E731
    assert verdict(rate(10, 10.1, 9.9, 10), rate(8, 8.1, 7.9, 8)) == "regressed"
    assert verdict(rate(10, 16, 9, 15), rate(17, 25, 18, 24)) == "ok"
    counts = {("machine.ops", "exec_steady", True): [10]}
    other = {("machine.ops", "exec_steady", True): [11]}
    assert bench.compare_rows(counts, counts)[0]["verdict"] == "ok"
    assert bench.compare_rows(counts, other)[0]["verdict"] == "differs"


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark: non-zero, no result."""
    import shutil
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload",
         "tables_warm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
