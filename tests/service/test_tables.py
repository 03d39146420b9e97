"""The table spec pinned end to end: every table's values, the order its
artifacts are first submitted in, which cells are DNC, and how a cell
that should have a value but has no artifact is reported."""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import paper_data
from repro.service import (ArtifactCache, CompileService, TableError,
                           enumerate_jobs, jobs_for, run_tables)

REPO_ROOT = Path(__file__).resolve().parents[2]

TABLE_DIGESTS = {
    "table1": "0b10654317aba513", "table2": "9971a51c15e509b7",
    "table3": "00de63b4babfea8c", "table4": "36d794f6da9124b2",
    "table5": "a022a8bdc483698e", "figure3": "e1ab7921ce699f87",
}

PAPER = {"table1": paper_data.TABLE1, "table2": paper_data.TABLE2,
         "table3": paper_data.TABLE3, "table4": paper_data.TABLE4,
         "table5": paper_data.TABLE5}


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_unique_keys_keep_their_submission_order():
    keys = list(dict.fromkeys(job.key() for job in enumerate_jobs()))
    assert len(keys) == 46
    assert digest(keys) == "0061482bbd6bf68e"


def test_six_tables_from_one_batch_and_one_read_per_artifact(tmp_path):
    service = CompileService(ArtifactCache(str(tmp_path / "store")))
    reads = []
    execute = service.execute
    service.execute = lambda job: reads.append(job.key()) or execute(job)
    result = run_tables(service=service, max_workers=2)

    batch = result["batch"]
    assert (batch.submitted, batch.unique, batch.executed) == (81, 46, 46)
    # the tables phase reads each artifact once and compiles nothing
    assert service.recompilations == batch.executed
    assert sorted(reads) == sorted(set(reads)) and len(reads) == 46

    tables = result["tables"]
    assert {name: digest(table.measured_matrix())
            for name, table in tables.items()} == TABLE_DIGESTS
    dnc = {(name, row.label, column)
           for name, table in tables.items() for row in table.rows
           for column, value in row.measured.items() if math.isnan(value)}
    assert dnc == {("table1", "aermod", "flang-v20"),
                   ("table3", "dotproduct", "ours-threaded"),
                   ("table3", "sum", "ours-threaded")}
    for name, table_name, column in dnc:
        assert PAPER[name][table_name][column] is None


def _poison_threaded_matmul(cache_dir: Path) -> None:
    job, = (job for job in jobs_for("table3", ["matmul"]) if job.threads > 1)
    ArtifactCache(str(cache_dir)).put(job.key(), {
        "key": job.key(), "flow": job.flow, "workload": job.workload_name,
        "ok": False, "stats": None, "printed": [], "module_text": "",
        "pipeline": "", "poisoned": True, "error": "poisoned for a test"})


def test_a_failed_cell_raises_table_error_naming_it(tmp_path):
    _poison_threaded_matmul(tmp_path / "store")
    service = CompileService(ArtifactCache(str(tmp_path / "store")))
    with pytest.raises(TableError, match="table3 row 'matmul' column "
                                         "'ours-threaded': poisoned"):
        run_tables(["table3"], service=service, benchmarks=["matmul"])


def test_run_tables_cli_exits_non_zero_naming_the_failed_cell(tmp_path):
    _poison_threaded_matmul(tmp_path / "store")
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    run = subprocess.run(
        [sys.executable, "-m", "repro.service", "run-tables", "--no-daemon",
         "--tables", "table3", "--benchmarks", "matmul",
         "--cache-dir", str(tmp_path / "store")],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT))
    assert run.returncode == 1
    assert "table3 row 'matmul' column 'ours-threaded'" in run.stderr
    assert "DNC" not in run.stdout
