"""CompileService behaviour: hit/miss accounting, disk persistence, batch
deduplication and the zero-recompilation guarantee for warm table runs."""

import math
import subprocess
import sys
from pathlib import Path

from repro.service import (ArtifactCache, CompileJob, CompileService,
                           ServiceError, enumerate_jobs, jobs_for, run_job,
                           run_tables)
from repro.workloads import jacobi

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_service(tmp_path=None, **kwargs):
    cache_dir = str(tmp_path / "cache") if tmp_path is not None else None
    return CompileService(ArtifactCache(cache_dir=cache_dir), **kwargs)


class TestExecute:
    def test_miss_then_hit(self):
        service = make_service()
        job = CompileJob("ours", "dotproduct")
        first = service.execute(job)
        second = service.execute(CompileJob("ours", "dotproduct"))
        assert first.ok and second.ok
        assert not first.cached and second.cached
        assert service.recompilations == 1
        assert service.counters()["memory_hits"] == 1
        assert second.stats.total_ops == first.stats.total_ops
        assert second.printed == first.printed

    def test_artifact_records_stage_ir(self):
        artifact = make_service().execute(CompileJob("ours", "sum"))
        assert "func.func" in artifact.module_text

    def test_deterministic_failures_are_cached(self):
        service = make_service()
        job_kwargs = dict(workload_kwargs=(("openacc", True),), gpu=True)
        first = service.execute(CompileJob("flang", "pw-advection", **job_kwargs))
        second = service.execute(CompileJob("flang", "pw-advection", **job_kwargs))
        assert not first.ok and not second.ok
        assert "FlangCodegenError" in second.error
        assert second.cached and service.recompilations == 1
        try:
            second.raise_for_failure()
        except ServiceError as exc:
            assert "acc dialect" in str(exc)
        else:
            raise AssertionError("raise_for_failure did not raise")


class TestPersistence:
    def test_disk_cache_survives_service_instances(self, tmp_path):
        cold = make_service(tmp_path)
        cold.execute(CompileJob("ours", "dotproduct"))
        assert cold.recompilations == 1

        warm = make_service(tmp_path)
        artifact = warm.execute(CompileJob("ours", "dotproduct"))
        assert artifact.cached
        assert warm.recompilations == 0
        assert warm.counters()["disk_hits"] == 1

    def test_warm_stats_reproduce_cold_runtimes(self, tmp_path):
        # the modeled runtime is a pure function of the cached stats, so a
        # disk round trip must reproduce it exactly
        cold = run_tables(["figure3"], service=make_service(tmp_path))
        warm_service = make_service(tmp_path)
        warm = run_tables(["figure3"], service=warm_service)
        assert warm_service.recompilations == 0
        assert cold["tables"]["figure3"].rows[0].measured == \
            warm["tables"]["figure3"].rows[0].measured

    def test_corrupt_disk_entry_is_a_miss_not_an_error(self, tmp_path):
        service = make_service(tmp_path)
        job = CompileJob("ours", "dotproduct")
        service.execute(job)
        for shard in (tmp_path / "cache" / "shards").glob("*.json"):
            shard.write_text("{truncated")
        service.cache.clear_memory()
        artifact = service.execute(CompileJob("ours", "dotproduct"))
        assert artifact.ok and service.recompilations == 2


class TestBatch:
    def test_submit_dedupes_and_counts(self):
        service = make_service()
        jobs = [CompileJob("ours", "dotproduct"),
                CompileJob("ours", "dotproduct"),      # duplicate
                CompileJob("flang", "dotproduct"),
                # dedupes: flang's schema drops the foreign option
                CompileJob("flang", "dotproduct", options={"vector_width": 8})]
        report = service.submit(jobs, max_workers=1)
        assert report.submitted == 4
        assert report.unique == 2
        assert report.executed == 2
        report2 = service.submit(jobs, max_workers=1)
        assert report2.cache_hits == 2 and report2.executed == 0
        assert service.recompilations == 2

    def test_submit_preserves_attached_variant_workloads(self):
        # a job whose attached workload is not reproducible from its spec
        # (OpenMP variant, no workload_kwargs) must not be shipped to the
        # pool as the plain registry workload: the batch has to populate
        # the key the submitter computed
        service = make_service()
        job = CompileJob("flang", "jacobi", workload=jacobi(openmp=True))
        report = service.submit([job, CompileJob("flang", "jacobi")],
                                max_workers=4)
        assert report.executed == 2
        assert service.cache.contains(job.key())
        again = service.execute(
            CompileJob("flang", "jacobi", workload=jacobi(openmp=True)))
        assert again.cached

    def test_unresolvable_job_fails_the_job_not_the_batch(self):
        service = make_service()
        report = service.submit([CompileJob("ours", "no-such-workload"),
                                 CompileJob("ours", "dotproduct")],
                                max_workers=1)
        assert report.executed == 2
        assert len(report.failures) == 1
        assert "no-such-workload" in report.failures[0][1] or \
            "KeyError" in report.failures[0][1]
        artifact = run_job(CompileJob("ours", "no-such-workload"))
        assert not artifact.ok and "KeyError" in artifact.error

    def test_pool_fanout_matches_in_process_results(self, tmp_path):
        jobs = jobs_for("table3", benchmarks=["dotproduct", "sum"])
        pooled = make_service(tmp_path, max_workers=4)
        report = pooled.submit(jobs)
        assert report.executed == report.unique > 0
        serial = make_service()
        for job in jobs_for("table3", benchmarks=["dotproduct", "sum"]):
            mine = serial.execute(job)
            theirs = pooled.execute(job)
            assert theirs.cached
            assert mine.stats.summary() == theirs.stats.summary()
            assert mine.printed == theirs.printed


class TestWarmTables:
    def test_same_table_twice_recompiles_nothing(self):
        service = make_service()
        benchmarks = ["dotproduct", "transpose"]
        first = run_tables(["table3"], service=service, benchmarks=benchmarks)
        compiles = service.recompilations
        assert compiles > 0
        second = run_tables(["table3"], service=service, benchmarks=benchmarks)
        assert service.recompilations == compiles, \
            "second run must be served entirely from the cache"
        first, second = (run["tables"]["table3"].measured_matrix()
                          for run in (first, second))
        for label, row in first.items():
            for column, value in row.items():
                other = second[label][column]
                assert value == other or (math.isnan(value)
                                          and math.isnan(other))

    def test_cells_sharing_a_job_share_one_artifact(self):
        # Table I's four columns read one flang job: one compile per row
        service = make_service()
        result = run_tables(["table1"], service=service,
                            benchmarks=["ac", "linpk"], max_workers=1)
        assert result["batch"].submitted == 2
        assert service.recompilations == 2

    def test_run_tables_batch_prewarms_the_table_measurements(self, tmp_path):
        service = make_service(tmp_path)
        result = run_tables(tables=["figure3"], service=service, max_workers=1)
        assert result["batch"].executed == 3
        assert service.recompilations == 3, \
            "regenerating the table must be pure cache hits after the batch"
        row = result["tables"]["figure3"].rows[0]
        assert all(math.isfinite(v) for v in row.measured.values())

    def test_enumerate_jobs_covers_all_tables(self):
        jobs = enumerate_jobs()
        assert len(jobs) > 20
        flows = {job.flow for job in jobs}
        assert flows == {"ours", "flang"}


class TestCli:
    def test_run_tables_cli_cold_and_warm(self, tmp_path):
        cmd = [sys.executable, "-m", "repro.service", "run-tables",
               "--tables", "figure3", "--jobs", "2", "--quiet",
               "--cache-dir", str(tmp_path / "cache"),
               "--summary", str(tmp_path / "summary.json")]
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        cold = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=str(REPO_ROOT), check=True)
        assert "3 compiled" in cold.stdout
        warm = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=str(REPO_ROOT), check=True)
        assert "3 cache hits" in warm.stdout
        assert "0 recompilations" in warm.stdout
        assert (tmp_path / "summary.json").exists()
