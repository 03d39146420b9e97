"""Self-healing compilation: crash recovery, watchdog timeouts, poison-job
quarantine, and corrupt-payload-as-miss at every store layer."""

import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.service import ArtifactCache, CompileJob, CompileService
from repro.service import faults
from repro.service import scheduler as scheduler_mod
from repro.service.faults import FaultPlan
from repro.service.scheduler import (DEFAULT_JOB_ATTEMPTS,
                                     DEFAULT_JOB_TIMEOUT, JOB_ATTEMPTS_ENV,
                                     JOB_TIMEOUT_ENV)
from repro.service.sharded import ShardedStore

JOBS = [CompileJob("ours", "sum"), CompileJob("ours", "dotproduct")]


class TestSelfHealingPool:
    def test_worker_crash_on_first_attempt_recovers(self):
        """os._exit in a worker breaks the whole pool; the scheduler must
        rebuild it, requeue the casualties, and finish the batch clean."""
        plan = FaultPlan.from_spec(
            "seed=1;worker.crash:p=1,key=ours/dotproduct,attempt=0")
        with faults.install(plan):
            service = CompileService(ArtifactCache(), max_workers=2)
            report = service.submit(JOBS)
        assert not report.failures
        counters = service.self_heal_counters()
        assert counters["pool_crashes"] >= 1
        # the innocent sibling is also requeued when the pool breaks
        assert counters["retries"] >= 1
        assert counters["quarantined"] == 0
        assert service.execute(CompileJob("ours", "dotproduct")).ok

    def test_always_crashing_job_is_quarantined(self):
        """A job that kills its worker on every attempt must land as a
        cached poison artifact; batch-mates complete normally."""
        plan = FaultPlan.from_spec("seed=1;worker.crash:p=1,key=ours/sum")
        with faults.install(plan):
            service = CompileService(ArtifactCache(), max_workers=2)
            report = service.submit(JOBS)
        counters = service.self_heal_counters()
        assert counters["quarantined"] == 1
        assert len(report.failures) == 1
        workload, error = report.failures[0]
        assert workload == "sum" and "quarantined" in error
        payload = service.cache.get(CompileJob("ours", "sum").safe_key())
        assert payload["poisoned"] and not payload["ok"]
        # the poison artifact fails fast from the cache — no more crashes
        artifact = service.execute(CompileJob("ours", "sum"))
        assert not artifact.ok and artifact.cached
        # the innocent batch-mate made it
        assert service.execute(CompileJob("ours", "dotproduct")).ok

    def test_watchdog_kills_and_requeues_hung_workers(self):
        plan = FaultPlan.from_spec(
            "seed=1;worker.hang:p=1,key=ours/sum,attempt=0,delay=60")
        with faults.install(plan):
            service = CompileService(ArtifactCache(), max_workers=2,
                                     job_timeout=2.0)
            started = time.monotonic()
            report = service.submit(JOBS)
            elapsed = time.monotonic() - started
        assert not report.failures
        counters = service.self_heal_counters()
        assert counters["timeouts"] >= 1
        assert elapsed < 30, "watchdog must not wait for the 60s sleep"
        assert service.execute(CompileJob("ours", "sum")).ok

    def test_timeout_quarantine_does_not_poison_the_disk_store(
            self, tmp_path):
        """A job quarantined for *timeouts* (maybe just an overloaded
        machine) fails fast in this process only; the shared disk store
        stays clean so the next process re-attempts from scratch."""
        plan = FaultPlan.from_spec(
            "seed=1;worker.hang:p=1,key=ours/sum,attempt=*,delay=60")
        with faults.install(plan):
            service = CompileService(ArtifactCache(cache_dir=str(tmp_path)),
                                     max_workers=2, job_timeout=1.0,
                                     max_attempts=2)
            report = service.submit(JOBS)
        assert service.self_heal_counters()["quarantined"] == 1
        assert len(report.failures) == 1
        key = CompileJob("ours", "sum").safe_key()
        # in-process: the transient poison serves from the memory tier
        artifact = service.execute(CompileJob("ours", "sum"))
        assert not artifact.ok and artifact.cached
        # on disk: nothing was persisted under the quarantined key
        assert service.cache.store.get(key) is None
        # a fresh process (no fault plan) compiles the job normally
        fresh = CompileService(ArtifactCache(cache_dir=str(tmp_path)))
        assert fresh.execute(CompileJob("ours", "sum")).ok

    def test_crash_quarantine_is_durable_across_processes(self, tmp_path):
        """Deterministic worker-killers *do* earn a persistent poison
        artifact: a later process fails fast instead of re-crashing."""
        plan = FaultPlan.from_spec("seed=1;worker.crash:p=1,key=ours/sum")
        with faults.install(plan):
            service = CompileService(ArtifactCache(cache_dir=str(tmp_path)),
                                     max_workers=2)
            service.submit(JOBS)
        assert service.self_heal_counters()["quarantined"] == 1
        fresh = CompileService(ArtifactCache(cache_dir=str(tmp_path)))
        artifact = fresh.execute(CompileJob("ours", "sum"))
        assert not artifact.ok and artifact.cached
        assert fresh.recompilations == 0

    def test_worker_crash_during_submission_recovers(self, monkeypatch):
        """BrokenProcessPool raised synchronously by pool.submit() (worker
        died in the initializer) must rebuild the generation, not abort
        the batch."""
        real_pool = scheduler_mod.ProcessPoolExecutor
        state = {"broken": True}

        class FlakySubmitPool(real_pool):
            def submit(self, *args, **kwargs):
                if state.pop("broken", None):
                    raise BrokenProcessPool(
                        "worker died during submission")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(scheduler_mod, "ProcessPoolExecutor",
                            FlakySubmitPool)
        service = CompileService(ArtifactCache(), max_workers=2)
        report = service.submit(JOBS)
        assert not report.failures
        counters = service.self_heal_counters()
        assert counters["pool_crashes"] >= 1
        assert counters["retries"] >= len(JOBS)
        assert counters["quarantined"] == 0

    def test_env_knobs_configure_timeout_and_attempts(self, monkeypatch):
        monkeypatch.setenv(JOB_TIMEOUT_ENV, "5.5")
        monkeypatch.setenv(JOB_ATTEMPTS_ENV, "7")
        service = CompileService(ArtifactCache())
        assert service.job_timeout == 5.5
        assert service.max_attempts == 7
        monkeypatch.setenv(JOB_TIMEOUT_ENV, "junk")
        monkeypatch.setenv(JOB_ATTEMPTS_ENV, "junk")
        service = CompileService(ArtifactCache())
        assert service.job_timeout == DEFAULT_JOB_TIMEOUT
        assert service.max_attempts == DEFAULT_JOB_ATTEMPTS

    def test_counters_ride_the_service_counter_dict(self):
        service = CompileService(ArtifactCache())
        counters = service.counters()
        for name in ("retries", "timeouts", "pool_crashes", "quarantined",
                     "corrupt_payloads"):
            assert counters[name] == 0


class TestCorruptPayloadsAreMisses:
    def test_torn_shard_write_is_survived(self, tmp_path):
        """A truncated shard file (torn write) must read back as empty and
        be overwritten by the next store — never an error."""
        plan = FaultPlan.from_spec("seed=1;sharded.write.torn:p=1")
        store = ShardedStore(str(tmp_path))
        with faults.install(plan, export=False):
            store.put("deadbeef" * 8, {"ok": True})
        clean = ShardedStore(str(tmp_path))
        assert clean.get("deadbeef" * 8) is None

    def test_crc_mismatch_is_a_counted_miss(self, tmp_path):
        plan = FaultPlan.from_spec("seed=1;sharded.payload.corrupt:p=1")
        store = ShardedStore(str(tmp_path))
        store.put("deadbeef" * 8, {"ok": True, "stats": {"ops": 3}})
        with faults.install(plan, export=False):
            assert store.get("deadbeef" * 8) is None
        assert store.corrupt_entries >= 1
        # untampered read still verifies
        assert store.get("deadbeef" * 8) == {"ok": True, "stats": {"ops": 3}}

    def test_injected_read_error_degrades_to_empty_shard(self, tmp_path):
        plan = FaultPlan.from_spec("seed=1;sharded.read.error:p=1")
        store = ShardedStore(str(tmp_path))
        store.put("deadbeef" * 8, {"ok": True})
        with faults.install(plan, export=False):
            assert ShardedStore(str(tmp_path)).get("deadbeef" * 8) is None

    def test_corrupt_cached_artifact_recompiles(self, tmp_path):
        """End to end: a disk payload mangled above the checksum layer is a
        counted miss at the scheduler, and the job recompiles."""
        job = CompileJob("ours", "sum")
        warm = CompileService(ArtifactCache(cache_dir=str(tmp_path)))
        assert warm.execute(job).ok
        plan = FaultPlan.from_spec("seed=1;store.payload.corrupt:p=1")
        with faults.install(plan, export=False):
            cold = CompileService(ArtifactCache(cache_dir=str(tmp_path)))
            artifact = cold.execute(job)
        assert artifact.ok and not artifact.cached
        assert cold.recompilations == 1
        assert cold.self_heal_counters()["corrupt_payloads"] >= 1

    def test_corrupt_cached_payload_is_a_submit_miss(self, tmp_path):
        """submit() must classify hits with a *validating* read: an entry
        whose payload fails deserialisation is a hit to contains() but None
        to every get(), so contains()-based hit detection would skip the
        recompile and then produce no artifact at all — permanently."""
        warm = CompileService(ArtifactCache(cache_dir=str(tmp_path)))
        assert not warm.submit(JOBS).failures
        plan = FaultPlan.from_spec("seed=1;store.payload.corrupt:p=1")
        with faults.install(plan, export=False):
            cold = CompileService(ArtifactCache(cache_dir=str(tmp_path)))
            report = cold.submit(JOBS)
        assert report.cache_hits == 0
        assert report.executed == len(JOBS)
        assert not report.failures
        assert cold.self_heal_counters()["corrupt_payloads"] >= len(JOBS)
        # the recompile overwrote the corrupt entries: a clean reader hits
        clean = CompileService(ArtifactCache(cache_dir=str(tmp_path)))
        fresh_report = clean.submit(JOBS)
        assert fresh_report.cache_hits == len(JOBS)
        assert fresh_report.executed == 0

    def test_pre_crc_entries_are_still_readable(self, tmp_path):
        """Entries written before the checksum field existed (no ``"c"``)
        are accepted unverified — the upgrade is backward compatible."""
        store = ShardedStore(str(tmp_path))
        store.put("deadbeef" * 8, {"ok": True})
        import json
        shard = next((tmp_path / "shards").glob("*.json"))
        data = json.loads(shard.read_text())
        for entry in data["entries"].values():
            entry.pop("c", None)
        shard.write_text(json.dumps(data))
        clean = ShardedStore(str(tmp_path))
        assert clean.get("deadbeef" * 8) == {"ok": True}
