"""The compilation service: cache-aware job execution and batch fanout.

:class:`CompileService` is the one entry point every measurement takes:

* :meth:`~CompileService.execute` — single job, cache-first, in-process on a
  miss.  This is what the tables read each artifact through.
* :meth:`~CompileService.submit` — a batch of jobs; duplicates and cache
  hits are stripped, the remaining misses fan out over a
  ``concurrent.futures`` process pool (falling back to in-process execution
  if worker processes are unavailable or die).

The service counts every recompilation it performs, so "a warm run
recompiles nothing" is directly assertable: run the flow twice and check
``service.recompilations`` did not move.

**Self-healing pool execution**: the process-pool path survives worker
crashes and hung compiles instead of aborting batches.  A watchdog kills a
pool that has made no progress for ``job_timeout`` seconds and requeues the
unfinished jobs; a :class:`~concurrent.futures.process.BrokenProcessPool`
(one worker dying nukes every sibling future) rebuilds the pool and retries
the survivors; after two broken pool generations the scheduler escalates to
**isolation mode** — one job per single-worker pool — so the crashing job is
identified precisely and its innocent batch-mates complete.  A job that
still crashes or times out after ``max_attempts`` attempts is **quarantined**:
an ``ok=False`` poison artifact is cached under its key (``poisoned: True``)
so one pathological kernel fails fast forever instead of taking fresh
batches down with it.  Crash-driven quarantines persist to the shared disk
store; timeout-driven ones stay in this process's memory tier only (flagged
``transient``), because a watchdog timeout may just mean an overloaded
machine and must not poison the key for every future process.  All of it is
observable: ``retries``, ``timeouts``,
``pool_crashes`` and ``quarantined`` ride :meth:`CompileService.counters`
and the daemon's ``metrics``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..counters import PROCESS, Counters
from ..machine import jit as machine_jit
from . import faults
from .cache import ArtifactCache
from .jobs import (CompiledArtifact, CompileJob, execute_spec_timed,
                   run_job)

#: Seconds of zero pool progress before the watchdog declares a hang.
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"
DEFAULT_JOB_TIMEOUT = 120.0

#: Total attempts (first run + retries) a pool job gets before quarantine.
JOB_ATTEMPTS_ENV = "REPRO_JOB_RETRIES"
DEFAULT_JOB_ATTEMPTS = 3

#: Broken pool generations tolerated before isolation mode (1 job / pool).
_ISOLATE_AFTER_BREAKS = 2

#: Watchdog poll interval while pool futures are outstanding.
_WATCHDOG_TICK = 0.2


def _env_number(name: str, default):
    """``$name`` parsed as ``default``'s type; unset or junk reads as
    ``default``."""
    try:
        return type(default)(os.environ[name])
    except (KeyError, ValueError):
        return default


def bind_jit_store(cache: Optional[ArtifactCache]) -> None:
    """Point this process's jit translation tier at ``cache``, or unbind it
    when ``cache`` does not persist: a memory-only cache would cost a
    payload encode per translation for no cross-process benefit, since the
    jit's own code cache already serves this process."""
    machine_jit.set_translation_store(
        cache if cache is not None and cache.persistent else None)


def _pool_worker_init(cache_dir: Optional[str]) -> None:
    """Runs once in every pool worker: attach the parent's sharded store.

    A worker starts with a memory-only jit tier and an empty function
    store; this binds the jit tier to the persistent cache directory the
    parent service uses, so translations compiled in workers persist too
    (shard writes are atomic, so concurrent writers are safe).  The
    function store stays the worker's own: it has no disk tier.
    """
    faults.rearm_from_env()
    if not cache_dir:
        return
    try:
        bind_jit_store(ArtifactCache(cache_dir=cache_dir))
    except Exception:
        pass    # workers still compute correctly with a process-local tier


@dataclass
class BatchReport:
    """Outcome of one :meth:`CompileService.submit` call."""

    submitted: int = 0
    unique: int = 0
    cache_hits: int = 0
    executed: int = 0
    pool_executed: int = 0
    failures: List[Tuple[str, str]] = field(default_factory=list)
    workers: int = 1
    #: Per-executed-job compile seconds, keyed by cache key.  Worker-side
    #: time for pool jobs (queueing excluded); wall time for in-process
    #: ones.  The daemon's latency percentiles are built from this.
    timings: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"submitted": self.submitted, "unique": self.unique,
                "cache_hits": self.cache_hits, "executed": self.executed,
                "pool_executed": self.pool_executed, "workers": self.workers,
                "failures": list(self.failures)}


class CompileService:
    """Content-addressed, batch-capable compilation service."""

    def __init__(self, cache: Optional[ArtifactCache] = None,
                 max_workers: int = 1,
                 job_timeout: Optional[float] = None,
                 max_attempts: Optional[int] = None):
        self.cache = cache if cache is not None else ArtifactCache()
        self.max_workers = max(1, max_workers)
        #: Watchdog limit: seconds of zero pool progress before unfinished
        #: jobs are killed and requeued (0 disables the watchdog).
        self.job_timeout = (_env_number(JOB_TIMEOUT_ENV, DEFAULT_JOB_TIMEOUT)
                            if job_timeout is None else job_timeout)
        #: Attempts (including the first) before a crashing/hanging job is
        #: quarantined as a poison artifact.
        self.max_attempts = max(1, _env_number(JOB_ATTEMPTS_ENV,
                                               DEFAULT_JOB_ATTEMPTS)
                                if max_attempts is None else max_attempts)
        #: ``recompilations``, ``batches`` and the self-healing accounting —
        #: ``retries`` (pool jobs requeued after a crash/timeout),
        #: ``timeouts`` (jobs killed by the watchdog), ``pool_crashes``
        #: (broken/hung pool generations torn down), ``quarantined`` (keys
        #: landed as poison artifacts), ``corrupt_payloads`` (cached payloads
        #: rejected on read) — plus, under ``function.*`` / ``jit.*``, the
        #: registry deltas pool workers shipped home.
        self._counters = Counters()
        # Jit translations persist (and survive restarts) alongside this
        # service's whole-module artifacts when the cache has a disk tier.
        bind_jit_store(self.cache)

    @property
    def recompilations(self) -> int:
        return self._counters.get("recompilations")

    # --------------------------------------------------------------- single
    def _cached_artifact(self, key: str) -> Optional[CompiledArtifact]:
        """The cached artifact for ``key``, or ``None`` — a payload that no
        longer deserialises (torn write, bit rot, foreign writer) is a
        counted *miss*, never an error."""
        payload = self.cache.get(key)
        if payload is None:
            return None
        try:
            return CompiledArtifact.from_payload(payload, cached=True)
        except Exception:
            self._counters.inc("corrupt_payloads")
            return None

    def execute(self, job: CompileJob) -> CompiledArtifact:
        """Serve one job: from the cache if possible, else compile now."""
        key = job.safe_key()
        artifact = self._cached_artifact(key)
        if artifact is not None:
            return artifact
        artifact = run_job(job)
        self._counters.inc("recompilations")
        self.cache.put(key, artifact.to_payload())
        return artifact

    # ---------------------------------------------------------------- batch
    def submit(self, jobs: Sequence[CompileJob],
               max_workers: Optional[int] = None) -> BatchReport:
        """Dedupe, strip cache hits, fan misses out, populate the cache."""
        workers = self.max_workers if max_workers is None else max(1, max_workers)
        report = BatchReport(submitted=len(jobs), workers=workers)
        self._counters.inc("batches")

        unique: Dict[str, CompileJob] = {}
        for job in jobs:
            unique.setdefault(job.safe_key(), job)
        report.unique = len(unique)

        misses: List[CompileJob] = []
        for key, job in unique.items():
            # a validating read, not contains(): an entry whose payload no
            # longer deserialises (torn write, CRC mismatch) would be a hit
            # to contains() but None to every get(), so the job would never
            # recompile and never produce an artifact
            if self._cached_artifact(key) is not None:
                report.cache_hits += 1
            else:
                misses.append(job)

        results = self._execute_misses(misses, workers, report)
        report.timings = {key: elapsed
                          for key, (_, elapsed) in results.items()
                          if elapsed is not None}
        results = {key: payload for key, (payload, _) in results.items()}
        for key, payload in results.items():
            # transient quarantines (watchdog timeouts) stay in the memory
            # tier: an overloaded machine must not poison the shared disk
            # store for every future process
            self.cache.put(key, payload,
                           durable=not payload.get("transient", False))
            if not payload["ok"]:
                report.failures.append((payload["workload"], payload["error"]))
        report.executed = len(results)
        self._counters.inc("recompilations", len(results))
        return report

    @staticmethod
    def _pool_safe(job: CompileJob) -> bool:
        """Can this job cross a process boundary without changing meaning?

        A job built from a live workload object ships only its spec to the
        pool; that is safe only if re-resolving the spec via the registry
        reproduces the same cache key (it will not for, say, an attached
        OpenMP variant submitted without the matching ``workload_kwargs``).

        Similarly, the flow registry is per-process: a worker only knows
        the flows registered at import time (:mod:`repro.flows.builtin`),
        so jobs naming a flow registered elsewhere — or an unknown flow —
        stay in-process, where the caller's registry (and the caller's
        failure-artifact key) applies.
        """
        from ..flows import get_flow
        from ..flows import builtin as builtin_flows
        try:
            flow = get_flow(job.flow)
        except Exception:
            return False
        if type(flow).__module__ != builtin_flows.__name__:
            return False
        if job.workload is None:
            return True
        try:
            return CompileJob.from_spec(job.spec()).key() == job.key()
        except Exception:
            return False

    def _execute_misses(
            self, misses: List[CompileJob], workers: int,
            report: BatchReport
    ) -> Dict[str, Tuple[Dict[str, Any], Optional[float]]]:
        results: Dict[str, Tuple[Dict[str, Any], Optional[float]]] = {}
        local: List[CompileJob] = []
        remaining: List[CompileJob] = []
        for job in misses:
            (remaining if self._pool_safe(job) else local).append(job)
        if workers > 1 and len(remaining) > 1:
            remaining = self._execute_pool(remaining, workers, report,
                                           results)
        for job in remaining + local:
            # run_job on the live job (not its spec) so attached workloads stay
            # attached
            started = time.perf_counter()
            artifact = run_job(job)
            results[artifact.key] = (artifact.to_payload(),
                                     time.perf_counter() - started)
        return results

    # ------------------------------------------------------- self-healing pool
    def _execute_pool(
            self, jobs: List[CompileJob], workers: int, report: BatchReport,
            results: Dict[str, Tuple[Dict[str, Any], Optional[float]]]
    ) -> List[CompileJob]:
        """Run pool-safe misses with crash/hang recovery.

        Jobs start batched at full width.  Crash and timeout casualties are
        requeued with a bumped attempt ordinal; after
        :data:`_ISOLATE_AFTER_BREAKS` broken pool generations each pending
        job runs alone in a single-worker pool so the poison job — if there
        is one — is identified exactly.  Jobs that exhaust ``max_attempts``
        are quarantined via :meth:`_quarantine`.  Returns the jobs that must
        fall back to in-process execution (pool never started, or a
        non-crash infrastructure error such as unpicklable state).
        """
        pending: List[Tuple[CompileJob, int]] = [(job, 0) for job in jobs]
        fallback: List[CompileJob] = []
        breaks = 0
        while pending:
            if breaks >= _ISOLATE_AFTER_BREAKS:
                batch, pending = [pending[0]], pending[1:]
                width = 1
            else:
                batch, pending = pending, []
                width = min(workers, len(batch))
            retry, leftover, broke = self._run_pool_once(batch, width,
                                                         report, results)
            fallback.extend(job for job, _ in leftover)
            if broke:
                breaks += 1
                self._counters.inc("pool_crashes")
            for job, attempt, reason, durable in retry:
                if attempt + 1 >= self.max_attempts:
                    self._quarantine(job, reason, attempt + 1, results,
                                     durable=durable)
                else:
                    self._counters.inc("retries")
                    pending.append((job, attempt + 1))
        return fallback

    def _run_pool_once(
            self, batch: List[Tuple[CompileJob, int]], width: int,
            report: BatchReport,
            results: Dict[str, Tuple[Dict[str, Any], Optional[float]]]
    ) -> Tuple[List[Tuple[CompileJob, int, str, bool]],
               List[Tuple[CompileJob, int]], bool]:
        """One pool generation: returns ``(retry, leftover, broke)``.

        ``retry`` holds crash/timeout casualties as ``(job, attempt,
        reason, durable)`` — ``durable`` says whether exhausting the
        attempt budget on this kind of failure earns a *persistent* poison
        artifact (worker crashes do; watchdog timeouts, which may just mean
        an overloaded machine, quarantine in memory only).  ``leftover``
        holds jobs for the in-process fallback, and ``broke`` reports
        whether this generation's pool had to be torn down.
        """
        retry: List[Tuple[CompileJob, int, str, bool]] = []
        leftover: List[Tuple[CompileJob, int]] = []
        try:
            pool = ProcessPoolExecutor(max_workers=width,
                                       initializer=_pool_worker_init,
                                       initargs=(self.cache.cache_dir,))
        except Exception:
            # pool could not start at all (restricted environments)
            return retry, list(batch), False
        broke = False
        hung: "set" = set()
        try:
            futures: Dict[Any, Tuple[CompileJob, int]] = {}
            try:
                for job, attempt in batch:
                    future = pool.submit(execute_spec_timed, job.spec(),
                                         attempt)
                    futures[future] = (job, attempt)
            except BrokenProcessPool:
                # a worker can die *during* submission (e.g. in the pool
                # initializer), which raises synchronously; the jobs that
                # never made it in are crash casualties like any other, so
                # the generation is rebuilt instead of aborting the batch
                broke = True
                for job, attempt in batch[len(futures):]:
                    retry.append((job, attempt,
                                  "worker process crashed during job "
                                  "submission", True))
            outstanding = set(futures)
            last_progress = time.monotonic()
            while outstanding:
                done, outstanding = wait(outstanding,
                                         timeout=_WATCHDOG_TICK,
                                         return_when=FIRST_COMPLETED)
                for future in done:
                    job, attempt = futures[future]
                    try:
                        key, payload, elapsed, delta = future.result()
                    except BrokenProcessPool:
                        broke = True
                        retry.append((job, attempt,
                                      "worker process crashed", True))
                    except Exception:
                        # non-crash infrastructure failure (unpicklable
                        # state, ...): redo in-process, do not burn attempts
                        leftover.append((job, attempt))
                    else:
                        results[key] = (payload, elapsed)
                        report.pool_executed += 1
                        self._counters.merge(delta)
                if done:
                    last_progress = time.monotonic()
                elif (outstanding and self.job_timeout
                        and time.monotonic() - last_progress
                        > self.job_timeout):
                    # watchdog: no job finished for a full timeout window —
                    # kill the pool, requeue everything still outstanding
                    broke = True
                    hung = outstanding
                    self._counters.inc("timeouts", len(outstanding))
                    for future in outstanding:
                        job, attempt = futures[future]
                        retry.append((job, attempt,
                                      f"compile made no progress for "
                                      f"{self.job_timeout:g}s", False))
                    break
        finally:
            if hung:
                self._terminate_pool(pool)
            pool.shutdown(wait=not hung, cancel_futures=True)
        return retry, leftover, broke

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Kill a hung pool's worker processes (best effort)."""
        try:
            processes = list(getattr(pool, "_processes", {}).values())
        except Exception:
            return
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass

    def _quarantine(
            self, job: CompileJob, reason: str, attempts: int,
            results: Dict[str, Tuple[Dict[str, Any], Optional[float]]],
            durable: bool = True
    ) -> None:
        """Land a poison artifact for a job that keeps killing workers.

        The ``ok=False`` payload is cached under the job's key (flagged
        ``poisoned``), so every later submission of the same key fails fast
        from the cache instead of crashing another pool.  Clearing the cache
        entry (or bumping the key schema) lifts the quarantine.

        ``durable=False`` (watchdog timeouts) flags the payload
        ``transient``, and :meth:`submit` then keeps it out of the shared
        disk store: a compile that was merely slow on an overloaded machine
        fails fast for the rest of *this* process but is re-attempted from
        scratch by the next one, instead of poisoning the key for everyone.
        """
        key = job.safe_key()
        payload = {
            "key": key, "flow": job.flow, "workload": job.workload_name,
            "ok": False, "stats": None, "printed": [], "module_text": "",
            "pipeline": "", "poisoned": True,
            "error": (f"quarantined poison job after {attempts} "
                      f"attempt(s): {reason}"),
        }
        if not durable:
            payload["transient"] = True
        results[key] = (payload, None)
        self._counters.inc("quarantined")

    # ------------------------------------------------------------- counters
    def counters(self) -> Dict[str, Any]:
        """The cache's flat totals (all namespaces) plus this service's."""
        merged = self.cache.counters.as_dict()
        merged["recompilations"] = self.recompilations
        merged["batches"] = self._counters.get("batches")
        merged.update(self.self_heal_counters())
        return merged

    def self_heal_counters(self) -> Dict[str, int]:
        """Crash/timeout recovery accounting (chaos sweeps assert on it).
        ``corrupt_payloads`` adds up both places a cached payload can be
        rejected: the store's shape check and artifact deserialisation."""
        heal = {name: self._counters.get(name)
                for name in ("retries", "timeouts", "pool_crashes",
                             "quarantined", "corrupt_payloads")}
        heal["corrupt_payloads"] += \
            self.cache.counters.as_dict().get("corrupt_payloads", 0)
        return heal

    def _tier_counters(self, tier: str) -> Dict[str, Any]:
        """This process's registry plus pool-worker deltas, for one tier."""
        totals = Counters(PROCESS.view(tier).snapshot())
        totals.merge(self._counters.view(tier).snapshot())
        return totals.as_dict()

    def function_counters(self) -> Dict[str, Any]:
        """Function-stage store accounting (live tier)."""
        return self._tier_counters("function")

    def jit_counters(self) -> Dict[str, Any]:
        """Jit translation-cache accounting."""
        return self._tier_counters("jit")


__all__ = ["CompileService", "BatchReport", "bind_jit_store",
           "DEFAULT_JOB_ATTEMPTS", "DEFAULT_JOB_TIMEOUT", "JOB_ATTEMPTS_ENV",
           "JOB_TIMEOUT_ENV"]
