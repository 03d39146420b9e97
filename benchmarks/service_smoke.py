#!/usr/bin/env python3
"""Service smoke benchmark: one table cold, warm, and daemon-warm.

Runs Table III + Figure 3 through the compilation service three ways over
one persistent store:

* **cold** — empty cache, every job compiles (process pool of 2);
* **warm** — a fresh in-process service over the same store: pure disk
  hits, zero recompilations;
* **daemon** — a live ``repro.service serve`` daemon on the same store,
  driven twice through the socket so the second batch measures the warm
  long-lived path; the daemon's own ``metrics`` hit rate must clear 0.9.
  A third batch runs under an injected fault plan that drops every
  request's first connection attempt, pricing the client's
  retry/reconnect path: the batch must still complete daemon-served
  (zero degradations) and its overhead plus the retry counters land in
  the report.

Wall-clock numbers go to ``BENCH_service.json`` so CI can track the
performance trajectory.  Exits non-zero if the warm run recompiled
anything, failed to beat the cold run, the daemon hit rate fell short,
or the faulted batch degraded to in-process execution.

Usage: ``PYTHONPATH=src python benchmarks/service_smoke.py [output.json]``
"""

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone

from repro.service import ArtifactCache, CompileService, run_tables
from repro.service import faults
from repro.service.client import DaemonClient, DaemonUnavailable, \
    maybe_daemon_service

TABLES = ["table3", "figure3"]
DEFAULT_OUTPUT = "BENCH_service.json"
DAEMON_HIT_RATE_FLOOR = 0.9
# drop the first connection attempt of every request: each op retries
# exactly once and must still be served by the daemon
FAULT_PLAN = "seed=3;client.send.drop:p=1,attempt=0"


def timed_run(cache_dir: str, workers: int):
    service = CompileService(ArtifactCache(cache_dir=cache_dir),
                             max_workers=workers)
    t0 = time.perf_counter()
    result = run_tables(tables=TABLES, service=service)
    elapsed = time.perf_counter() - t0
    return elapsed, service, result


def wait_for_daemon(socket_path: str, deadline_s: float = 20.0) -> None:
    t0 = time.perf_counter()
    while True:
        try:
            with DaemonClient(socket_path) as client:
                client.ping()
            return
        except (DaemonUnavailable, OSError):
            if time.perf_counter() - t0 > deadline_s:
                raise
            time.sleep(0.1)


def timed_daemon_runs(cache_dir: str, socket_path: str, workers: int):
    """Two clean run-tables batches through a served socket, then a third
    under an injected connection-drop plan; returns the second (warm)
    wall clock, the daemon's own metrics, and the faulted batch's
    wall clock + retry counters."""
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--socket", socket_path, "--cache-dir", cache_dir,
         "--jobs", str(workers)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        wait_for_daemon(socket_path)
        timings = []
        for _ in range(2):
            service = maybe_daemon_service(socket_path, max_workers=workers)
            assert service is not None, "daemon did not answer discovery"
            t0 = time.perf_counter()
            run_tables(tables=TABLES, service=service)
            timings.append(time.perf_counter() - t0)
            assert service.recompilations == 0, \
                "daemon client must not compile in-process"
            service.client.close()
        # degraded-mode pricing: same warm batch, every request's first
        # connection attempt dropped (client-side only, export=False so
        # the daemon process never sees the plan)
        plan = faults.FaultPlan.from_spec(FAULT_PLAN)
        with faults.install(plan, export=False):
            service = maybe_daemon_service(socket_path, max_workers=workers)
            assert service is not None, "daemon did not answer discovery"
            t0 = time.perf_counter()
            run_tables(tables=TABLES, service=service)
            faulty_s = time.perf_counter() - t0
        faulty = {
            "plan": FAULT_PLAN,
            "elapsed_s": round(faulty_s, 4),
            "retries": service.client.retries,
            "reconnects": service.client.reconnects,
            "degraded": service.counters()["daemon_degraded"],
        }
        service.client.close()
        with DaemonClient(socket_path) as client:
            metrics = client.metrics()
            client.shutdown()
        proc.wait(timeout=20)
        return timings[1], metrics, faulty
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=10)


def main() -> int:
    output = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_OUTPUT
    os.environ.pop("REPRO_DAEMON_SOCKET", None)  # phases pick their own
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        cold_s, cold_service, cold_result = timed_run(cache_dir, workers=2)
        warm_s, warm_service, _ = timed_run(cache_dir, workers=2)
        daemon_s, daemon_metrics, faulty = timed_daemon_runs(
            cache_dir, os.path.join(cache_dir, "bench.sock"), workers=2)

    report = {
        "benchmark": "service_smoke",
        "tables": TABLES,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "daemon_warm_s": round(daemon_s, 4),
        "speedup": round(cold_s / max(warm_s, 1e-9), 2),
        "daemon_speedup": round(cold_s / max(daemon_s, 1e-9), 2),
        "cold_recompilations": cold_service.recompilations,
        "warm_recompilations": warm_service.recompilations,
        "daemon_hit_rate": daemon_metrics["hit_rate"],
        "daemon_coalesced": daemon_metrics["coalesced"],
        "daemon_compiled": daemon_metrics["compiled"],
        "daemon_faulted": dict(
            faulty,
            overhead_s=round(faulty["elapsed_s"] - daemon_s, 4)),
        "batch": cold_result["batch"].as_dict(),
        "warm_counters": warm_service.counters(),
    }
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))

    if warm_service.recompilations != 0:
        print("FAIL: warm run recompiled", warm_service.recompilations,
              "artifacts", file=sys.stderr)
        return 1
    if warm_s >= cold_s:
        print("FAIL: warm run was not faster than cold", file=sys.stderr)
        return 1
    if report["daemon_hit_rate"] <= DAEMON_HIT_RATE_FLOOR:
        print(f"FAIL: daemon hit rate {report['daemon_hit_rate']} "
              f"did not clear {DAEMON_HIT_RATE_FLOOR}", file=sys.stderr)
        return 1
    if faulty["degraded"]:
        print("FAIL: faulted batch degraded to in-process execution "
              "instead of retrying through the daemon", file=sys.stderr)
        return 1
    if faulty["retries"] == 0:
        print("FAIL: fault plan did not exercise the retry path",
              file=sys.stderr)
        return 1
    print(f"OK: warm {warm_s:.2f}s / daemon {daemon_s:.2f}s vs cold "
          f"{cold_s:.2f}s ({report['speedup']}x / "
          f"{report['daemon_speedup']}x), zero warm recompilations, "
          f"daemon hit rate {report['daemon_hit_rate']}, faulted batch "
          f"{faulty['elapsed_s']:.2f}s with {faulty['retries']} retries "
          f"and zero degradations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
