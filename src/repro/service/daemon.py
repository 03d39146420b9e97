"""Long-lived compilation daemon: async batch API over a warm service.

``python -m repro.service serve --socket <path>`` runs one
:class:`CompileDaemon` around a process-wide :class:`CompileService`, so
every CLI in every process shares one warm in-memory LRU, one sharded disk
store and one scheduler pool instead of cold-starting per invocation.

Protocol: newline-delimited JSON over a unix socket (or localhost TCP via
``tcp:HOST:PORT`` socket specs), stdlib only.  Requests are
``{"id": n, "op": ..., ...}``; every response carries the request id and an
``"ok"`` flag.  Operations:

* ``ping``           — liveness + pid + key schema version,
* ``execute``        — one job spec, returns its artifact payload,
* ``compile_batch``  — many specs, returns payloads in submission order,
* ``metrics``        — hit rate, queue depth, in-flight coalesced count,
  evictions, per-flow compile-latency percentiles,
* ``shutdown``       — acknowledge, then stop serving and remove the socket.

**Request coalescing**: the daemon keeps one future per in-flight cache
key.  A job whose key is already compiling — whether from the same batch,
another batch, or another client — awaits that future instead of submitting
a second compile, so N identical concurrent submissions cost exactly one
scheduler execution.  All coalescing state lives on the event loop; the
actual compiles run through :meth:`CompileService.submit` (process-pool
fanout and all) on a thread executor, so the loop stays responsive to
pings and further batches while compiles are in flight.

Artifacts are produced by the very same :func:`repro.service.jobs.run_job`
the in-process path uses, so daemon-served payloads are bit-identical to
local ones.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import socket
import time
from collections import deque
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..counters import Counters
from . import faults
from .jobs import KEY_SCHEMA_VERSION, CompiledArtifact, CompileJob
from .scheduler import BatchReport, CompileService

logger = logging.getLogger(__name__)

#: Upper bound on one protocol line.  Artifacts embed whole-module IR text,
#: so the asyncio default (64 KiB) is far too small.
MAX_LINE_BYTES = 1 << 26

#: Per-flow latency samples kept for the percentile report.
LATENCY_WINDOW = 4096

#: ``tcp:HOST:PORT`` socket specs select TCP instead of a unix socket.
TCP_PREFIX = "tcp:"

#: Seconds a shutting-down daemon waits for in-flight compiles to finish
#: before tearing down connections (drain-then-exit semantics).
DRAIN_TIMEOUT_S = 30.0


class DaemonError(RuntimeError):
    """Daemon lifecycle failure (socket in use, bad socket spec, ...)."""


def parse_socket_spec(spec: str) -> Tuple[str, Any]:
    """``("unix", path)`` or ``("tcp", (host, port))`` from a socket spec."""
    if spec.startswith(TCP_PREFIX):
        rest = spec[len(TCP_PREFIX):]
        host, _, port = rest.rpartition(":")
        if not host or not port.isdigit():
            raise DaemonError(
                f"bad TCP socket spec {spec!r} (expected tcp:HOST:PORT)")
        return "tcp", (host, int(port))
    return "unix", spec


def _percentile(samples: Sequence[float], fraction: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


class DaemonMetrics:
    """Counters and latency windows behind the ``metrics`` operation."""

    def __init__(self):
        self.started = time.time()
        #: ``jobs``, ``batches``, ``cache_hits``, ``coalesced``, ``compiled``,
        #: ``failures``, ``corrupt_payloads`` and ``requests.<op>``
        self.counters = Counters()
        self.last_batch: Dict[str, Any] = {}
        self._latency: Dict[str, Deque[float]] = {}

    def record_latency(self, flow: str, seconds: float) -> None:
        window = self._latency.setdefault(flow,
                                          deque(maxlen=LATENCY_WINDOW))
        window.append(seconds)

    def latency_percentiles(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for flow, window in sorted(self._latency.items()):
            samples = list(window)
            out[flow] = {"count": len(samples),
                         "p50_s": round(_percentile(samples, 0.50), 6),
                         "p90_s": round(_percentile(samples, 0.90), 6),
                         "p99_s": round(_percentile(samples, 0.99), 6)}
        return out


class CompileDaemon:
    """The asyncio server around one warm :class:`CompileService`."""

    def __init__(self, service: CompileService, socket_spec: str):
        self.service = service
        self.socket_spec = socket_spec
        self.metrics = DaemonMetrics()
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._inflight_waiters: Dict[str, int] = {}
        self._queued = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: "set[asyncio.Task]" = set()
        self._signals: List[int] = []

    # -------------------------------------------------------------- lifetime
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        kind, address = parse_socket_spec(self.socket_spec)
        if kind == "tcp":
            host, port = address
            self._server = await asyncio.start_server(
                self._serve_client, host=host, port=port,
                limit=MAX_LINE_BYTES)
        else:
            self._claim_unix_socket(address)
            self._server = await asyncio.start_unix_server(
                self._serve_client, path=address, limit=MAX_LINE_BYTES)
        self._install_signal_handlers()
        logger.info("compile daemon listening on %s (pid %d)",
                    self.socket_spec, os.getpid())

    def _install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT take the same clean path as the ``shutdown`` verb:
        drain in-flight compiles, close connections, unlink the socket — a
        supervisor's ``kill`` never leaves a stale socket behind.  Guarded:
        signal handlers only install on the main thread (tests run daemons
        on worker threads) and on loops that support them."""
        assert self._loop is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._shutdown.set)
            except (NotImplementedError, RuntimeError, ValueError):
                return
            self._signals.append(signum)

    @staticmethod
    def _claim_unix_socket(path: str) -> None:
        """Bind-or-die semantics with stale-socket cleanup.

        A leftover socket file from a killed daemon is silently removed; a
        *live* daemon on the same path is a hard error.
        """
        if not os.path.exists(path):
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(1.0)
            probe.connect(path)
        except OSError:
            os.unlink(path)  # stale: nobody is listening
        else:
            raise DaemonError(
                f"a daemon is already listening on {path}; stop it first "
                f"(python -m repro.service shutdown --socket {path})")
        finally:
            probe.close()

    async def serve_until_shutdown(self) -> None:
        """``start()`` + block until a ``shutdown`` request arrives."""
        if self._server is None:
            await self.start()
        try:
            await self._shutdown.wait()
        finally:
            await self.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for signum in self._signals:
            try:
                self._loop.remove_signal_handler(signum)  # type: ignore[union-attr]
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        self._signals.clear()
        # drain: executor-side compiles cannot be cancelled, and dropping
        # their futures would strand connected clients mid-batch — wait for
        # in-flight work to reach its waiters before tearing anything down
        pending = [f for f in self._inflight.values() if not f.done()]
        if pending:
            logger.info("draining %d in-flight compile(s) before shutdown",
                        len(pending))
            await asyncio.wait(pending, timeout=DRAIN_TIMEOUT_S)
        # unblock handlers parked on readline so no task is torn down
        # mid-await when the loop exits
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        kind, address = parse_socket_spec(self.socket_spec)
        if kind == "unix":
            try:
                os.unlink(address)
            except OSError:
                pass

    # ------------------------------------------------------------ connection
    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._respond(writer, {
                        "id": None, "ok": False,
                        "error": "request exceeds the protocol line limit"})
                    break
                if not line:
                    break
                response = await self._handle_line(line)
                if response.pop("_fault_drop", False):
                    # injected daemon death mid-response: abort the
                    # transport so the client sees a torn connection
                    writer.transport.abort()
                    break
                await self._respond(writer, response)
                if response.get("shutdown"):
                    self._shutdown.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # daemon shutting down while this client idled
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter,
                       response: Dict[str, Any]) -> None:
        writer.write(json.dumps(response,
                                separators=(",", ":")).encode() + b"\n")
        await writer.drain()

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request is not an object")
        except ValueError as exc:
            return {"id": None, "ok": False, "error": f"bad request: {exc}"}
        request_id = request.get("id")
        op = request.get("op")
        self.metrics.counters.inc(f"requests.{op}")
        try:
            handler = {
                "ping": self._op_ping,
                "metrics": self._op_metrics,
                "shutdown": self._op_shutdown,
                "execute": self._op_execute,
                "compile_batch": self._op_compile_batch,
            }.get(op)
            if handler is None:
                return {"id": request_id, "ok": False,
                        "error": f"unknown operation {op!r}"}
            response = await handler(request)
        except Exception as exc:   # a bad request must never kill the daemon
            logger.exception("request %r failed", op)
            return {"id": request_id, "ok": False,
                    "error": f"{type(exc).__name__}: {exc}"}
        rule = faults.check("daemon.response.slow",
                            key=f"{op}:{request_id}")
        if rule is not None:
            await asyncio.sleep(rule.delay)
        if faults.check("daemon.response.drop",
                        key=f"{op}:{request_id}") is not None:
            response["_fault_drop"] = True
        response.setdefault("ok", True)
        response["id"] = request_id
        return response

    # ------------------------------------------------------------ operations
    async def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "pid": os.getpid(),
                "schema": KEY_SCHEMA_VERSION,
                "uptime_s": round(time.time() - self.metrics.started, 3)}

    async def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"shutdown": True, "pid": os.getpid()}

    async def _op_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        m = self.metrics
        count = m.counters.get
        served = count("cache_hits") + count("coalesced") + count("compiled")
        return {
            "pid": os.getpid(),
            "uptime_s": round(time.time() - m.started, 3),
            "requests": m.counters.view("requests").snapshot(),
            "jobs": count("jobs"),
            "batches": count("batches"),
            "cache_hits": count("cache_hits"),
            "coalesced": count("coalesced"),
            "compiled": count("compiled"),
            "failures": count("failures"),
            "hit_rate": (round(count("cache_hits") / served, 4)
                         if served else 0.0),
            "queue_depth": self._queued,
            "inflight": len(self._inflight),
            "inflight_coalesced": sum(self._inflight_waiters.values()),
            "last_batch": dict(m.last_batch),
            "latency_s": m.latency_percentiles(),
            "cache": self.service.cache.stats(),
            "recompilations": self.service.recompilations,
            # scheduler fault tolerance: retries, watchdog timeouts, pool
            # rebuilds and quarantined poison jobs (plus wire-level corrupt
            # payloads this daemon refused to serve)
            "self_heal": dict(self.service.self_heal_counters(),
                              daemon_corrupt_payloads=count(
                                  "corrupt_payloads")),
            # function-granular incremental compilation hit rates (this
            # process's store + pool-worker deltas)
            "function_cache": self.service.function_counters(),
            # persistent jit translation-cache traffic, same aggregation
            "jit_cache": self.service.jit_counters(),
        }

    async def _op_execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        spec = request.get("spec")
        if not isinstance(spec, dict):
            raise ValueError("execute needs a job 'spec' object")
        payloads, sources, _ = await self._compile_specs([spec])
        return {"artifact": payloads[0], "cached": sources[0] == "hit"}

    async def _op_compile_batch(self,
                                request: Dict[str, Any]) -> Dict[str, Any]:
        specs = request.get("specs")
        if not isinstance(specs, list):
            raise ValueError("compile_batch needs a 'specs' list")
        payloads, sources, report = await self._compile_specs(specs)
        return {"artifacts": payloads, "sources": sources, "report": report}

    # ------------------------------------------------------------ coalescing
    def _validated(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or ``None`` when missing *or*
        malformed.  A corrupt entry (torn write survivor, foreign writer,
        injected fault) must trigger a recompile, never cross the wire."""
        payload = self.service.cache.get(key)
        if payload is None:
            return None
        try:
            CompiledArtifact.from_payload(payload)
        except Exception:
            self.metrics.counters.inc("corrupt_payloads")
            logger.warning("dropping corrupt cached artifact %s…; "
                           "recompiling", key[:16])
            return None
        return payload

    async def _compile_specs(
            self, specs: Sequence[Dict[str, Any]]
    ) -> Tuple[List[Dict[str, Any]], List[str], Dict[str, Any]]:
        """Serve a batch of job specs with in-flight coalescing.

        Returns payloads and their provenance (``hit`` / ``coalesced`` /
        ``compiled``) in submission order, plus a batch report dict.
        """
        assert self._loop is not None
        jobs = [CompileJob.from_spec(spec) for spec in specs]
        keys = [job.safe_key() for job in jobs]
        self.metrics.counters.merge({"jobs": len(jobs), "batches": 1})

        ready: Dict[str, Dict[str, Any]] = {}
        sources: Dict[str, str] = {}
        waiters: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        fresh: Dict[str, CompileJob] = {}
        for job, key in zip(jobs, keys):
            if key in ready or key in waiters or key in fresh:
                continue  # intra-batch duplicate: one lookup serves all
            payload = self._validated(key)
            if payload is not None:
                ready[key] = payload
                sources[key] = "hit"
                self.metrics.counters.inc("cache_hits")
            elif key in self._inflight:
                waiters[key] = self._inflight[key]
                sources[key] = "coalesced"
                self.metrics.counters.inc("coalesced")
                self._inflight_waiters[key] = \
                    self._inflight_waiters.get(key, 0) + 1
            else:
                future = self._loop.create_future()
                self._inflight[key] = future
                fresh[key] = job
                sources[key] = "compiled"

        report = {"submitted": len(jobs), "unique": len(sources),
                  "hits": sum(1 for s in sources.values() if s == "hit"),
                  "coalesced": sum(1 for s in sources.values()
                                   if s == "coalesced"),
                  "compiled": len(fresh)}
        if fresh:
            scheduled = {key: self._inflight[key] for key in fresh}
            await self._run_batch(fresh)
            for key, future in scheduled.items():
                ready[key] = await future
        for key, future in waiters.items():
            ready[key] = await future
        self.metrics.last_batch = report
        payloads = [ready[key] for key in keys]
        self.metrics.counters.inc(
            "failures", sum(1 for p in payloads if not p.get("ok")))
        return payloads, [sources[key] for key in keys], report

    async def _run_batch(self, fresh: Dict[str, CompileJob]) -> None:
        """Execute this batch's non-coalesced misses on the scheduler."""
        assert self._loop is not None
        jobs = list(fresh.values())
        self._queued += len(jobs)
        try:
            report: BatchReport = await self._loop.run_in_executor(
                None, partial(self.service.submit, jobs))
        except Exception as exc:
            for key in fresh:
                future = self._inflight.pop(key, None)
                self._inflight_waiters.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(
                        RuntimeError(f"batch execution failed: {exc}"))
            raise
        finally:
            self._queued -= len(jobs)
        self.metrics.counters.inc("compiled", len(jobs))
        for key, job in fresh.items():
            elapsed = report.timings.get(key)
            if elapsed is not None:
                self.metrics.record_latency(job.flow, elapsed)
            payload = self._validated(key)
            future = self._inflight.pop(key, None)
            self._inflight_waiters.pop(key, None)
            if future is None or future.done():
                continue
            if payload is None:
                future.set_exception(RuntimeError(
                    f"scheduler did not produce an artifact for {key}"))
            else:
                future.set_result(payload)


def serve_forever(service: CompileService, socket_spec: str) -> None:
    """Blocking entry point: run a daemon until it is asked to shut down."""
    daemon = CompileDaemon(service, socket_spec)
    asyncio.run(daemon.serve_until_shutdown())


__all__ = ["CompileDaemon", "DaemonError", "DaemonMetrics", "MAX_LINE_BYTES",
           "DRAIN_TIMEOUT_S", "parse_socket_spec", "serve_forever"]
