"""Thin client for the compilation daemon + transparent fallback.

Two layers:

* :class:`DaemonClient` — blocking JSON-line protocol client (ping /
  metrics / shutdown / execute / compile_batch) over the daemon's unix
  socket or ``tcp:HOST:PORT`` spec.  Connection-level failures — a daemon
  restart, a dropped socket, a response line torn mid-JSON — are retried
  with exponential backoff and deterministic jitter (``$REPRO_CLIENT_RETRIES``
  attempts, reconnecting from scratch each time); every operation is
  idempotent on the daemon side (content-addressed artifacts, coalesced
  compiles), so a retry after a half-delivered request never double-compiles.
* :class:`DaemonBackedService` — a drop-in :class:`CompileService` whose
  cache misses are served by a running daemon.  Jobs that cannot cross the
  socket (an attached workload that does not round-trip through its spec,
  a flow the daemon's registry cannot know) are compiled in-process, and if
  the daemon dies mid-run the service degrades to fully-local execution
  instead of failing — artifacts are bit-identical either way, so callers
  never need to care which path served them.

Discovery (:func:`discover_client` / :func:`maybe_daemon_service`): an
explicit socket spec wins, then ``$REPRO_DAEMON_SOCKET``, then the default
per-user socket path — used only when the socket file actually exists.  No
daemon anywhere means ``None``: the caller keeps today's in-process
behaviour.  ``REPRO_NO_DAEMON=1`` disables discovery outright (the daemon
sets it for itself so its own compiles can never loop back).
"""

from __future__ import annotations

import getpass
import hashlib
import json
import logging
import os
import socket
import tempfile
import time
from threading import Lock
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import faults
from .cache import ArtifactCache
from .daemon import MAX_LINE_BYTES, parse_socket_spec
from .jobs import KEY_SCHEMA_VERSION, CompiledArtifact, CompileJob
from .scheduler import BatchReport, CompileService

logger = logging.getLogger(__name__)

#: Environment variable naming the daemon socket clients should use.
SOCKET_ENV = "REPRO_DAEMON_SOCKET"

#: Environment kill-switch: never discover a daemon when set to a truthy
#: value (the daemon exports it so its own workers stay in-process).
NO_DAEMON_ENV = "REPRO_NO_DAEMON"

#: Seconds allowed for control operations (ping/metrics/shutdown).
CONTROL_TIMEOUT = 10.0

#: Environment override for the per-request attempt budget.
RETRIES_ENV = "REPRO_CLIENT_RETRIES"

#: Attempts per request (1 initial + retries) when the env says nothing.
DEFAULT_REQUEST_ATTEMPTS = 3

#: Exponential-backoff base and cap between attempts, seconds.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 1.0


def _env_attempts() -> int:
    raw = os.environ.get(RETRIES_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            logger.warning("ignoring non-integer $%s=%r", RETRIES_ENV, raw)
    return DEFAULT_REQUEST_ATTEMPTS


def _backoff_s(op: str, attempt: int) -> float:
    """Backoff before retry ``attempt``: exponential, with *deterministic*
    jitter (hash of op and attempt) so replayed runs sleep identically."""
    base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (1 << (attempt - 1)))
    digest = hashlib.sha256(f"client-backoff:{op}:{attempt}".encode()).digest()
    return base * (0.5 + digest[0] / 510.0)


def default_socket_path() -> str:
    """Per-user default socket path, shared by ``serve`` and discovery."""
    try:
        user = getpass.getuser()
    except Exception:
        user = str(os.getuid()) if hasattr(os, "getuid") else "user"
    return os.path.join(tempfile.gettempdir(), f"repro-daemon-{user}.sock")


class DaemonUnavailable(RuntimeError):
    """No daemon is reachable at the requested socket.

    The message is always actionable: it names the socket and the command
    that starts (or cleans up after) a daemon there.
    """


class DaemonRequestError(RuntimeError):
    """The daemon answered, but with an error response."""


class DaemonProtocolError(DaemonUnavailable):
    """The daemon's response was unusable at the wire level (a line torn by
    mid-line EOF, over-limit, or non-JSON bytes).  A subclass of
    :class:`DaemonUnavailable` because the remedy is identical: drop the
    connection and retry / fall back — never surface a raw
    ``json.JSONDecodeError`` to callers."""


def _unavailable(spec: str, problem: str) -> DaemonUnavailable:
    return DaemonUnavailable(
        f"{problem} at {spec!r} — start one with "
        f"`python -m repro.service serve --socket {spec}`, or unset "
        f"${SOCKET_ENV} to run in-process")


class DaemonClient:
    """Blocking JSON-line client for one compilation daemon."""

    def __init__(self, socket_spec: Optional[str] = None,
                 timeout: Optional[float] = None,
                 max_attempts: Optional[int] = None):
        self.socket_spec = socket_spec or resolve_socket_spec()
        self.timeout = timeout
        self.max_attempts = (_env_attempts() if max_attempts is None
                             else max(1, max_attempts))
        self.retries = 0
        self.reconnects = 0
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._lock = Lock()
        self._next_id = 0

    # ------------------------------------------------------------ connection
    def _connect(self) -> None:
        if self._sock is not None:
            return
        kind, address = parse_socket_spec(self.socket_spec)
        try:
            if kind == "tcp":
                sock = socket.create_connection(address,
                                                timeout=CONTROL_TIMEOUT)
            else:
                if not os.path.exists(address):
                    raise _unavailable(self.socket_spec, "no daemon socket")
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(CONTROL_TIMEOUT)
                sock.connect(address)
        except DaemonUnavailable:
            raise
        except (ConnectionRefusedError, FileNotFoundError):
            raise _unavailable(
                self.socket_spec,
                "stale daemon socket (file exists but nobody is listening)"
                if kind == "unix" and os.path.exists(address)
                else "no daemon listening")
        except OSError as exc:
            raise _unavailable(self.socket_spec,
                               f"cannot reach daemon ({exc})")
        sock.settimeout(self.timeout)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "DaemonClient":
        self._connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- request
    def _request(self, op: str, timeout: Optional[float] = None,
                 **fields: Any) -> Dict[str, Any]:
        """One operation, with bounded retries over fresh connections.

        Connection-level failures (:class:`DaemonUnavailable`, including
        torn responses) are retried up to ``max_attempts`` times with
        exponential backoff; each retry reconnects from scratch.  Daemon-
        level errors (a well-formed ``ok: false`` response) are never
        retried — the daemon heard us and said no.
        """
        last: Optional[DaemonUnavailable] = None
        for attempt in range(max(1, self.max_attempts)):
            if attempt:
                self.retries += 1
                time.sleep(_backoff_s(op, attempt))
            try:
                response = self._request_once(op, timeout, attempt, fields)
            except DaemonUnavailable as exc:
                last = exc
                continue
            if not response.get("ok"):
                raise DaemonRequestError(
                    response.get("error") or "daemon request failed")
            return response
        assert last is not None
        raise last

    def _request_once(self, op: str, timeout: Optional[float],
                      attempt: int, fields: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            if self._sock is None and attempt:
                self.reconnects += 1
            self._connect()
            assert self._sock is not None and self._reader is not None
            self._next_id += 1
            request = {"id": self._next_id, "op": op, **fields}
            previous = self._sock.gettimeout()
            if timeout is not None:
                self._sock.settimeout(timeout)
            try:
                faults.maybe_raise("client.send.drop", key=op,
                                   attempt=attempt,
                                   exc_type=ConnectionResetError)
                self._sock.sendall(
                    json.dumps(request, separators=(",", ":")).encode()
                    + b"\n")
                line = self._reader.readline(MAX_LINE_BYTES)
                if faults.check("client.recv.drop", key=op,
                                attempt=attempt) is not None:
                    # connection torn mid-response: a short read
                    line = line[:len(line) // 2].rstrip(b"\n")
            except (BrokenPipeError, ConnectionResetError, OSError) as exc:
                self.close()
                raise _unavailable(self.socket_spec,
                                   f"daemon connection lost ({exc})")
            finally:
                if timeout is not None and self._sock is not None:
                    self._sock.settimeout(previous)
        if not line:
            self.close()
            raise _unavailable(self.socket_spec,
                               "daemon closed the connection")
        if not line.endswith(b"\n"):
            # mid-line EOF (daemon died while answering) or a response past
            # the line limit: the reply is torn, and the stream is no longer
            # framed — drop the connection rather than parse half a JSON
            # object or desynchronise the next request.
            self.close()
            raise DaemonProtocolError(
                f"truncated response from daemon at {self.socket_spec!r} "
                f"({len(line)} bytes, no newline) — retrying on a fresh "
                f"connection")
        try:
            return json.loads(line)
        except ValueError as exc:
            self.close()
            raise DaemonProtocolError(
                f"malformed response from daemon at {self.socket_spec!r} "
                f"({exc}) — retrying on a fresh connection")

    # ------------------------------------------------------------ operations
    def ping(self, timeout: float = CONTROL_TIMEOUT) -> Dict[str, Any]:
        return self._request("ping", timeout=timeout)

    def metrics(self) -> Dict[str, Any]:
        return self._request("metrics", timeout=CONTROL_TIMEOUT)

    def shutdown(self) -> Dict[str, Any]:
        response = self._request("shutdown", timeout=CONTROL_TIMEOUT)
        self.close()
        return response

    def execute(self, spec: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        """One job spec -> ``(artifact payload, served-from-cache)``."""
        response = self._request("execute", spec=spec)
        return response["artifact"], bool(response.get("cached"))

    def compile_batch(self,
                      specs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
        """Many specs -> ``{"artifacts": [...], "sources": [...],
        "report": {...}}`` in submission order."""
        return self._request("compile_batch", specs=list(specs))


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------


def resolve_socket_spec(socket_spec: Optional[str] = None) -> str:
    """Explicit spec, else ``$REPRO_DAEMON_SOCKET``, else the default path."""
    return socket_spec or os.environ.get(SOCKET_ENV) or default_socket_path()


def _remove_stale_socket(spec: str) -> bool:
    """Unlink a unix socket file nobody is listening on.

    A daemon killed with SIGKILL (or a machine crash) leaves its socket
    file behind; every later discovery would then burn a connect-and-fail
    round trip.  Returns ``True`` when a stale file was removed, so the
    caller can fall back in-process without the scary warning.
    """
    try:
        kind, address = parse_socket_spec(spec)
    except Exception:
        return False
    if kind != "unix":
        return False
    try:
        before = os.stat(address)
    except OSError:
        return False
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(1.0)
        probe.connect(address)
    except OSError:
        # Between the failed probe and the unlink, a daemon starting up
        # could claim the path; unlinking then would orphan the *live*
        # daemon.  Re-stat and only unlink the exact file we probed.
        try:
            after = os.stat(address)
        except OSError:
            return False   # already gone — nothing left to clean up
        # inode numbers are recycled immediately on tmpfs, so compare the
        # creation timestamp too
        if ((after.st_ino, after.st_dev, after.st_mtime_ns)
                != (before.st_ino, before.st_dev, before.st_mtime_ns)):
            logger.warning(
                "daemon socket %s was replaced while probing it (a daemon "
                "is starting up?); leaving it alone", address)
            return False
        try:
            os.unlink(address)
        except OSError:
            return False
        logger.warning("removed stale daemon socket %s (left behind by an "
                       "unclean daemon exit); running in-process", address)
        return True
    else:
        return False   # somebody *is* listening: not ours to unlink
    finally:
        probe.close()


def discover_client(socket_spec: Optional[str] = None, *,
                    require: bool = False) -> Optional[DaemonClient]:
    """A verified (pinged) client for a running daemon, or ``None``.

    ``require=True`` raises :class:`DaemonUnavailable` instead of returning
    ``None`` — that is what explicit CLI commands (``ping``, ``metrics``,
    ``shutdown``, ``--socket ...``) want; transparent discovery wants the
    silent ``None`` so callers fall back in-process.
    """
    explicit = bool(socket_spec or os.environ.get(SOCKET_ENV))
    if not require and os.environ.get(NO_DAEMON_ENV, "").strip() not in ("", "0"):
        return None
    spec = resolve_socket_spec(socket_spec)
    kind, address = parse_socket_spec(spec)
    if not explicit and not require and kind == "unix" \
            and not os.path.exists(address):
        return None  # nothing to discover: keep today's in-process path
    client = DaemonClient(spec)
    try:
        pong = client.ping()
    except (DaemonUnavailable, DaemonRequestError, ValueError, OSError) as exc:
        client.close()
        stale = _remove_stale_socket(spec)
        if require:
            if stale:
                raise _unavailable(
                    spec, "removed a stale daemon socket; no daemon running")
            if isinstance(exc, DaemonUnavailable):
                raise
            raise _unavailable(spec, f"daemon handshake failed ({exc})")
        if stale:
            return None   # _remove_stale_socket already logged the cleanup
        logger.warning("ignoring unreachable compile daemon: %s", exc)
        return None
    schema = pong.get("schema")
    if schema != KEY_SCHEMA_VERSION:
        client.close()
        message = (f"daemon at {spec!r} speaks key schema {schema}, this "
                   f"process speaks {KEY_SCHEMA_VERSION}; restart the daemon "
                   f"on matching code")
        if require:
            raise DaemonUnavailable(message)
        logger.warning("%s — falling back in-process", message)
        return None
    return client


def maybe_daemon_service(socket_spec: Optional[str] = None, *,
                         max_workers: int = 1
                         ) -> Optional["DaemonBackedService"]:
    """A daemon-backed service when a daemon is running, else ``None``."""
    client = discover_client(socket_spec)
    if client is None:
        return None
    return DaemonBackedService(client, max_workers=max_workers)


# ---------------------------------------------------------------------------
# the daemon-backed service
# ---------------------------------------------------------------------------


class DaemonBackedService(CompileService):
    """A :class:`CompileService` whose misses are served by a daemon.

    The local :class:`ArtifactCache` is memory-only and acts as this
    process's hot tier; the daemon owns the shared persistent store.  Any
    job the daemon cannot faithfully reproduce from its spec — the same
    test :meth:`CompileService._pool_safe` applies to process-pool workers
    — is executed in-process, exactly as without a daemon.
    """

    def __init__(self, client: DaemonClient, max_workers: int = 1):
        super().__init__(ArtifactCache(), max_workers=max_workers)
        self.client: Optional[DaemonClient] = client
        self._client_retries = 0   # frozen at degradation time

    @property
    def socket_spec(self) -> Optional[str]:
        return self.client.socket_spec if self.client is not None else None

    def _degrade(self, exc: Exception) -> None:
        """Daemon went away mid-run (its retry budget included): finish the
        run fully in-process.  Artifacts stay bit-identical either way."""
        logger.warning("compile daemon unavailable (%s); "
                       "falling back in-process for the rest of this run",
                       exc)
        self._counters.inc("daemon_degraded")
        if self.client is not None:
            self._client_retries = self.client.retries
            self.client.close()
        self.client = None

    # --------------------------------------------------------------- single
    def execute(self, job: CompileJob) -> CompiledArtifact:
        key = job.safe_key()
        payload = self.cache.get(key)
        if payload is not None:
            return CompiledArtifact.from_payload(payload, cached=True)
        if self.client is not None and self._pool_safe(job):
            try:
                payload, cached = self.client.execute(job.spec())
            except DaemonUnavailable as exc:
                self._degrade(exc)
            else:
                self._counters.inc("daemon_jobs")
                self.cache.put(key, payload)
                return CompiledArtifact.from_payload(payload, cached=cached)
        return super().execute(job)

    # ---------------------------------------------------------------- batch
    def submit(self, jobs: Sequence[CompileJob],
               max_workers: Optional[int] = None) -> BatchReport:
        if self.client is None:
            return super().submit(jobs, max_workers=max_workers)
        remote: List[CompileJob] = []
        local: List[CompileJob] = []
        for job in jobs:
            (remote if self._pool_safe(job) else local).append(job)
        try:
            response = self.client.compile_batch(
                [job.spec() for job in remote]) if remote else None
        except DaemonUnavailable as exc:
            self._degrade(exc)
            return super().submit(jobs, max_workers=max_workers)

        report = BatchReport(submitted=len(jobs), workers=self.max_workers
                             if max_workers is None else max_workers)
        self._counters.inc("batches")
        if response is not None:
            daemon_report = response["report"]
            self._counters.inc("daemon_jobs", len(remote))
            report.unique += daemon_report["unique"]
            # coalesced jobs cost this client no compile either: count them
            # with the hits, exactly like the daemon's own accounting
            report.cache_hits += (daemon_report["hits"]
                                  + daemon_report["coalesced"])
            report.executed += daemon_report["compiled"]
            seen = set()
            for payload in response["artifacts"]:
                self.cache.put(payload["key"], payload)
                if not payload["ok"] and payload["key"] not in seen:
                    seen.add(payload["key"])
                    report.failures.append((payload["workload"],
                                            payload["error"]))
        if local:
            local_report = super().submit(local, max_workers=max_workers)
            report.unique += local_report.unique
            report.cache_hits += local_report.cache_hits
            report.executed += local_report.executed
            report.pool_executed += local_report.pool_executed
            report.failures.extend(local_report.failures)
            report.timings.update(local_report.timings)
        return report

    # ------------------------------------------------------------- counters
    def counters(self) -> Dict[str, Any]:
        merged = super().counters()
        merged["daemon_jobs"] = self._counters.get("daemon_jobs")
        merged["daemon_degraded"] = self._counters.get("daemon_degraded")
        merged["daemon_retries"] = (self.client.retries
                                    if self.client is not None
                                    else self._client_retries)
        return merged

    def daemon_metrics(self) -> Optional[Dict[str, Any]]:
        if self.client is None:
            return None
        try:
            return self.client.metrics()
        except (DaemonUnavailable, DaemonRequestError):
            return None


__all__ = ["DaemonClient", "DaemonBackedService", "DaemonUnavailable",
           "DaemonRequestError", "DaemonProtocolError", "SOCKET_ENV",
           "NO_DAEMON_ENV", "RETRIES_ENV", "DEFAULT_REQUEST_ATTEMPTS",
           "default_socket_path", "resolve_socket_spec", "discover_client",
           "maybe_daemon_service"]
