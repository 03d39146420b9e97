"""Compilation service: persistent content-addressed cache + job scheduler.

Every table cell reads an artifact of one :class:`CompileService`, so
identical (workload, flow, options) executions are compiled and
interpreted exactly once — across cells, across tables, and (with a cache
directory) across process invocations:

* :mod:`repro.service.cache` — the one namespaced two-tier store (memory
  LRU + the sharded disk store of :mod:`repro.service.sharded`) holding
  whole-module artifacts, function stages and jit translations,
* :mod:`repro.service.jobs` — compile jobs and their content-addressed keys,
* :mod:`repro.service.scheduler` — cache-aware execution and parallel fanout,
* :mod:`repro.service.tables` — the paper's tables, each cell declared
  once, and the batch API that regenerates them,
* :mod:`repro.service.daemon` / :mod:`repro.service.client` — the long-lived
  compilation daemon (``python -m repro.service serve``) and its clients,
* ``python -m repro.service run-tables`` — the CLI over the batch API.

Set ``REPRO_CACHE_DIR`` to give the default service a persistent store.
When a daemon is running (``$REPRO_DAEMON_SOCKET``, or the default
per-user socket), the default service transparently routes compiles
through it; with no daemon anything using the default service behaves
exactly as before.
"""

from __future__ import annotations

import os
from typing import Optional

from .cache import ArtifactCache
from .client import (NO_DAEMON_ENV, SOCKET_ENV, DaemonBackedService,
                     DaemonClient, DaemonUnavailable, default_socket_path,
                     discover_client, maybe_daemon_service)
from .daemon import CompileDaemon, DaemonError, serve_forever
from .jobs import (KEY_SCHEMA_VERSION, CompiledArtifact, CompileJob,
                   ServiceError, run_job)
from .scheduler import BatchReport, CompileService
from .serialization import stats_from_dict, stats_to_dict
from .tables import (ALL_TABLES, TableError, enumerate_jobs, jobs_for,
                     run_tables, section4_profile)

#: Environment variable pointing the default service at a persistent store.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_default_service: Optional[CompileService] = None


def get_default_service() -> CompileService:
    """The process-wide service ``run_tables`` uses when given none.

    Prefers a running compilation daemon (discovered via
    ``$REPRO_DAEMON_SOCKET`` or the default per-user socket path) and
    falls back to the classic in-process service when none is running.
    """
    global _default_service
    if _default_service is None:
        _default_service = maybe_daemon_service()
    if _default_service is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
        _default_service = CompileService(ArtifactCache(cache_dir=cache_dir))
    return _default_service


__all__ = [
    "ArtifactCache", "BatchReport", "CompileService",
    "CompileJob", "CompiledArtifact", "ServiceError", "run_job",
    "stats_to_dict", "stats_from_dict", "KEY_SCHEMA_VERSION",
    "ALL_TABLES", "TableError", "jobs_for", "enumerate_jobs", "run_tables",
    "section4_profile", "get_default_service",
    "CACHE_DIR_ENV",
    "CompileDaemon", "DaemonError", "serve_forever",
    "DaemonClient", "DaemonBackedService", "DaemonUnavailable",
    "default_socket_path", "discover_client", "maybe_daemon_service",
    "SOCKET_ENV", "NO_DAEMON_ENV",
]
