"""CLI for the compilation service and its long-lived daemon.

Examples::

    # everything, 4 compile workers, persistent cache
    python -m repro.service run-tables --jobs 4 --cache-dir .repro-cache

    # one table, a representative subset, JSON summary on the side
    python -m repro.service run-tables --tables table3 \
        --benchmarks dotproduct sum --summary summary.json

    # long-lived daemon: start, inspect, stop
    python -m repro.service serve --socket /tmp/repro.sock \
        --cache-dir .repro-cache --jobs 4
    python -m repro.service ping --socket /tmp/repro.sock
    python -m repro.service metrics --socket /tmp/repro.sock
    python -m repro.service shutdown --socket /tmp/repro.sock

With a daemon running, ``run-tables`` (and ``repro.conformance`` /
``repro.opt``) discover it via ``--socket`` / ``$REPRO_DAEMON_SOCKET`` /
the default per-user socket and route compiles through it; without one,
everything runs in-process exactly as before (``--no-daemon`` forces that).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional

from ..flows import DEFAULT_ENGINE, ENGINES
from .cache import ArtifactCache
from .client import (NO_DAEMON_ENV, DaemonRequestError, DaemonUnavailable,
                     default_socket_path, discover_client,
                     maybe_daemon_service)
from .daemon import DaemonError, serve_forever
from .scheduler import CompileService
from .sharded import parse_byte_size
from .tables import ALL_TABLES, TableError, run_tables


def _add_socket_arg(parser: argparse.ArgumentParser,
                    what: str = "the daemon") -> None:
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help=f"socket spec for {what}: a unix socket path "
                             "or tcp:HOST:PORT (default: "
                             "$REPRO_DAEMON_SOCKET, else "
                             f"{default_socket_path()})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run experiment flows through the compilation service, "
                    "or manage the long-lived compilation daemon "
                    "(serve / ping / metrics / shutdown).")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run-tables",
        help="regenerate the paper's tables through the cached service "
             "(uses a running daemon when one is discovered)")
    run.add_argument("--tables", nargs="+", choices=ALL_TABLES,
                     default=list(ALL_TABLES),
                     help="which flows to regenerate (default: all)")
    run.add_argument("--benchmarks", nargs="+", default=None, metavar="NAME",
                     help="restrict table1/2/3 rows to these benchmarks")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="parallel compile workers for cache misses")
    run.add_argument("--no-incremental", action="store_true",
                     help="disable function-granular incremental "
                          "compilation for this batch (every function "
                          "recompiles from scratch)")
    run.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINES,
                     help="interpreter engine the measurements execute on "
                          f"(default: {DEFAULT_ENGINE})")
    run.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="persistent artifact cache directory "
                          "(default: in-memory only, or $REPRO_CACHE_DIR)")
    run.add_argument("--summary", default=None, metavar="FILE",
                     help="also write a JSON run summary to FILE")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the formatted tables, print counters only")
    _add_socket_arg(run)
    run.add_argument("--no-daemon", action="store_true",
                     help="never use a compilation daemon, even if one is "
                          "running")

    serve = sub.add_parser(
        "serve",
        help="start the long-lived compilation daemon (async batch API "
             "with request coalescing over a shared warm cache)")
    _add_socket_arg(serve, "this daemon to listen on")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent sharded artifact store "
                            "(default: $REPRO_CACHE_DIR, else memory only)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="process-pool width for cache misses")
    serve.add_argument("--byte-budget", default=None, metavar="SIZE",
                       help="disk store LRU budget, e.g. 256M or 1G "
                            "(default: $REPRO_CACHE_BUDGET, else 256M; "
                            "0 disables eviction)")

    for name, text in (("ping", "check a daemon is alive"),
                       ("metrics", "print a daemon's live metrics as JSON"),
                       ("shutdown", "ask a daemon to exit cleanly")):
        command = sub.add_parser(name, help=text)
        _add_socket_arg(command)
    return parser


def _cmd_run_tables(args: argparse.Namespace) -> int:
    from ..harness.reporting import format_table
    from ..workloads import WORKLOAD_INDEX

    unknown = [b for b in args.benchmarks or () if b not in WORKLOAD_INDEX]
    if unknown:
        print(f"error: unknown benchmark(s) {', '.join(unknown)} "
              f"(choose from {', '.join(sorted(WORKLOAD_INDEX))})",
              file=sys.stderr)
        return 2

    from . import CACHE_DIR_ENV
    service = None
    if not args.no_daemon:
        service = maybe_daemon_service(args.socket, max_workers=args.jobs)
        if service is None and args.socket:
            # an explicit socket that does not answer is an error, not a
            # silent in-process run
            try:
                discover_client(args.socket, require=True)
            except DaemonUnavailable as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    if service is not None:
        print(f"using compilation daemon at {service.socket_spec}",
              file=sys.stderr)
    else:
        cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or None
        service = CompileService(ArtifactCache(cache_dir=cache_dir),
                                 max_workers=args.jobs)
    try:
        result = run_tables(tables=args.tables, service=service,
                            max_workers=args.jobs, benchmarks=args.benchmarks,
                            engine=args.engine,
                            incremental=not args.no_incremental)
    except TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        for name, table in result["tables"].items():
            print(f"== {name} ==")
            print(format_table(table))
            print()

    batch = result["batch"]
    counters = result["counters"]
    elapsed = result["elapsed_s"]
    print(f"batch: {batch.submitted} jobs submitted, {batch.unique} unique, "
          f"{batch.cache_hits} cache hits, {batch.executed} compiled "
          f"({batch.pool_executed} in {batch.workers} workers)")
    print(f"cache: {counters['hits']} hits "
          f"({counters['memory_hits']} memory / {counters['disk_hits']} disk), "
          f"{counters['misses']} misses, "
          f"{counters['recompilations']} recompilations")
    fn = result["function_counters"]
    print(f"functions: {fn['hits']}/{fn['lookups']} stage hits "
          f"(rate {fn['hit_rate']:.2f}), {fn['stores']} stored")
    jt = result["jit_counters"]
    print(f"jit: {jt['hits']}/{jt['lookups']} translation hits "
          f"(rate {jt['hit_rate']:.2f}), {jt['stores']} stored")
    print(f"time:  batch {elapsed['batch']:.2f}s + tables "
          f"{elapsed['tables']:.2f}s = {elapsed['total']:.2f}s")

    if args.summary:
        summary = {
            "tables": {name: table.measured_matrix()
                       for name, table in result["tables"].items()},
            "batch": batch.as_dict(),
            "counters": counters,
            "function_counters": fn,
            "jit_counters": jt,
            "elapsed_s": elapsed,
        }
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        print(f"summary written to {args.summary}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from . import CACHE_DIR_ENV
    from .client import resolve_socket_spec

    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(name)s: %(message)s")
    # the daemon's own compiles (and its pool workers) must never try to
    # route through a daemon
    os.environ[NO_DAEMON_ENV] = "1"
    byte_budget = None
    if args.byte_budget is not None:
        try:
            byte_budget = parse_byte_size(args.byte_budget)
        except ValueError as exc:
            print(f"error: --byte-budget: {exc}", file=sys.stderr)
            return 2
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or None
    socket_spec = resolve_socket_spec(args.socket)
    service = CompileService(
        ArtifactCache(cache_dir=cache_dir, byte_budget=byte_budget),
        max_workers=max(1, args.jobs))
    store = "memory only" if cache_dir is None else cache_dir
    print(f"compile daemon: socket {socket_spec}, cache {store}, "
          f"{service.max_workers} worker(s); stop with "
          f"`python -m repro.service shutdown --socket {socket_spec}`",
          flush=True)
    try:
        serve_forever(service, socket_spec)
    except DaemonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted; daemon socket removed", file=sys.stderr)
    return 0


def _daemon_command(args: argparse.Namespace, op: str) -> int:
    try:
        client = discover_client(args.socket, require=True)
    except DaemonUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if op == "ping":
            pong = client.ping()
            print(f"daemon alive at {client.socket_spec}: "
                  f"pid {pong['pid']}, key schema v{pong['schema']}, "
                  f"up {pong['uptime_s']}s")
        elif op == "metrics":
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
        elif op == "shutdown":
            response = client.shutdown()
            print(f"daemon at {client.socket_spec} "
                  f"(pid {response['pid']}) shutting down")
    except (DaemonUnavailable, DaemonRequestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run-tables":
        return _cmd_run_tables(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command in ("ping", "metrics", "shutdown"):
        return _daemon_command(args, args.command)
    return 2  # pragma: no cover - argparse enforces the subcommand


if __name__ == "__main__":
    sys.exit(main())
