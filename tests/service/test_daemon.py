"""Compilation daemon: socket round trips, request coalescing, transparent
client fallback, and the bit-equality guarantee between daemon-served and
in-process artifacts."""

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.service import ArtifactCache, CompileJob, CompileService, run_job
from repro.service import faults
from repro.service.client import (NO_DAEMON_ENV, SOCKET_ENV, DaemonClient,
                                  DaemonProtocolError, DaemonUnavailable,
                                  discover_client, maybe_daemon_service)
from repro.service.daemon import (CompileDaemon, DaemonError,
                                  parse_socket_spec)
from repro.service.jobs import KEY_SCHEMA_VERSION

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def no_ambient_daemon(monkeypatch, tmp_path):
    """Discovery must see this test's daemon (or none), never a real one."""
    monkeypatch.delenv(SOCKET_ENV, raising=False)
    monkeypatch.delenv(NO_DAEMON_ENV, raising=False)
    monkeypatch.setattr("repro.service.client.default_socket_path",
                        lambda: str(tmp_path / "no-daemon-here.sock"))


@pytest.fixture
def live_daemon(tmp_path, no_ambient_daemon):
    """A real daemon serving a unix socket from a background thread."""
    socket_path = str(tmp_path / "daemon.sock")
    service = CompileService(ArtifactCache())
    daemon = CompileDaemon(service, socket_path)
    ready = threading.Event()

    async def main():
        await daemon.start()
        ready.set()
        await daemon.serve_until_shutdown()

    thread = threading.Thread(target=lambda: asyncio.run(main()),
                              daemon=True)
    thread.start()
    assert ready.wait(10), "daemon did not come up"
    yield socket_path, service, daemon
    if thread.is_alive():
        try:
            with DaemonClient(socket_path) as client:
                client.shutdown()
        except (DaemonUnavailable, OSError):
            pass
        thread.join(10)
    assert not thread.is_alive()


class TestSocketSpecs:
    def test_unix_and_tcp_specs(self):
        assert parse_socket_spec("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_socket_spec("tcp:127.0.0.1:7777") == \
            ("tcp", ("127.0.0.1", 7777))

    @pytest.mark.parametrize("spec", ["tcp:", "tcp:host", "tcp:host:notnum"])
    def test_bad_tcp_specs_are_rejected(self, spec):
        with pytest.raises(DaemonError):
            parse_socket_spec(spec)


class TestRoundTrip:
    def test_ping_execute_metrics_shutdown(self, live_daemon):
        socket_path, _service, _daemon = live_daemon
        with DaemonClient(socket_path) as client:
            pong = client.ping()
            assert pong["pong"] and pong["pid"] == os.getpid()
            assert pong["schema"] == KEY_SCHEMA_VERSION

            spec = CompileJob("ours", "dotproduct").spec()
            cold, cached_cold = client.execute(spec)
            warm, cached_warm = client.execute(spec)
            assert cold["ok"] and not cached_cold
            assert warm["ok"] and cached_warm
            assert cold == warm

            metrics = client.metrics()
            assert metrics["compiled"] == 1
            assert metrics["cache_hits"] == 1
            assert metrics["hit_rate"] == 0.5
            assert metrics["latency_s"]["ours"]["count"] == 1
            # the one artifact: function stages stay in the process and a
            # memory-only cache binds no jit tier
            assert metrics["cache"]["stores"] == 1
            assert metrics["cache"]["memory_hits"] >= 1

            response = client.shutdown()
            assert response["pid"] == os.getpid()

    def test_metrics_count_function_stages_apart_from_the_store(
            self, live_daemon):
        socket_path, _service, _daemon = live_daemon
        with DaemonClient(socket_path) as client:
            before = client.metrics()["function_cache"]
            remote, cached = client.execute(CompileJob("ours", "sum").spec())
            metrics = client.metrics()
        assert remote["ok"] and not cached
        # served from the live tier or compiled, every function is looked up
        assert metrics["function_cache"]["lookups"] > before.get("lookups", 0)
        assert "function" not in metrics["cache"]["by_namespace"]
        assert metrics["cache"]["stores"] == 1

    def test_daemon_artifact_is_bit_identical_to_in_process(self,
                                                            live_daemon):
        socket_path, _service, _daemon = live_daemon
        job = CompileJob("flang", "sum")
        with DaemonClient(socket_path) as client:
            remote, _ = client.execute(job.spec())
        local = run_job(CompileJob("flang", "sum")).to_payload()
        assert json.dumps(remote, sort_keys=True) == \
            json.dumps(local, sort_keys=True)

    def test_compile_batch_reports_and_orders(self, live_daemon):
        socket_path, _service, _daemon = live_daemon
        specs = [CompileJob("ours", "sum").spec(),
                 CompileJob("ours", "dotproduct").spec(),
                 CompileJob("ours", "sum").spec()]   # intra-batch duplicate
        with DaemonClient(socket_path) as client:
            response = client.compile_batch(specs)
        report = response["report"]
        assert report["submitted"] == 3 and report["unique"] == 2
        assert report["compiled"] == 2 and report["hits"] == 0
        artifacts = response["artifacts"]
        assert [a["workload"] for a in artifacts] == \
            ["sum", "dotproduct", "sum"]
        assert artifacts[0] == artifacts[2]


class TestCoalescing:
    def test_identical_concurrent_jobs_compile_once(self, no_ambient_daemon,
                                                    tmp_path):
        service = CompileService(ArtifactCache())
        daemon = CompileDaemon(service, str(tmp_path / "unused.sock"))
        spec = CompileJob("ours", "dotproduct").spec()

        async def drive():
            daemon._loop = asyncio.get_running_loop()
            return await asyncio.gather(
                *(daemon._compile_specs([spec]) for _ in range(4)))

        results = asyncio.run(drive())
        assert service.recompilations == 1, \
            "four concurrent identical submissions must cost one compile"
        sources = [src for _, (src,), _ in results]
        assert sources.count("compiled") == 1
        # a late submission may find the artifact already cached (the
        # executor can finish the compile between task scheduling slices);
        # "coalesced" and "hit" both mean "no second compile"
        assert all(src in ("coalesced", "hit") for src in sources
                   if src != "compiled")
        count = daemon.metrics.counters.get
        assert count("coalesced") + count("cache_hits") == 3
        assert count("compiled") == 1
        payloads = [json.dumps(p, sort_keys=True)
                    for (p,), _, _ in results]
        assert len(set(payloads)) == 1, \
            "every waiter must receive the one compiled artifact"

    def test_coalesced_over_the_socket(self, live_daemon):
        socket_path, service, daemon = live_daemon
        spec = CompileJob("ours", "transpose").spec()

        def one_client(out, index):
            with DaemonClient(socket_path) as client:
                out[index] = client.execute(spec)

        results = [None] * 4
        threads = [threading.Thread(target=one_client, args=(results, i))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert service.recompilations == 1
        payloads = {json.dumps(p, sort_keys=True) for p, _ in results}
        assert len(payloads) == 1
        count = daemon.metrics.counters.get
        assert count("compiled") == 1
        assert count("cache_hits") + count("coalesced") == 3


class TestTransparentFallback:
    def test_no_daemon_anywhere_means_none(self, no_ambient_daemon):
        assert discover_client() is None
        assert maybe_daemon_service() is None

    def test_kill_switch_ignores_a_live_daemon(self, live_daemon,
                                               monkeypatch):
        socket_path, _service, _daemon = live_daemon
        monkeypatch.setenv(SOCKET_ENV, socket_path)
        assert discover_client() is not None
        monkeypatch.setenv(NO_DAEMON_ENV, "1")
        assert discover_client() is None

    def test_stale_socket_error_is_actionable(self, no_ambient_daemon,
                                              tmp_path):
        stale = str(tmp_path / "stale.sock")
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.bind(stale)
        probe.close()   # socket file left behind, nobody listening
        with pytest.raises(DaemonUnavailable) as excinfo:
            discover_client(stale, require=True)
        message = str(excinfo.value)
        assert "stale" in message
        assert f"serve --socket {stale}" in message
        # transparent discovery logs and falls back instead of raising
        assert discover_client(stale) is None

    def test_serve_reclaims_a_stale_socket(self, tmp_path):
        stale = str(tmp_path / "stale.sock")
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(stale)
        leftover.close()
        CompileDaemon._claim_unix_socket(stale)
        assert not os.path.exists(stale)

    def test_serve_refuses_a_live_socket(self, tmp_path):
        taken = str(tmp_path / "taken.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(taken)
        listener.listen(1)
        try:
            with pytest.raises(DaemonError) as excinfo:
                CompileDaemon._claim_unix_socket(taken)
            assert "shutdown" in str(excinfo.value)
        finally:
            listener.close()


class TestDaemonBackedService:
    def test_execute_routes_through_daemon_bit_identically(self,
                                                           live_daemon):
        socket_path, daemon_service, _daemon = live_daemon
        service = maybe_daemon_service(socket_path)
        assert service is not None
        artifact = service.execute(CompileJob("ours", "dotproduct"))
        assert artifact.ok
        assert service.counters()["daemon_jobs"] == 1
        assert daemon_service.recompilations == 1
        assert service.recompilations == 0, \
            "the client process itself must not compile"
        # a repeat is a local memory hit, not another socket round trip
        again = service.execute(CompileJob("ours", "dotproduct"))
        assert again.cached and service.counters()["daemon_jobs"] == 1
        local = run_job(CompileJob("ours", "dotproduct"))
        assert json.dumps(artifact.to_payload(), sort_keys=True) == \
            json.dumps(local.to_payload(), sort_keys=True)
        service.client.close()

    def test_submit_counts_daemon_work_as_batch_hits(self, live_daemon):
        socket_path, _daemon_service, _daemon = live_daemon
        service = maybe_daemon_service(socket_path)
        jobs = [CompileJob("ours", "sum"), CompileJob("flang", "sum")]
        cold = service.submit(jobs)
        assert cold.executed == 2 and cold.cache_hits == 0
        warm = service.submit([CompileJob("ours", "sum"),
                               CompileJob("flang", "sum")])
        assert warm.executed == 0 and warm.cache_hits == 2
        assert service.counters()["daemon_jobs"] == 4
        service.client.close()

    def test_degrades_in_process_when_daemon_dies(self, live_daemon):
        socket_path, _daemon_service, _daemon = live_daemon
        service = maybe_daemon_service(socket_path)
        assert service is not None
        with DaemonClient(socket_path) as admin:
            admin.shutdown()
        artifact = service.execute(CompileJob("ours", "sum"))
        assert artifact.ok
        assert service.client is None, "service must drop the dead daemon"
        assert service.recompilations == 1
        assert service.daemon_metrics() is None


class TestWireFaultTolerance:
    """Socket-level robustness: short reads, retries, injected drops."""

    def test_short_read_is_a_clean_retryable_error(self, no_ambient_daemon,
                                                   tmp_path):
        """A response torn by mid-line EOF must surface as a
        :class:`DaemonUnavailable` subclass, never a JSONDecodeError."""
        path = str(tmp_path / "torn.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)

        def half_answer():
            conn, _ = listener.accept()
            conn.recv(1 << 16)
            conn.sendall(b'{"id": 1, "ok": true, "pong": tr')  # no newline
            conn.close()

        server = threading.Thread(target=half_answer, daemon=True)
        server.start()
        client = DaemonClient(path, max_attempts=1)
        with pytest.raises(DaemonUnavailable) as excinfo:
            client.ping(timeout=5.0)
        assert isinstance(excinfo.value, DaemonProtocolError)
        assert "truncated" in str(excinfo.value)
        client.close()
        listener.close()
        server.join(5)

    def test_client_retries_through_injected_drops(self, live_daemon):
        """Attempt-0 send and receive drops must be absorbed by the retry
        loop; the caller sees one successful round trip."""
        socket_path, _service, _daemon = live_daemon
        plan = faults.FaultPlan.from_spec(
            "seed=7;client.send.drop:p=1,key=execute,attempt=0;"
            "client.recv.drop:p=1,key=metrics,attempt=0")
        with faults.install(plan, export=False):
            with DaemonClient(socket_path) as client:
                payload, _ = client.execute(
                    CompileJob("ours", "dotproduct").spec())
                assert payload["ok"]
                metrics = client.metrics()
                assert "self_heal" in metrics
                assert client.retries >= 2
                assert client.reconnects >= 1

    def test_daemon_response_drop_is_survived(self, live_daemon):
        """The daemon aborting a connection mid-response looks like a torn
        read; the client's retry on a fresh connection must succeed."""
        socket_path, _service, _daemon = live_daemon
        plan = faults.FaultPlan.from_spec(
            "seed=7;daemon.response.drop:p=1,key=ping:1")
        # export=True: the daemon thread only sees the plan via $REPRO_FAULTS
        with faults.install(plan, export=True):
            with DaemonClient(socket_path) as client:
                pong = client.ping()
                assert pong["pong"]
                assert client.retries >= 1

    def test_exhausted_retries_raise_unavailable(self, live_daemon):
        socket_path, _service, _daemon = live_daemon
        plan = faults.FaultPlan.from_spec(
            "seed=7;client.send.drop:p=1,key=metrics")   # every attempt
        with faults.install(plan, export=False):
            client = DaemonClient(socket_path, max_attempts=2)
            with pytest.raises(DaemonUnavailable):
                client.metrics()
            assert client.retries == 1   # attempts - 1
            client.close()

    def test_metrics_surface_self_heal_counters(self, live_daemon):
        socket_path, _service, _daemon = live_daemon
        with DaemonClient(socket_path) as client:
            metrics = client.metrics()
        for counter in ("retries", "timeouts", "pool_crashes",
                        "quarantined", "daemon_corrupt_payloads"):
            assert counter in metrics["self_heal"]

    def test_socket_replaced_mid_probe_is_not_unlinked(self, tmp_path,
                                                       monkeypatch):
        """TOCTOU guard: if a daemon claims the path between the failed
        probe and the unlink, the (now live) socket file must survive."""
        import repro.service.client as client_mod
        path = str(tmp_path / "racing.sock")
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(path)
        stale.close()   # stale file: nobody listening
        real_socket = socket.socket
        replacements = []

        class RacingSocket(real_socket):
            def connect(self, address):
                try:
                    return super().connect(address)
                except OSError:
                    # simulate a daemon starting up mid-probe: the path is
                    # re-bound to a brand-new socket file (new inode)
                    os.unlink(address)
                    replacement = real_socket(socket.AF_UNIX,
                                              socket.SOCK_STREAM)
                    replacement.bind(address)
                    replacements.append(replacement)
                    raise

        monkeypatch.setattr(client_mod.socket, "socket", RacingSocket)
        try:
            assert client_mod._remove_stale_socket(path) is False
            assert os.path.exists(path), \
                "the replacement socket must not be unlinked"
        finally:
            for replacement in replacements:
                replacement.close()

    def test_stale_socket_is_unlinked_and_discovery_falls_back(
            self, no_ambient_daemon, tmp_path, monkeypatch):
        stale = str(tmp_path / "stale.sock")
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(stale)
        leftover.close()   # unclean exit: file left, nobody listening
        monkeypatch.setenv(SOCKET_ENV, stale)
        assert discover_client() is None
        assert not os.path.exists(stale), \
            "discovery must clean up the stale socket it found"

    def test_degrades_mid_batch_under_injected_socket_drops(self,
                                                            live_daemon):
        """Every compile_batch attempt dropped: the daemon-backed service
        must finish the batch fully in-process, with no failures."""
        socket_path, _service, _daemon = live_daemon
        service = maybe_daemon_service(socket_path)
        assert service is not None
        plan = faults.FaultPlan.from_spec(
            "seed=7;client.send.drop:p=1,key=compile_batch")
        with faults.install(plan, export=False):
            report = service.submit([CompileJob("ours", "sum"),
                                     CompileJob("ours", "dotproduct")])
        assert not report.failures
        assert report.executed == 2
        assert service.client is None, "service must degrade after retries"
        counters = service.counters()
        assert counters["daemon_degraded"] == 1
        assert counters["daemon_retries"] >= 1
        assert counters["daemon_jobs"] == 0


class TestCli:
    CLI_ENV = {"PYTHONPATH": str(REPO_ROOT / "src"),
               "PATH": "/usr/bin:/bin"}

    def test_ping_without_daemon_is_an_actionable_error(self, tmp_path):
        missing = str(tmp_path / "nobody.sock")
        result = subprocess.run(
            [sys.executable, "-m", "repro.service", "ping",
             "--socket", missing],
            capture_output=True, text=True, env=self.CLI_ENV,
            cwd=str(REPO_ROOT))
        assert result.returncode == 2
        assert "serve --socket" in result.stderr

    def test_serve_rejects_bad_byte_budget(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro.service", "serve",
             "--socket", str(tmp_path / "x.sock"), "--byte-budget", "12Q"],
            capture_output=True, text=True, env=self.CLI_ENV,
            cwd=str(REPO_ROOT))
        assert result.returncode == 2
        assert "--byte-budget" in result.stderr

    def test_help_lists_daemon_subcommands(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.service", "--help"],
            capture_output=True, text=True, env=self.CLI_ENV,
            cwd=str(REPO_ROOT), check=True)
        for command in ("run-tables", "serve", "ping", "metrics",
                        "shutdown"):
            assert command in result.stdout
