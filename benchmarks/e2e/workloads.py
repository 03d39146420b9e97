"""The seven workloads, as run inside the measured (child) process.

Every workload is closed loop: the next operation starts when the previous
one returned.  A workload object has the same life in every mode::

    setup()            build state; records ``import``/``setup``/``warmup``
    prepare(n)         per-iteration work that is not measured
    iteration(n)       one measured iteration; may return a verify callable
    finish()           post-loop verification, counters, per-program rows
    cleanup()          always runs: temp dirs, sockets, daemon processes

``iteration`` bodies mark their layer boundaries with ``rec.span`` — a no-op
unless the runner asked for the traced replay.  Verification happens outside
the timed interval, and every verified operation goes through ``rec.check``
so a wrong answer is a failed operation, never a dropped sample.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import inputs
from recorder import DETAIL, Recorder, clock

HERE = Path(__file__).resolve().parent


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    quick: bool
    trace: bool
    workdir: Path
    rec: Recorder


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def table_run_args(quick: bool) -> Dict[str, Any]:
    if quick:
        return {"tables": inputs.QUICK_TABLES,
                "benchmarks": inputs.QUICK_BENCHMARKS}
    return {}


def unique_table_jobs(quick: bool) -> List[Any]:
    """The table jobs deduplicated by cache key, in submission order."""
    from repro.service import enumerate_jobs
    args = table_run_args(quick)
    unique: Dict[str, Any] = {}
    for job in enumerate_jobs(args.get("tables"), args.get("benchmarks")):
        unique.setdefault(job.key(), job)
    return list(unique.values())


def lay_out_run_tables(rec: Recorder, index: int, elapsed: Dict[str, float]
                       ) -> None:
    """``run_tables`` times its two halves itself: lay them out as children
    of the span around it, ending where it ended."""
    if index < 0:
        return
    end = rec.spans[index][3]
    mid = end - elapsed["tables"]
    rec.add_span("harness.tables", DETAIL, mid, end, parent=index)
    rec.add_span("harness.batch", DETAIL, mid - elapsed["batch"], mid,
                 parent=index)


def job_program_id(job) -> str:
    return inputs.program_id(job.workload_name, job.workload_kwargs)


class OutputChecker:
    """Printed output against the expected file; stats and IR text against
    the first time the same job was seen in this run."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.expected = inputs.load_expected()
        self._first: Dict[str, Tuple[Any, str]] = {}

    def printed(self, program: str, printed: Sequence[str],
                what: str) -> bool:
        want = self.expected.get(program)
        if want is None:
            return self.rec.check(False, f"{what}: no expected output for "
                                         f"{program!r}")
        problem = inputs.printed_mismatch(list(printed), want)
        return self.rec.check(problem is None, f"{what} {program}: {problem}")

    def stable(self, key: str, stats: Any, text_digest: str,
               what: str) -> bool:
        """Not a counted operation: identical-across-reps is an invariant of
        the run, reported through ``machine.parity_mismatches`` /
        ``failed`` only when it breaks."""
        first = self._first.setdefault(key, (stats, text_digest))
        if first == (stats, text_digest):
            return True
        self.rec.check(False, f"{what}: stats or IR text changed between "
                              f"repetitions of {key[:12]}")
        return False


class Workload:
    """Base class; see the module docstring for the life cycle."""

    #: percentile reported as ``tail_s``.  100 is the slowest iteration of
    #: the handful a run yields — not a percentile, and not to be read as
    #: one — on the workloads whose iterations take seconds
    tail_percentile = 100.0
    #: ``wall_s`` is the median sample unless the samples are a fixed set of
    #: different programs (see :class:`DaemonMiss`)
    wall_is_mean = False
    #: False where an iteration is opaque to this process (a child process):
    #: the probe's hand-sequenced steps are the traced replay instead
    traceable = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rec = ctx.rec

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, n: int) -> None:
        pass

    def iteration(self, n: int) -> Optional[Callable[[], None]]:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def cleanup(self) -> None:
        pass

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # helpers --------------------------------------------------------------
    def import_repro(self) -> None:
        with self.rec.interval("import"):
            import numpy  # noqa: F401
            import repro  # noqa: F401
            import repro.conformance  # noqa: F401  (registers the family)
            import repro.service  # noqa: F401

    def scratch(self, name: str) -> Path:
        path = self.ctx.workdir / name
        path.mkdir(parents=True, exist_ok=True)
        return path


# ---------------------------------------------------------------------------
# tables_cold
# ---------------------------------------------------------------------------


def run_cold_tables_process(cache_dir: str, quick: bool, result: str) -> None:
    """Body of the fresh process one ``tables_cold`` iteration is.

    The orchestrator's timer started before this interpreter did; everything
    here, imports included, is inside the measured interval."""
    started = clock()
    from repro.service import ArtifactCache, CompileService, run_tables
    imported = clock()
    service = CompileService(ArtifactCache(cache_dir), max_workers=1)
    outcome = run_tables(service=service, max_workers=1,
                         **table_run_args(quick))
    done = clock()
    batch = outcome["batch"]
    with open(result, "w", encoding="utf-8") as handle:
        json.dump({
            "started": started, "imported": imported, "done": done,
            "batch": batch.as_dict(),
            "run_job_s": sum(batch.timings.values()),
            "elapsed_s": outcome["elapsed_s"],
            "counters": service.counters(),
            "cache": service.cache.stats(),
            "function_counters": service.function_counters(),
            "jit_counters": service.jit_counters(),
            "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }, handle)


def spawn_cold_tables_process(cache_dir: Path, quick: bool) -> Dict[str, Any]:
    """Run :func:`run_cold_tables_process` in a fresh interpreter."""
    result = cache_dir.with_suffix(".json")
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "cold-iteration",
         "--cache-dir", str(cache_dir), "--quick", str(int(quick)),
         "--result", str(result)],
        check=True, stdout=subprocess.DEVNULL)
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


class TablesCold(Workload):
    """A fresh process regenerates all six tables on an empty store."""

    traceable = False

    def setup(self) -> None:
        self.import_repro()
        for _ in range(3):
            with self.rec.interval("setup"):
                self.jobs = unique_table_jobs(self.ctx.quick)
                self.keys = [job.key() for job in self.jobs]
        self.checker = OutputChecker(self.rec)
        self.rec.info["programs"] = len(self.jobs)
        self.last_report: Dict[str, Any] = {}

    def iteration(self, n: int):
        cache_dir = self.scratch(f"cold-{n}")
        report = spawn_cold_tables_process(cache_dir, self.ctx.quick)
        self.rec.count("ops", len(self.jobs))
        return lambda: self.verify(cache_dir, report)

    def verify(self, cache_dir: Path, report: Dict[str, Any]) -> None:
        from repro.service import ArtifactCache
        batch = report["batch"]
        self.rec.check(batch["executed"] == len(self.jobs)
                       and not batch["failures"],
                       f"cold batch executed {batch['executed']} of "
                       f"{len(self.jobs)}, failures {batch['failures']}")
        cache = ArtifactCache(str(cache_dir))
        for job, key in zip(self.jobs, self.keys):
            payload = cache.get(key)
            if payload is None or not payload.get("ok"):
                self.rec.check(False, f"no artifact for {job_program_id(job)}")
                continue
            self.checker.printed(job_program_id(job), payload["printed"],
                                 f"tables_cold/{job.flow}")
            self.checker.stable(key, payload["stats"],
                                _sha(payload["module_text"]), "tables_cold")
        self.last_report = report
        shutil.rmtree(cache_dir, ignore_errors=True)

    def finish(self) -> None:
        report = self.last_report
        self.rec.info["cold_process"] = {
            k: report.get(k) for k in ("batch", "elapsed_s", "counters",
                                       "cache", "function_counters")}

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


# ---------------------------------------------------------------------------
# tables_warm
# ---------------------------------------------------------------------------


class TablesWarm(Workload):
    """A fresh service over a populated store regenerates the tables."""

    tail_percentile = 90.0

    def setup(self) -> None:
        self.import_repro()
        self.jobs = unique_table_jobs(self.ctx.quick)
        self.keys = [job.key() for job in self.jobs]
        self.checker = OutputChecker(self.rec)
        self.rec.info["programs"] = len(self.jobs)
        self.cache_dir = self.scratch("store")
        # populated by a process of its own, so this process's peak memory
        # and warm caches are the warm path's alone
        with self.rec.interval("setup"):
            spawn_cold_tables_process(self.cache_dir, self.ctx.quick)
        self.tables_digest: Optional[str] = None

    def iteration(self, n: int):
        from repro.service import ArtifactCache, CompileService, run_tables
        with self.rec.span("service.open"):
            service = CompileService(ArtifactCache(str(self.cache_dir)))
        with self.rec.span("harness.run_tables") as index:
            outcome = run_tables(service=service,
                                 **table_run_args(self.ctx.quick))
        lay_out_run_tables(self.rec, index, outcome["elapsed_s"])
        self.rec.count("ops", len(self.jobs))
        return lambda: self.verify(service, outcome)

    def verify(self, service, outcome) -> None:
        batch = outcome["batch"]
        matrix = {name: table.measured_matrix()
                  for name, table in outcome["tables"].items()}
        tables_digest = inputs.digest(matrix)
        if self.tables_digest is None:
            self.tables_digest = tables_digest
        self.rec.check(service.recompilations == 0 and batch.executed == 0
                       and batch.cache_hits == len(self.jobs)
                       and tables_digest == self.tables_digest,
                       f"warm run recompiled {service.recompilations}, "
                       f"hits {batch.cache_hits}/{len(self.jobs)}, tables "
                       f"{'changed' if tables_digest != self.tables_digest else 'same'}")
        self.last_service = service

    def finish(self) -> None:
        from repro.service import ArtifactCache
        cache = ArtifactCache(str(self.cache_dir))
        for job, key in zip(self.jobs, self.keys):
            payload = cache.get(key) or {}
            self.checker.printed(job_program_id(job),
                                 payload.get("printed", ()),
                                 f"tables_warm/{job.flow}")
        self.rec.info["warm_counters"] = self.last_service.counters()


# ---------------------------------------------------------------------------
# compile_cold
# ---------------------------------------------------------------------------


class CompileCold(Workload):
    """Every unique table job compiled from source and printed; nothing is
    executed, stored, or reused between functions."""

    #: jobs executed after the loop to check the compiled code's output
    verify_sample = 6

    def setup(self) -> None:
        self.import_repro()
        for _ in range(2):
            with self.rec.interval("setup"):
                jobs = unique_table_jobs(self.ctx.quick)
        order = inputs.shuffled("compile", self.ctx.seed, range(len(jobs)))
        self.jobs = [jobs[i] for i in order]
        self.keys = [job.key() for job in self.jobs]
        self.checker = OutputChecker(self.rec)
        self.rec.info["programs"] = len(self.jobs)
        self.picks = inputs.shuffled(
            "compile-verify", self.ctx.seed,
            range(len(self.jobs)))[:self.verify_sample]
        self.modules: Dict[int, Any] = {}
        # lazy imports, pass registries and regex caches fill here
        with self.rec.interval("warmup"):
            self.sweep()

    def iteration(self, n: int):
        texts, errors, kept = self.sweep()
        self.rec.count("ops", len(self.jobs))
        return lambda: self.verify(texts, errors, kept)

    def sweep(self):
        """Compile and print every job, one at a time, keeping no module
        but the few ``finish`` will execute — as a caller compiling a list
        of programs would."""
        from repro.flows import get_flow
        from repro.ir import print_op
        from repro.ir.pass_manager import pipeline_settings
        texts, errors, kept = [], [], {}
        with pipeline_settings(function_cache=None):
            for index, (job, key) in enumerate(zip(self.jobs, self.keys)):
                with self.rec.span("flow.run", req=key):
                    result = get_flow(job.flow).run(
                        job.resolve_workload(), job.options_dict(),
                        job.execution(), collect_statistics=False)
                with self.rec.span("ir.print", req=key):
                    texts.append(print_op(result.module)
                                 if result.error is None else "")
                errors.append(result.error)
                if index in self.picks and result.error is None:
                    kept[index] = result.module
        return texts, errors, kept

    def verify(self, texts, errors, kept) -> None:
        for job, key, text, error in zip(self.jobs, self.keys, texts, errors):
            ok = error is None and self.checker.stable(
                key, None, _sha(text), "compile_cold")
            self.rec.check(ok, f"compile_cold {job.flow}/"
                               f"{job_program_id(job)}: {error}")
        self.modules = kept

    def finish(self) -> None:
        import numpy as np
        from repro.machine import Interpreter
        for index, module in self.modules.items():
            job = self.jobs[index]
            with np.errstate(all="ignore"):
                interpreter = Interpreter(module, engine="compiled")
                interpreter.run_main()
            self.checker.printed(job_program_id(job), interpreter.printed,
                                 f"compile_cold/{job.flow}")


# ---------------------------------------------------------------------------
# edit_rebuild
# ---------------------------------------------------------------------------


def adhoc_workload(source: str, name: str = "e2e/edit"):
    from repro.workloads import Workload as ReproWorkload
    return ReproWorkload(
        name=name, category="synthetic", description="e2e benchmark program",
        source_template=source.replace("{", "{{").replace("}", "}}"),
        paper_params={}, interp_params={}, work_model=lambda p: 1.0)


class EditRebuild(Workload):
    """One literal changes in one of 24 subroutines; recompile from source
    against a warm per-function store, print."""

    tail_percentile = 90.0
    #: every Nth edit is re-checked (cold compile, execution) after timing
    verify_every = 8

    def setup(self) -> None:
        self.import_repro()
        from repro.flows import get_flow
        from repro.ir import print_op
        from repro.service.incremental import FunctionArtifactStore
        self.flow = get_flow("ours")
        self.print_op = print_op
        subroutines = (inputs.QUICK_EDIT_SUBROUTINES if self.ctx.quick
                       else inputs.EDIT_SUBROUTINES)
        self.functions = subroutines + 1
        for _ in range(3):
            with self.rec.interval("setup"):
                self.program = inputs.EditProgram(self.ctx.seed, subroutines)
                self.store = FunctionArtifactStore()
                self.flow.run(adhoc_workload(self.program.source()),
                              collect_statistics=False,
                              function_cache=self.store)
        self.rec.info["programs"] = 1

    def iteration(self, n: int):
        before = (self.store.counters.hits, self.store.counters.misses)
        with self.rec.span("frontend.edit"):
            self.program.edit()
            source = self.program.source()
        with self.rec.span("flow.run"):
            result = self.flow.run(adhoc_workload(source),
                                   collect_statistics=False,
                                   function_cache=self.store)
        with self.rec.span("ir.print"):
            text = self.print_op(result.module)
        self.rec.count("ops")
        return lambda: self.verify(n, before, source, text)

    def verify(self, n: int, before, source: str, text: str) -> None:
        hits = self.store.counters.hits - before[0]
        misses = self.store.counters.misses - before[1]
        self.rec.check((hits, misses) == (self.functions - 1, 1),
                       f"edit {n}: {hits} spliced / {misses} recompiled, "
                       f"expected {self.functions - 1} / 1")
        if n % self.verify_every == 0:
            self.verify_semantics(source, text, self.program.model_output())

    def verify_semantics(self, source: str, text: str,
                         model: List[str]) -> None:
        import numpy as np
        from repro.machine import Interpreter
        cold = self.flow.run(adhoc_workload(source),
                             collect_statistics=False,
                             function_cache=None).module
        self.rec.check(self.print_op(cold) == text,
                       "edit_rebuild: spliced IR differs from a "
                       "from-scratch compile")
        with np.errstate(all="ignore"):
            interpreter = Interpreter(cold, engine="compiled")
            interpreter.run_main()
        problem = inputs.printed_mismatch(interpreter.printed, model)
        self.rec.check(problem is None, f"edit_rebuild output: {problem}")

    def finish(self) -> None:
        self.rec.info["function_store"] = self.store.counters.as_dict()


# ---------------------------------------------------------------------------
# exec_steady
# ---------------------------------------------------------------------------

MEASURED_ENGINES = ("compiled", "jit", "vector")


class ExecSteady(Workload):
    """Fourteen compiled modules executed on each optimising engine."""

    def setup(self) -> None:
        self.import_repro()
        from repro.flows import get_flow
        from repro.service import CompileJob
        from repro.service.serialization import stats_to_dict
        self.stats_to_dict = stats_to_dict
        pairs = inputs.shuffled(
            "exec", self.ctx.seed,
            inputs.QUICK_EXEC_MODULES if self.ctx.quick
            else inputs.EXEC_MODULES)
        for _ in range(2):
            with self.rec.interval("setup"):
                self.modules = []
                for name, flow in pairs:
                    job = CompileJob(flow, name)
                    result = get_flow(flow).run(job.resolve_workload(),
                                                collect_statistics=False)
                    self.modules.append((f"{name}/{flow}", name,
                                         result.module))
        self.checker = OutputChecker(self.rec)
        self.rec.info["programs"] = len(self.modules)
        # thunk building, jit translation and nest matching happen here
        with self.rec.interval("warmup"):
            self.verify(self.round(warming=True))

    def round(self, warming: bool = False):
        import numpy as np
        from repro.machine import Interpreter
        observed = []
        with np.errstate(all="ignore"):
            for engine in MEASURED_ENGINES:
                started = clock()
                for label, program, module in self.modules:
                    with self.rec.span(f"machine.run.{engine}", req=label):
                        interpreter = Interpreter(module, engine=engine)
                        interpreter.run_main()
                    observed.append((engine, label, program, interpreter))
                if not warming:
                    self.rec.add_interval(f"engine.{engine}", started,
                                          clock())
        return observed

    def iteration(self, n: int):
        observed = self.round()
        self.rec.count("ops", sum(o[3].stats.total_ops for o in observed))
        return lambda: self.verify(observed)

    def verify(self, observed) -> None:
        for engine, label, program, interpreter in observed:
            self.checker.printed(program, interpreter.printed,
                                 f"exec_steady/{engine}/{label}")
            # one key per module, not per engine: engines must agree too
            self.checker.stable(
                label, self.stats_to_dict(interpreter.stats),
                inputs.digest(interpreter.printed), f"engine {engine}")


# ---------------------------------------------------------------------------
# daemon_miss / daemon_hit
# ---------------------------------------------------------------------------


class Daemon:
    """One ``python -m repro.service serve`` subprocess and its clients."""

    def __init__(self, workdir: Path, tag: str):
        self.cache_dir = workdir / f"{tag}-cache"
        # relative: unix socket paths are limited to ~100 bytes and the
        # checkout may be deep; daemon and clients share ``workdir`` as cwd
        self.socket = f"{tag}.sock"
        self.workdir = workdir
        self.process: Optional[subprocess.Popen] = None
        self.clients: List[Any] = []
        self.startup: Tuple[float, float] = (0.0, 0.0)

    def start(self, clients: int = 2) -> None:
        from repro.service import DaemonClient, DaemonUnavailable
        started = clock()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--socket", self.socket, "--cache-dir", str(self.cache_dir),
             "--jobs", "1"],
            cwd=self.workdir, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        probe = DaemonClient(self.socket, max_attempts=1)
        deadline = clock() + 60.0
        while True:
            if self.process.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            try:
                probe.ping(timeout=5.0)
                break
            except DaemonUnavailable:
                if clock() > deadline:
                    raise
                time.sleep(0.01)
        probe.close()
        self.startup = (started, clock())
        self.clients = [DaemonClient(self.socket) for _ in range(clients)]
        for client in self.clients:
            client.ping()

    def stop(self) -> None:
        """Shut down cleanly, then make sure: the process is always reaped."""
        process, self.process = self.process, None
        if process is None:
            return
        try:
            if process.poll() is None and self.clients:
                self.clients[0].shutdown()
        except Exception:
            pass
        for client in self.clients:
            client.close()
        self.clients = []
        try:
            process.wait(timeout=40.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        try:
            os.unlink(self.workdir / self.socket)
        except FileNotFoundError:
            pass


def run_clients(bodies: Sequence[Callable[[], None]]) -> None:
    """Run one body per client thread, start together, re-raise failures."""
    barrier = threading.Barrier(len(bodies))
    errors: List[BaseException] = []

    def runner(body: Callable[[], None]) -> None:
        try:
            barrier.wait()
            body()
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=runner, args=(body,))
               for body in bodies]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class DaemonWorkload(Workload):
    """Shared by the two daemon workloads: two clients, one connection each,
    single-spec ``execute`` requests."""

    def setup_common(self) -> None:
        self.import_repro()
        self.plan = inputs.daemon_plan(self.ctx.seed, self.ctx.quick)
        self.checker = OutputChecker(self.rec)
        self.daemon: Optional[Daemon] = None
        self.daemons = 0
        self.rec.info["programs"] = (
            len(inputs.daemon_pool(self.ctx.quick)) * len(inputs.DAEMON_FLOWS))

    def new_daemon(self) -> Daemon:
        self.daemons += 1
        self.daemon = Daemon(self.ctx.workdir, f"d{self.daemons}")
        self.daemon.start()
        return self.daemon

    def request(self, client, kernel: int, flow: str,
                want_cached: bool) -> Callable[[], None]:
        """One round trip; returns the check to run outside the timing."""
        from repro.service import DaemonUnavailable
        from repro.service.client import DaemonRequestError
        label = f"conformance/{kernel}"
        try:
            with self.rec.span("client.execute", req=f"{flow}/{label}"):
                payload, cached = client.execute(
                    inputs.daemon_spec(kernel, flow))
        except (DaemonUnavailable, DaemonRequestError) as exc:
            # a refused or lost request is a failed operation
            return lambda exc=exc: self.rec.check(
                False, f"{self.ctx.workload} {flow}/{label}: {exc}")

        def verify() -> None:
            if not payload.get("ok") or cached != want_cached:
                self.rec.check(False, f"{flow}/{label}: ok={payload.get('ok')}"
                                      f" cached={cached}")
                return
            self.checker.printed(label, payload["printed"],
                                 f"{self.ctx.workload}/{flow}")
        return verify

    def cleanup(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def check_clients(self) -> None:
        """A request that only succeeded on a retry did not succeed."""
        retries = sum(c.retries + c.reconnects for c in self.daemon.clients)
        self.rec.check(retries == 0, f"{self.ctx.workload}: clients retried "
                                     f"or reconnected {retries} times")

    def peak_rss_kb(self) -> int:
        # the daemon, reaped by cleanup(): the largest waited-for child
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class DaemonMiss(DaemonWorkload):
    """Every request is a program the daemon has never seen: one sample is
    one kernel through both flows (two ``execute`` round trips).

    ``wall_s`` is the mean here.  The samples are the same 24 programs every
    round, costing 50 to 400 ms each, and with two clients a program's
    latency includes whichever other program it overlapped with; the median
    of such a set moved 10 % with the pairing alone, the mean (a sum over a
    fixed set) does not."""

    tail_percentile = 90.0
    wall_is_mean = True

    def setup(self) -> None:
        self.setup_common()
        for _ in range(2):
            with self.rec.interval("setup"):
                self.new_daemon()
            self.cleanup()

    def prepare(self, n: int) -> None:
        # a round needs a daemon (process caches, store) that has seen none
        # of the pool
        self.cleanup()
        self.new_daemon()

    def iteration(self, n: int):
        checks: List[Callable[[], None]] = []
        phase = self.rec.phase

        def body(client, kernels):
            def run():
                for kernel in kernels:
                    started = clock()
                    pending = [self.request(client, kernel, flow, False)
                               for flow in inputs.DAEMON_FLOWS]
                    self.rec.add_interval(f"{phase}.sample", started, clock())
                    checks.extend(pending)
            return run

        run_clients([body(client, kernels) for client, kernels
                     in zip(self.daemon.clients, self.plan["clients"])])
        self.rec.count("ops", self.rec.info["programs"])

        def verify():
            for check in checks:
                check()
            self.check_clients()
        return verify


class DaemonHit(DaemonWorkload):
    """Every request is in the daemon's cache: one sample is one round
    trip."""

    # p99 of ~4000 would leave 40 samples beyond it, but it is where the
    # runner's own speed sampler, the collector and the scheduler pile up:
    # its run-to-run spread is three times p95's
    tail_percentile = 95.0

    def setup(self) -> None:
        self.setup_common()
        with self.rec.interval("setup"):
            self.new_daemon()
            client = self.daemon.clients[0]
            for kernel in inputs.daemon_pool(self.ctx.quick):
                for flow in inputs.DAEMON_FLOWS:
                    self.request(client, kernel, flow, False)()

    def iteration(self, n: int):
        checks: List[Callable[[], None]] = []
        phase = self.rec.phase
        specs = [(kernel, flow)
                 for kernel in inputs.daemon_pool(self.ctx.quick)
                 for flow in inputs.DAEMON_FLOWS]

        def body(index, client):
            order = inputs.shuffled(f"hit{index}.{n}", self.ctx.seed, specs)

            def run():
                for kernel, flow in order:
                    started = clock()
                    check = self.request(client, kernel, flow, True)
                    self.rec.add_interval(f"{phase}.sample", started, clock())
                    checks.append(check)
            return run

        run_clients([body(index, client) for index, client
                     in enumerate(self.daemon.clients)])
        self.rec.count("ops", len(specs) * len(self.daemon.clients))

        def verify():
            for check in checks:
                check()
        return verify

    def finish(self) -> None:
        self.check_clients()
        self.rec.info["daemon_metrics"] = self.daemon.clients[0].metrics()


WORKLOADS = {
    "tables_cold": TablesCold,
    "tables_warm": TablesWarm,
    "compile_cold": CompileCold,
    "edit_rebuild": EditRebuild,
    "exec_steady": ExecSteady,
    "daemon_miss": DaemonMiss,
    "daemon_hit": DaemonHit,
}
