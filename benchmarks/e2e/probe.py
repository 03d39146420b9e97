"""The per-layer probe: every layer's public functions, timed from outside,
on the workload's own programs.

One process, three passes over the workload's compile jobs:

A. *Hand-sequenced* ``run_job`` — ``service.key`` -> ``flow.run`` (with the
   public :class:`PassTimingReport` laid out as per-pass child spans) ->
   ``ir.print`` -> first execution on the ``compiled`` engine ->
   ``service.serialise`` -> ``service.store_put``.  These are ``path`` spans.
   Interleaved ``replay`` spans price what ``flow.run`` hides (tokenize,
   parse, analyze, lower, ``convert_fir_to_standard``) and what other
   workloads lean on (clone, structural fingerprint, a second execution).
B. A real ``CompileService.submit`` of the same jobs on a second scratch
   store (``BatchReport.timings`` against submit wall), the harness on the
   hand-populated store, and read-back (``store_get``, ``deserialise``).
C. ``jit`` and ``vector``: first and steady execution of every module,
   translation and nest counters, parity against ``compiled``.

Then the wire: a daemon subprocess, connect, ping, miss, hit, coalesce, and
one batch through ``DaemonBackedService``.

Where a workload's programs cannot reach a layer — the edit program has no
registry name a daemon could resolve, the execution and conformance sets
appear in no table — that layer is probed on Figure 3's three jobs instead,
and the row reads as that layer's speed, not as a share of the workload.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

import inputs
from recorder import DETAIL, PATH, REPLAY, Recorder, clock
from workloads import (Context, Daemon, OutputChecker, adhoc_workload,
                       job_program_id, lay_out_run_tables, run_clients,
                       table_run_args, unique_table_jobs)

from spec import NAMED_PASSES

PROBE_ENGINES = ("jit", "vector")
DAEMON_PROBE_SPECS = 12
COALESCE_SPECS = 8
PINGS = 20


def probe_jobs(ctx: Context) -> Tuple[List[Any], Any, Optional[List[str]]]:
    """``(jobs, function_cache, model_output)`` for the workload's programs.

    ``function_cache`` is what the workload's own compiles use: a fresh
    per-function store (what ``run_job`` finds in a fresh process), ``None``
    for ``compile_cold``, and for ``edit_rebuild`` a store warmed with the
    program as it was before the probed edit."""
    from repro.service import CompileJob
    from repro.service.incremental import FunctionArtifactStore
    name = ctx.workload
    if name in ("tables_cold", "tables_warm"):
        return unique_table_jobs(ctx.quick), FunctionArtifactStore(), None
    if name == "compile_cold":
        return unique_table_jobs(ctx.quick), None, None
    if name == "exec_steady":
        modules = (inputs.QUICK_EXEC_MODULES if ctx.quick
                   else inputs.EXEC_MODULES)
        return ([CompileJob(flow, workload) for workload, flow in modules],
                FunctionArtifactStore(), None)
    if name in ("daemon_miss", "daemon_hit"):
        return ([CompileJob(flow, f"conformance/{kernel}")
                 for kernel in inputs.daemon_pool(ctx.quick)
                 for flow in inputs.DAEMON_FLOWS],
                FunctionArtifactStore(), None)
    from repro.flows import get_flow
    program = inputs.EditProgram(
        ctx.seed, inputs.QUICK_EDIT_SUBROUTINES if ctx.quick
        else inputs.EDIT_SUBROUTINES)
    store = FunctionArtifactStore()
    get_flow("ours").run(adhoc_workload(program.source()),
                         collect_statistics=False, function_cache=store)
    program.edit()
    edited = adhoc_workload(program.source())
    # the workload compiles with ``ours`` only; ``flang`` is here so the
    # probe prices both flows' layers on this program too
    return ([CompileJob(flow, "e2e/edit", workload=edited)
             for flow in ("ours", "flang")], store, program.model_output())


def _ir_size(op) -> int:
    return sum(1 for _ in op.walk())


class LayerProbe:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rec: Recorder = ctx.rec
        self.checker = OutputChecker(self.rec)
        self.jobs, self.function_cache, self.model = probe_jobs(ctx)
        self.modules: List[Tuple[Any, str, Any, Any]] = []
        self.blobs: Dict[str, str] = {}

    # -------------------------------------------------------------- pass A
    def replay_frontend(self, job, key: str):
        from repro.core.fir_to_standard import convert_fir_to_standard
        from repro.frontend import (FortranLowering, analyze, parse_source,
                                    tokenize)
        rec = self.rec
        source = job.resolve_workload().source(scaled=True)
        with rec.span("frontend.tokenize", REPLAY, key):
            tokens = tokenize(source)
        with rec.span("frontend.parse", REPLAY, key):
            unit = parse_source(source)
        with rec.span("frontend.analyze", REPLAY, key):
            analysis = analyze(unit)
        with rec.span("frontend.lower", REPLAY, key):
            hlfir = FortranLowering(analysis).lower()
        rec.count("frontend.tokens", len(tokens))
        rec.count("frontend.hlfir_ops", _ir_size(hlfir))
        if job.flow == "ours":
            fresh = hlfir.clone()
            with rec.span("core.fir_to_standard", REPLAY, key):
                convert_fir_to_standard(fresh)

    def lay_out_passes(self, timing, parent: int) -> None:
        """Per-pass child spans from the flow's public timing report, packed
        against the end of ``flow.run`` (passes are what a flow does last)."""
        rec = self.rec
        end = rec.spans[parent][3]
        cursor = end - timing.total_s
        for entry in timing.timings:
            rec.add_span(f"pass.{entry.pass_name}", DETAIL, cursor,
                         cursor + entry.wall_s, parent=parent)
            cursor += entry.wall_s
            if entry.pass_name in NAMED_PASSES:
                rec.count(f"passes.{entry.pass_name}.ops_after",
                          entry.ops_after)

    def hand_sequenced_job(self, job, cache) -> None:
        import numpy as np
        from repro.flows import get_flow
        from repro.ir import print_op, structural_fingerprint
        from repro.machine import Interpreter
        from repro.service import CompiledArtifact
        rec = self.rec
        fresh = replace(job)
        with rec.span("service.key", PATH) as index:
            key = fresh.key()
        rec.spans[index][5] = key
        self.replay_frontend(job, key)

        workload = job.resolve_workload()
        with rec.span(f"flow.run.{job.flow}", PATH, key) as flow_span:
            result = get_flow(job.flow).run(
                workload, job.options_dict(), job.execution(),
                collect_statistics=True, function_cache=self.function_cache)
        if result.error is not None:
            rec.check(False, f"probe {job.flow}/{job_program_id(job)}: "
                             f"{result.error}")
            return
        if result.timing is not None:
            self.lay_out_passes(result.timing, flow_span)
        module = result.module
        with rec.span("ir.print", PATH, key):
            text = print_op(module)
        rec.count("ir.print_bytes", len(text.encode()))
        rec.count("ir.final_ops", _ir_size(module))

        with np.errstate(all="ignore"):
            with rec.span("machine.first.compiled", PATH, key):
                first = Interpreter(module, engine="compiled")
                first.run_main()
        rec.count("machine.ops", first.stats.total_ops)
        if self.model is None:
            self.checker.printed(job_program_id(job), first.printed,
                                 f"probe/{job.flow}")
        else:
            problem = inputs.printed_mismatch(first.printed, self.model)
            rec.check(problem is None, f"probe edit program: {problem}")

        with rec.span("service.serialise", PATH, key):
            artifact = CompiledArtifact(
                key=key, flow=job.flow, workload=workload.name, ok=True,
                stats=first.stats, printed=tuple(first.printed),
                module_text=text, pipeline=result.pipeline or "")
            payload = artifact.to_payload()
        with rec.span("service.serialise", REPLAY, key):
            blob = json.dumps(payload)
        rec.count("service.payload_bytes", len(blob))
        with rec.span("service.store_put", PATH, key):
            cache.put(key, payload)

        with rec.span("ir.clone", REPLAY, key):
            module.clone()
        functions = [op for op in module.walk() if op.name == "func.func"]
        with rec.span("ir.fingerprint", REPLAY, key):
            for function in functions:
                structural_fingerprint(function)
        with np.errstate(all="ignore"):
            with rec.span("machine.run.compiled", REPLAY, key):
                again = Interpreter(module, engine="compiled")
                again.run_main()
        self.parity(key, "compiled", first, again)
        self.modules.append((job, key, module, first))
        self.blobs[key] = blob
        self.rec.rows.append({
            "program": job_program_id(job), "flow": job.flow, "key": key[:12],
            "ops": first.stats.total_ops, "ir_ops": _ir_size(module),
            "ir_bytes": len(text)})

    def parity(self, key: str, engine: str, baseline, other) -> None:
        from repro.service.serialization import stats_to_dict
        same = (other.printed == baseline.printed
                and stats_to_dict(other.stats) == stats_to_dict(baseline.stats))
        if not same:
            self.rec.count("machine.parity_mismatches")
            self.rec.check(False, f"engine {engine} disagrees with compiled "
                                  f"on {key[:12]}")

    # -------------------------------------------------------------- pass B
    def real_submit(self) -> None:
        """``CompileService.submit`` as callers use it, on its own store."""
        from repro.service import ArtifactCache, CompileService
        rec = self.rec
        scratch = self.ctx.workdir / "probe-submit"
        service = CompileService(ArtifactCache(str(scratch)), max_workers=1)
        jobs = [replace(job) for job in self.jobs]
        with rec.span("service.submit", REPLAY) as index:
            report = service.submit(jobs, max_workers=1)
        window = rec.spans[index][2:4]
        rec.foreign["service.run_job"] = [sum(report.timings.values()),
                                          *window]
        rec.check(report.executed == len(self.jobs) and not report.failures,
                  f"probe submit executed {report.executed} of "
                  f"{len(self.jobs)}: {report.failures}")
        stats = service.cache.stats()
        for name in ("memory_hits", "disk_hits", "misses", "stores",
                     "disk_bytes", "evictions", "corrupt_entries"):
            rec.set_count(f"service.cache.{name}", stats.get(name, 0))
        rec.set_count("service.recompilations", service.recompilations)
        functions = service.function_counters()
        for name in ("hits", "misses", "hit_rate"):
            rec.set_count(f"service.fnstore.{name}", functions[name])
        translations = service.jit_counters()
        for name in ("hits", "misses", "stores"):
            rec.set_count(f"service.jitstore.{name}", translations[name])
        heal = service.self_heal_counters()
        for name in ("retries", "timeouts", "quarantined"):
            rec.set_count(f"service.{name}", heal[name])

    def harness(self, cache) -> None:
        """The table producers over the hand-populated store."""
        from repro.service import CompileService, run_tables
        rec = self.rec
        on_path = self.ctx.workload in ("tables_cold", "tables_warm",
                                        "compile_cold")
        args = table_run_args(self.ctx.quick) if on_path \
            else {"tables": ("figure3",)}
        service = CompileService(cache, max_workers=1)
        with rec.span("harness.run_tables",
                      PATH if on_path else REPLAY) as index:
            outcome = run_tables(service=service, max_workers=1, **args)
        lay_out_run_tables(rec, index, outcome["elapsed_s"])

    def read_back(self, cache_dir: str) -> None:
        from repro.service import ArtifactCache, CompiledArtifact
        rec = self.rec
        reader = ArtifactCache(cache_dir)
        for _, key, _, first in self.modules:
            with rec.span("service.store_get", REPLAY, key):
                payload = reader.get(key)
            with rec.span("service.deserialise", REPLAY, key):
                artifact = CompiledArtifact.from_payload(
                    json.loads(self.blobs[key]))
            rec.check(payload is not None
                      and tuple(payload["printed"]) == artifact.printed
                      == tuple(first.printed),
                      f"store read-back of {key[:12]} differs")

    # -------------------------------------------------------------- pass C
    def other_engines(self) -> None:
        import numpy as np
        from repro.machine import Interpreter
        from repro.machine import jit as machine_jit
        rec = self.rec
        machine_jit.clear_translation_cache()
        before = machine_jit.snapshot_translation_counters()
        for engine in PROBE_ENGINES:
            for _, key, module, baseline in self.modules:
                with np.errstate(all="ignore"):
                    with rec.span(f"machine.first.{engine}", REPLAY, key):
                        first = Interpreter(module, engine=engine)
                        first.run_main()
                    with rec.span(f"machine.run.{engine}", REPLAY, key):
                        steady = Interpreter(module, engine=engine)
                        steady.run_main()
                self.parity(key, engine, baseline, first)
                self.parity(key, engine, baseline, steady)
                if engine == "vector":
                    # read where examples/vector_engine_demo.py reads them
                    state = steady._vector
                    rec.count("machine.vector.matched_sites",
                              state.matched_sites)
                    rec.count("machine.vector.declined_sites",
                              state.declined_sites)
                    rec.count("machine.vector.vector_runs", state.vector_runs)
                    rec.count("machine.vector.fallback_runs",
                              state.fallback_runs)
        delta = machine_jit.translation_counters_delta(before)
        rec.set_count("machine.jit.translations", delta["misses"])
        rec.set_count("machine.jit.cache_hits", delta["hits"])

    # ---------------------------------------------------------------- wire
    def wire_specs(self) -> List[Dict[str, Any]]:
        """Specs a daemon can resolve by name; Figure 3's jobs otherwise."""
        from repro.service import CompileJob, jobs_for
        jobs = self.jobs
        try:
            resolvable = all(CompileJob.from_spec(job.spec()).key()
                             == job.key() for job in jobs)
        except Exception:
            resolvable = False
        if not resolvable:
            jobs = jobs_for("figure3") + jobs_for("table3", ("dotproduct",))
        unique: Dict[str, Any] = {}
        for job in jobs:
            unique.setdefault(job.key(), job)
        return [job.spec() for job in unique.values()]

    def wire(self) -> None:
        from repro.service import (CompileJob, DaemonBackedService,
                                   DaemonClient)
        rec = self.rec
        specs = self.wire_specs()
        half = max(1, len(specs) // 2)
        served = specs[:half][:DAEMON_PROBE_SPECS]
        fresh = specs[half:][:COALESCE_SPECS]
        daemon = Daemon(self.ctx.workdir, "probe")
        try:
            daemon.start()
            rec.add_span("daemon.startup", REPLAY, *daemon.startup)
            with rec.span("client.connect", REPLAY):
                extra = DaemonClient(daemon.socket)
                extra.__enter__()
            extra.close()
            client = daemon.clients[0]
            for _ in range(PINGS):
                with rec.span("client.ping", REPLAY):
                    client.ping()

            started = clock()
            for spec in served:
                with rec.span(f"client.execute.miss.{spec['flow']}", REPLAY):
                    payload, cached = client.execute(spec)
                rec.check(payload["ok"] and not cached,
                          f"wire miss {spec['workload_name']}")
            window = [started, clock()]
            for _ in range(3):
                for spec in served:
                    with rec.span("client.execute.hit", REPLAY):
                        payload, cached = client.execute(spec)
                    rec.check(payload["ok"] and cached,
                              f"wire hit {spec['workload_name']}")
                    rec.count("client.response_bytes_total",
                              len(json.dumps(payload)))
                    rec.count("client.responses")

            metrics = client.metrics()
            # the daemon reports percentiles per flow; they are its own
            # wall-clock readings, so they travel with the window they
            # were taken in
            for flow, row in metrics["latency_s"].items():
                rec.set_count(f"daemon.compiles.{flow}", row["count"])
                for name in ("p50_s", "p99_s"):
                    rec.foreign[f"daemon.compile_{name}.{flow}"] = [
                        row[name], *window]

            # coalescing: both clients ask for the same fresh programs in
            # the same order; each must be compiled exactly once
            def sender(which):
                def run():
                    for spec in fresh:
                        payload, _ = which.execute(spec)
                        rec.check(payload["ok"],
                                  f"wire coalesce {spec['workload_name']}")
                return run
            run_clients([sender(c) for c in daemon.clients])
            after = daemon.clients[0].metrics()
            compiled = after["compiled"] - metrics["compiled"]
            rec.check(compiled == len(fresh),
                      f"coalescing compiled {compiled} of {len(fresh)} "
                      f"programs sent twice")
            rec.set_count("daemon.compiled", compiled)
            rec.set_count("daemon.coalesced",
                          after["coalesced"] - metrics["coalesced"])
            rec.set_count("daemon.hit_rate", after["hit_rate"])
            # the library's own route to a daemon: the served specs again,
            # as one batch; a daemon it lost would show as a degradation
            backed = DaemonBackedService(DaemonClient(daemon.socket))
            report = backed.submit([CompileJob.from_spec(spec)
                                    for spec in served])
            counters = backed.counters()
            if backed.client is not None:
                backed.client.close()
            rec.check(report.cache_hits == len(served)
                      and counters["daemon_jobs"] == len(served),
                      f"daemon-backed batch: {report.cache_hits} hits, "
                      f"{counters['daemon_jobs']} daemon jobs of "
                      f"{len(served)}")
            rec.set_count("client.degraded", counters["daemon_degraded"])
            rec.set_count("client.retries", counters["daemon_retries"]
                          + sum(c.retries for c in daemon.clients))
            rec.set_count("client.reconnects",
                          sum(c.reconnects for c in daemon.clients))
        finally:
            daemon.stop()

    # ----------------------------------------------------------------- run
    def run(self) -> None:
        from repro.service import ArtifactCache
        cache_dir = str(self.ctx.workdir / "probe-store")
        cache = ArtifactCache(cache_dir)
        with self.rec.interval("path"):
            for job in self.jobs:
                self.hand_sequenced_job(job, cache)
        # the real submit first: the harness may compile (Figure 3 fallback)
        # and would otherwise show up in the submit's function-store counts
        self.real_submit()
        self.harness(cache)
        self.read_back(cache_dir)
        self.other_engines()
        self.wire()


def run_probe(ctx: Context) -> None:
    rec = ctx.rec
    with rec.span("proc.import", PATH):
        import numpy  # noqa: F401
        import repro  # noqa: F401
        import repro.conformance  # noqa: F401
        import repro.service  # noqa: F401
    LayerProbe(ctx).run()
    rec.info["programs"] = len(rec.rows)
