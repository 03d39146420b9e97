"""Compile jobs, content-addressed keys, and in-process job execution.

A :class:`CompileJob` names everything that determines a compiled artifact:
the workload (by registry name + variant kwargs, or an attached
:class:`~repro.workloads.Workload` object), the compiler flow (by registry
name — see :mod:`repro.flows`), the flow's pipeline options as a dict, and
the execution parameters.  Its :meth:`~CompileJob.key` hashes that material
— salted with :data:`KEY_SCHEMA_VERSION` — into the cache address, and
:func:`run_job` performs the actual compile + interpret by dispatching
through the flow registry: there are no per-flow branches here, so a newly
registered flow is immediately schedulable and cacheable.

``execute_spec_timed`` is the process-pool entry point: only the picklable
spec dict crosses the process boundary and a JSON payload comes back,
never a live module or a raised exception (worker failures are encoded in
the artifact so the scheduler can tell infrastructure errors apart from
deterministic compilation failures).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..counters import PROCESS
from ..flows import DEFAULT_ENGINE, ExecutionContext, get_flow
from ..workloads import Workload
from . import faults
from .serialization import stats_from_dict, stats_to_dict

#: Salt mixed into every cache key.  Bump whenever the meaning of cached
#: artifacts changes (interpreter counts, stats schema, pipeline semantics):
#: every previously persisted artifact then simply stops matching.
#: v2: flow-registry dispatch — pipeline options became a flow-normalised
#: dict (including ``tile_size``) instead of fixed CompileJob fields.
#: v3: interpreter numeric-semantics fixes (unsigned cmpi, NaN-aware cmpf,
#: LLVM trunc divsi/remsi) — stats cached under v2 may predate the fixes.
#: v4: execution key material gained the interpreter ``engine``
#: (compiled/reference) so differential conformance runs cache each engine's
#: observables separately.
#: v5: third interpreter engine ``jit`` (trace-compiling); worklist
#: canonicalizer replaced the full-rewalk driver — artifacts now execute on
#: three engines and pipeline outputs are produced by the new driver.
#: v6: fourth interpreter engine ``vector`` (whole-array numpy evaluation
#: of matched loop nests with analytic stats); jit gained an amortization
#: heuristic that falls back to compiled dispatch on cold small blocks.
#: v7: function-granular incremental compilation — the standard flow
#: pipeline re-anchored under one ``func.func(...)`` nest (same passes, new
#: canonical pipeline text) and per-function stage artifacts now share the
#: store; pre-incremental artifacts must read as clean misses.
#: v8: IEEE ``divf`` / pow on scalar floats (``SEMANTICS_VERSION`` 2) — a
#: stored ``ok=False ... ZeroDivisionError`` artifact now means a printed
#: ``inf`` / ``nan``.
#: v9: declaration initialisers are honoured, module variables are the
#: globals themselves in the standard flow and a FIR record is a record —
#: a stored artifact of a program using one may hold a wrong answer.
KEY_SCHEMA_VERSION = 9


class ServiceError(RuntimeError):
    """Raised when a service-run compilation or interpretation failed."""


@dataclass
class CompileJob:
    """One (workload x compiler flow x options) unit of work."""

    flow: str
    workload_name: str
    workload_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: Flow pipeline options, sparse: only what differs from the flow
    #: schema's defaults needs to be given.  A dict is accepted and
    #: canonicalised to a sorted tuple of pairs.
    options: Tuple[Tuple[str, Any], ...] = ()
    threads: int = 1
    gpu: bool = False
    #: Interpreter engine the artifact's observables come from ("compiled"
    #: cached-dispatch, "reference" one-op, "jit" trace-compiling, or
    #: "vector" whole-array numpy).
    engine: str = DEFAULT_ENGINE
    #: Whether this job's compile may reuse (and feed) the process's
    #: per-function stage store.  Execution strategy, not artifact identity:
    #: incremental and cold compiles are bit-identical by construction, so
    #: this is deliberately absent from :meth:`key_material`.
    incremental: bool = True
    #: Optional live workload; spares a registry lookup and lets callers run
    #: non-registry workloads in-process.  Never crosses a process boundary.
    workload: Optional[Workload] = field(default=None, repr=False, compare=False)
    _key: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.options, Mapping):
            self.options = tuple(sorted(self.options.items()))
        else:
            self.options = tuple(sorted(tuple(kv) for kv in self.options))

    # ------------------------------------------------------------ resolution
    def resolve_workload(self) -> Workload:
        if self.workload is not None:
            return self.workload
        from ..workloads import get_workload
        self.workload = get_workload(self.workload_name,
                                     **dict(self.workload_kwargs))
        return self.workload

    def options_dict(self) -> Dict[str, Any]:
        return dict(self.options)

    def execution(self) -> ExecutionContext:
        return ExecutionContext(threads=self.threads, gpu=self.gpu,
                                engine=self.engine)

    def spec(self) -> Dict[str, Any]:
        """Picklable description, sufficient to re-run in another process."""
        return {"flow": self.flow, "workload_name": self.workload_name,
                "workload_kwargs": tuple(self.workload_kwargs),
                "options": tuple(self.options),
                "threads": self.threads, "gpu": self.gpu,
                "engine": self.engine, "incremental": self.incremental}

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "CompileJob":
        spec = dict(spec)
        spec["workload_kwargs"] = tuple(tuple(kv) for kv
                                        in spec.get("workload_kwargs", ()))
        spec["options"] = tuple(tuple(kv) for kv in spec.get("options", ()))
        return cls(**spec)

    # ----------------------------------------------------------------- keys
    def pipeline_options(self, workload: Workload) -> Dict[str, Any]:
        """The canonical options the flow's pipeline actually receives.

        Normalised by the flow's schema: defaults filled in, options the
        flow does not take dropped (so e.g. flang jobs differing only in
        ``vector_width`` deduplicate to one artifact).
        """
        return get_flow(self.flow).normalise_options(
            self.options_dict(), workload, self.execution())

    def key_material(self) -> Dict[str, Any]:
        workload = self.resolve_workload()
        return {
            "schema": KEY_SCHEMA_VERSION,
            "flow": self.flow,
            "workload": workload.identity(),
            "pipeline": self.pipeline_options(workload),
            "execution": self.execution().key_material(),
        }

    def key(self) -> str:
        if self._key is None:
            blob = json.dumps(self.key_material(), sort_keys=True,
                              separators=(",", ":"))
            self._key = hashlib.sha256(blob.encode()).hexdigest()
        return self._key

    def safe_key(self) -> str:
        """Like :meth:`key`, but unresolvable jobs (unknown workload, unknown
        flow, bad kwargs) get a spec-derived key instead of raising —
        matching the failure artifact :func:`run_job` produces for them."""
        try:
            return self.key()
        except Exception:
            return _unresolvable_key(self)


@dataclass
class CompiledArtifact:
    """What the cache stores per key: stage IR text + stats + output."""

    key: str
    flow: str
    workload: str
    ok: bool
    stats: Optional[Any] = None          # ExecutionStats when ok
    printed: Tuple[str, ...] = ()
    module_text: str = ""
    #: The textual pass pipeline the flow ran (empty when the flow does not
    #: report one) — lets daemon-served CLI runs echo the same
    #: ``// pipeline:`` line an in-process run prints.
    pipeline: str = ""
    error: str = ""
    cached: bool = False                 # set by the service on cache hits

    def to_payload(self) -> Dict[str, Any]:
        return {
            "key": self.key, "flow": self.flow, "workload": self.workload,
            "ok": self.ok,
            "stats": stats_to_dict(self.stats) if self.stats is not None else None,
            "printed": list(self.printed),
            "module_text": self.module_text,
            "pipeline": self.pipeline,
            "error": self.error,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any],
                     cached: bool = False) -> "CompiledArtifact":
        stats = payload.get("stats")
        return cls(key=payload["key"], flow=payload["flow"],
                   workload=payload["workload"], ok=payload["ok"],
                   stats=stats_from_dict(stats) if stats is not None else None,
                   printed=tuple(payload.get("printed", ())),
                   module_text=payload.get("module_text", ""),
                   pipeline=payload.get("pipeline", ""),
                   error=payload.get("error", ""), cached=cached)

    def raise_for_failure(self) -> None:
        if not self.ok:
            raise ServiceError(self.error)


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------


def _unresolvable_key(job: CompileJob) -> str:
    blob = json.dumps({"schema": KEY_SCHEMA_VERSION, "unresolvable": job.spec()},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_job(job: CompileJob) -> CompiledArtifact:
    """Compile + interpret one job in this process.

    Dispatch is entirely through the flow registry.  Deterministic failures
    (an unknown flow name, a capability check rejecting the workload — e.g.
    the flang flow and OpenACC) come back as ``ok=False`` artifacts so they
    are cacheable; this function never raises for them.
    """
    import numpy as np

    try:
        workload = job.resolve_workload()
        flow = get_flow(job.flow)
        key = job.key()
    except Exception as exc:
        # unresolvable spec (unknown registry name, unknown flow, bad
        # kwargs): still an artifact, addressed by a spec-derived key so it
        # is cacheable
        return CompiledArtifact(key=_unresolvable_key(job), flow=job.flow,
                                workload=job.workload_name, ok=False,
                                error=f"{type(exc).__name__}: {exc}")
    # numeric edge cases (deliberate NaNs in conformance kernels) must not
    # spam warnings from pool workers
    with np.errstate(all="ignore"):
        return _run_resolved_job(job, flow, workload, key)


def _run_resolved_job(job: CompileJob, flow, workload,
                      key: str) -> CompiledArtifact:
    from ..ir.pass_manager import pipeline_settings
    from ..ir.printer import print_op
    from ..machine import Interpreter
    from .incremental import get_function_store

    store = get_function_store() if job.incremental else None
    result = None
    try:
        # the service discards FlowResult.timing, so skip the per-pass
        # timing/IR-size bookkeeping on this hot path
        with pipeline_settings(function_cache=store):
            result = flow.run(workload, job.options_dict(), job.execution(),
                              collect_statistics=False)
        if result.error is not None:
            # flows may encode failure in the result instead of raising
            return CompiledArtifact(key=key, flow=job.flow,
                                    workload=workload.name, ok=False,
                                    error=result.error)
        module = result.module
        module_text = print_op(module)
        interpreter = Interpreter(module, engine=job.execution().engine)
        interpreter.run_main()
        return CompiledArtifact(key=key, flow=job.flow, workload=workload.name,
                                ok=True, stats=interpreter.stats,
                                printed=tuple(interpreter.printed),
                                module_text=module_text,
                                pipeline=result.pipeline or "")
    except Exception as exc:
        return CompiledArtifact(key=key, flow=job.flow, workload=workload.name,
                                ok=False,
                                error=f"{type(exc).__name__}: {exc}")
    finally:
        # the artifact is text and numbers: nothing reads this job's IR
        # again, and left cyclic it would sit in memory until a
        # generation-2 collection happens by (the function store keeps
        # clones of its own)
        if result is not None:
            for module in result.stages.values():
                if module is not None:
                    module.drop_references()


def spec_fault_key(spec: Dict[str, Any]) -> str:
    """Stable, cheap fault-site context key for one job spec (no registry
    resolution, so unresolvable specs key deterministically too)."""
    return (f"{spec.get('flow')}/{spec.get('workload_name')}"
            f"/{spec.get('engine')}")


def execute_spec_timed(
        spec: Dict[str, Any], attempt: int = 0
) -> Tuple[str, Dict[str, Any], float, Dict[str, int]]:
    """Process-pool worker: run a job spec, return ``(key, payload)`` plus
    the worker's side channel — compile seconds and the delta this job
    caused in the process-wide counter registry (function-store and
    jit-translation traffic).

    The elapsed time is measured inside the worker, so it is pure
    compile+interpret time — pool queueing and pickling are excluded.  The
    extras travel next to the payload, never inside it: cached artifacts
    stay bit-identical whether or not their compile was timed.  The delta
    lets the scheduler aggregate hit rates across pool workers, whose
    registries are per-process.

    ``attempt`` is the scheduler's retry ordinal for this job; the fault
    sites fold it into their decisions, which is how a plan expresses
    "crash attempt 0, let the requeued attempt run clean".
    """
    fault_key = spec_fault_key(spec)
    faults.maybe_crash("worker.crash", key=fault_key, attempt=attempt)
    faults.maybe_sleep("worker.hang", key=fault_key, attempt=attempt)
    before = PROCESS.snapshot()
    started = time.perf_counter()
    artifact = run_job(CompileJob.from_spec(spec))
    payload = artifact.to_payload()
    elapsed = time.perf_counter() - started
    return artifact.key, payload, elapsed, PROCESS.delta(before)


__all__ = ["CompileJob", "CompiledArtifact", "ServiceError", "run_job",
           "execute_spec_timed", "spec_fault_key",
           "KEY_SCHEMA_VERSION"]
