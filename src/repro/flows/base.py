"""Flow abstraction: first-class, registered compilation flows.

A :class:`Flow` is everything the service, the CLI and the harness need to
know about one way of compiling a workload: its *name*, its *capability
checks* (e.g. the baseline Flang flow rejects OpenACC), a typed *options
schema* (defaults replacing ad-hoc per-flow fields), and a function from
options to *pipeline text*.  :meth:`Flow.compile` is the one driver every
flow shares: parse, analyse, lower to HLFIR, then run the flow's pipeline
(``PassManager.from_pipeline``) over the module in place.  The result is a
uniform :class:`FlowResult` with named stage snapshots.

Flows are registered in :mod:`repro.flows.registry`; everything above the
flows (the compile service, the table spec, ``python -m repro.opt``)
dispatches by flow *name*, so adding a flow is one registration — no service
edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..dialects.builtin import ModuleOp
from ..frontend import FortranLowering, analyze, parse_source
from ..frontend.units import program_units
from ..ir.core import Operation
from ..ir.pass_manager import (_INHERIT as _INHERIT_SETTINGS, Pass,
                               PassInstrumentation, PassManager, PassTiming,
                               PassTimingReport, current_settings,
                               pipeline_settings)
from ..ir.verifier import verify_operation


class FlowError(RuntimeError):
    """Base error for flow registration, options and capability problems."""


class CapabilityError(FlowError):
    """A flow cannot compile this workload / execution combination."""


class OptionError(FlowError):
    """An option value does not fit the flow's options schema."""


# ---------------------------------------------------------------------------
# Options schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowOption:
    """One typed flow option with its default value."""

    name: str
    type: type
    default: Any
    help: str = ""

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this option's type; raise :class:`OptionError`."""
        if self.type is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false"):
                return value.lower() == "true"
            if isinstance(value, int) and value in (0, 1):
                return bool(value)
        elif self.type is int:
            if isinstance(value, bool):
                pass  # bools are ints in Python; reject them for int options
            elif isinstance(value, int):
                return value
            elif isinstance(value, (str, float)):
                try:
                    as_float = float(value)
                    if as_float == int(as_float):
                        return int(as_float)
                except (TypeError, ValueError):
                    pass
        elif self.type is float:
            if isinstance(value, bool):
                pass
            elif isinstance(value, (int, float)):
                return float(value)
            else:
                try:
                    return float(value)
                except (TypeError, ValueError):
                    pass
        elif isinstance(value, self.type):
            return value
        raise OptionError(
            f"option '{self.name}' expects {self.type.__name__}, "
            f"got {value!r}")


class OptionsSchema:
    """The typed options a flow accepts, with defaults.

    ``coerce`` turns a user-supplied mapping into a complete, canonical
    options dict: defaults filled in, values type-checked.  Unknown keys
    raise in ``strict`` mode (the CLI) and are dropped otherwise (cache-key
    normalisation — so e.g. the flang flow deduplicates jobs that differ
    only in options it does not take).
    """

    def __init__(self, *options: FlowOption):
        self._options: Dict[str, FlowOption] = {o.name: o for o in options}

    def __iter__(self) -> Iterator[FlowOption]:
        return iter(self._options.values())

    def __contains__(self, name: str) -> bool:
        return name in self._options

    def names(self) -> List[str]:
        return list(self._options)

    def defaults(self) -> Dict[str, Any]:
        return {o.name: o.default for o in self._options.values()}

    def coerce(self, values: Optional[Dict[str, Any]] = None, *,
               strict: bool = True) -> Dict[str, Any]:
        result = self.defaults()
        for key, value in (values or {}).items():
            key = key.replace("-", "_")
            option = self._options.get(key)
            if option is None:
                if strict:
                    known = ", ".join(sorted(self._options)) or "<none>"
                    raise OptionError(
                        f"unknown option '{key}' (this flow takes: {known})")
                continue
            result[key] = option.coerce(value)
        return result

    def describe(self) -> str:
        if not self._options:
            return "(no options)"
        return ", ".join(f"{o.name}: {o.type.__name__} = {o.default!r}"
                         for o in self._options.values())


# ---------------------------------------------------------------------------
# Execution context
# ---------------------------------------------------------------------------


#: Interpreter engines an artifact can be executed on.  ``compiled`` is the
#: cached-dispatch engine (per-block thunks); ``reference`` is the one-op
#: reference engine; ``jit`` translates blocks into generated Python source
#: (:mod:`repro.machine.jit`); ``vector`` evaluates matched loop nests as
#: whole-array numpy expressions with analytically synthesized statistics
#: (:mod:`repro.machine.vector`).  All of them must be observationally
#: identical — the conformance oracle runs every kernel on every engine and
#: diffs the observables bit for bit.  The order matters: the first entry is
#: the oracle's parity baseline.
#: ``repro.machine.interpreter.ENGINE_NAMES`` is this tuple, imported.
ENGINES = ("compiled", "reference", "jit", "vector")

#: The engine every signature, dataclass field and CLI flag defaults to —
#: ``Interpreter(engine=None)`` included (``machine`` imports it from here).
#: ``jit`` wins every row of ``BENCH_interpreter.json``; ``compiled`` stays
#: a named engine and is the jit's cold tier and per-op fallback.
DEFAULT_ENGINE = "jit"


@dataclass(frozen=True)
class ExecutionContext:
    """How a compiled artifact will be executed (not *what* is compiled).

    Key material is what a flow or the interpreter reads: ``gpu`` and
    ``engine`` (each engine's artifacts are cached separately so
    differential runs can compare them).  ``threads`` reaches an artifact
    only through ``ours``'s ``parallelise`` option, so it is not here.
    """

    threads: int = 1
    gpu: bool = False
    engine: str = DEFAULT_ENGINE

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise FlowError(f"unknown interpreter engine {self.engine!r} "
                            f"(known: {', '.join(ENGINES)})")

    @property
    def parallel(self) -> bool:
        return self.threads > 1

    def key_material(self) -> Dict[str, Any]:
        return {"gpu": bool(self.gpu), "engine": self.engine}


# ---------------------------------------------------------------------------
# Flow result
# ---------------------------------------------------------------------------


@dataclass
class FlowResult:
    """Uniform result of one flow compilation: named stage snapshots.

    ``stages`` maps every stage name to its module in pipeline order; the
    last non-``None`` stage is the module the machine model executes
    (:attr:`module`).  An *intermediate* stage is a clone of the module
    taken before later stages rewrote it in place, and is taken only when
    the compile was asked for it by name (``stages=``) — otherwise it is
    ``None`` here.
    """

    flow: str
    source: str
    stages: Dict[str, Optional[Operation]]
    pipeline: str = ""
    timing: Optional[PassTimingReport] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def stage_names(self) -> List[str]:
        return list(self.stages)

    def stage(self, name: str) -> Optional[Operation]:
        return self.stages[name]

    def kept_stage(self, name: str) -> Operation:
        """Stage ``name``, or a :class:`FlowError` saying how to keep it."""
        module = self.stages[name]
        if module is None:
            raise FlowError(
                f"flow '{self.flow}' did not keep its '{name}' stage: "
                f"ask for it by name, stages=('{name}',)")
        return module

    @property
    def module(self) -> Operation:
        """The final materialised stage — what gets executed/printed."""
        final: Optional[Operation] = None
        for module in self.stages.values():
            if module is not None:
                final = module
        if final is None:
            raise FlowError(f"flow '{self.flow}' produced no IR stages")
        return final


# ---------------------------------------------------------------------------
# Flow
# ---------------------------------------------------------------------------


class Flow:
    """One registered compilation flow: data, plus the one driver.

    Subclasses set :attr:`name`, :attr:`schema` and :attr:`final_stage` and
    implement :meth:`pipeline`; they may override :meth:`check_capabilities`
    (reject workloads the flow cannot build) and :meth:`normalise_options`
    (derive extra canonical options from the workload/execution context).
    """

    name: str = "<unnamed>"
    description: str = ""
    schema: OptionsSchema = OptionsSchema()
    #: The intermediate stages :meth:`run` can keep on request (``stages=``),
    #: each mapped to the pass that ends it (``None``: the lowered HLFIR,
    #: before any pass runs).
    snapshot_stages: Dict[str, Optional[str]] = {}
    #: The name of the module the pipeline leaves: what the machine executes.
    final_stage: str = "module"

    # -- hooks -----------------------------------------------------------------
    def check_capabilities(self, workload, execution: ExecutionContext) -> None:
        """Raise (e.g. :class:`CapabilityError`) if this flow cannot compile
        ``workload`` under ``execution``."""

    def normalise_options(self, options: Optional[Dict[str, Any]], workload,
                          execution: ExecutionContext) -> Dict[str, Any]:
        """Canonical, fully-defaulted options dict — the cache-key material.

        Unknown options are dropped (not errors) so flows deduplicate jobs
        that differ only in options they do not consume.
        """
        return self.schema.coerce(options, strict=False)

    def pipeline(self, options: Dict[str, Any]) -> str:
        """The textual pass pipeline this flow runs over the lowered HLFIR."""
        raise NotImplementedError

    # -- the driver ------------------------------------------------------------
    def compile(self, workload, options: Dict[str, Any],
                execution: ExecutionContext, *,
                verify_each: bool = False,
                collect_statistics: bool = True,
                instrumentation: Sequence[PassInstrumentation] = (),
                stages: Sequence[str] = ()) -> FlowResult:
        """Parse, analyse, lower to HLFIR, run :meth:`pipeline` in place.

        With a function store that memoises program units (see
        :class:`~repro.service.incremental.FunctionArtifactStore`), a
        pipeline with a ``func.func`` nest and no snapshots asked for, a
        top-level unit whose key the store knows is served whole: its
        functions are lowered as declarations, which the nest leaves alone,
        and swapped for the served functions afterwards.  Every other
        function takes the ordinary route, structural lookups included.
        """
        # importing these registers every pass a pipeline text may name
        from .. import core, flang, transforms  # noqa: F401
        source = workload.source(scaled=True)
        analysis = analyze(parse_source(source))
        pm = PassManager.from_pipeline(self.pipeline(options),
                                       verify_each=verify_each,
                                       collect_statistics=collect_statistics)
        pipeline = pm.describe()
        store = current_settings().function_cache
        splicer = None
        if not stages and hasattr(store, "lookup_unit") and any(
                isinstance(entry, PassManager) and entry.anchor == "func.func"
                for entry in pm.passes):
            splicer = _UnitSplicer(store, source, analysis, pipeline)

        module = FortranLowering(analysis).lower(
            declare_only=splicer.served if splicer else ())
        snapshots = _StageSnapshots(
            module, {name: self.snapshot_stages[name] for name in stages})
        instruments = [*instrumentation, snapshots] if stages \
            else list(instrumentation)
        if splicer is None:
            pm.run(module, instrumentation=instruments)
            timing = pm.last_report
        else:
            with pipeline_settings(function_cache=splicer):
                pm.run(module, instrumentation=instruments)
            timing = splicer.finish(module, pm.last_report,
                                    verify=verify_each,
                                    statistics=collect_statistics)
        kept = {name: snapshots.kept.get(name)
                for name in self.snapshot_stages}
        return FlowResult(flow=self.name, source=source,
                          stages={**kept, self.final_stage: module},
                          pipeline=pipeline, timing=timing)

    # -- entry point -----------------------------------------------------------
    def run(self, workload, options: Optional[Dict[str, Any]] = None,
            execution: Optional[ExecutionContext] = None, *,
            verify_each: bool = False,
            collect_statistics: bool = True,
            instrumentation: Sequence[PassInstrumentation] = (),
            function_cache: Any = _INHERIT_SETTINGS,
            stages: Sequence[str] = ()) -> FlowResult:
        """Check capabilities, normalise options, compile. The one entry point.

        ``collect_statistics=False`` skips the per-pass timing/IR-size
        bookkeeping — the compile service uses it since it discards
        :attr:`FlowResult.timing`.

        ``stages`` names the intermediate stages (of
        :attr:`snapshot_stages`) to keep in :attr:`FlowResult.stages`.
        Each costs a clone of the whole module, so the default keeps none:
        the service, the harness and the benches read
        :attr:`FlowResult.module` alone; ``repro.opt --print-stages`` asks
        for all of them.

        ``function_cache`` sets the ambient
        :func:`~repro.ir.pass_manager.pipeline_settings` for the compile: a
        :class:`~repro.service.incremental.FunctionArtifactStore` makes the
        compile incremental at function granularity.  It defaults to
        whatever the calling context already established (so nesting flows
        inside ``pipeline_settings(...)`` blocks keeps working).
        """
        execution = execution or ExecutionContext()
        unknown = sorted(set(stages) - set(self.snapshot_stages))
        if unknown:
            raise FlowError(
                f"flow '{self.name}' has no intermediate stage "
                f"{', '.join(map(repr, unknown))} (it can keep: "
                f"{', '.join(self.snapshot_stages) or '<none>'})")
        self.check_capabilities(workload, execution)
        normalised = self.normalise_options(options, workload, execution)
        with pipeline_settings(function_cache=function_cache):
            return self.compile(workload, normalised, execution,
                                verify_each=verify_each,
                                collect_statistics=collect_statistics,
                                instrumentation=instrumentation,
                                stages=stages)

    def describe(self) -> str:
        return f"{self.name}: {self.description or '<no description>'}"


def source_workload(source: str, name: str = "<source>"):
    """A workload for raw Fortran source text, so a source string can go
    through ``get_flow(name).run(...)`` like any registered workload.

    Braces are escaped (the template is ``str.format``-ed with no
    parameters), and ``!$omp`` / ``!$acc`` directives set the flags the
    flows read.
    """
    from ..workloads import Workload
    lowered = source.lower()
    return Workload(name=name, category="adhoc", description="source text",
                    source_template=source.replace("{", "{{")
                    .replace("}", "}}"),
                    paper_params={}, interp_params={},
                    work_model=lambda params: 1.0,
                    uses_openmp="!$omp" in lowered,
                    uses_openacc="!$acc" in lowered)


# ---------------------------------------------------------------------------
# The driver's helpers
# ---------------------------------------------------------------------------


class _StageSnapshots(PassInstrumentation):
    """Clones of the stages one compile asked for: the lowered module when
    built, every later stage after the pass that ends it."""

    def __init__(self, module: Operation, wanted: Dict[str, Optional[str]]):
        self.module = module
        self.after = {pass_name: stage for stage, pass_name in wanted.items()
                      if pass_name is not None}
        self.kept = {stage: module.clone()
                     for stage, pass_name in wanted.items() if pass_name is None}

    def after_pass(self, pass_: Pass, op: Operation,
                   timing: PassTiming) -> None:
        stage = self.after.get(pass_.NAME)
        if stage is not None:
            self.kept[stage] = self.module.clone()


class _UnitSplicer:
    """One compile against a function store that memoises program units.

    Units the store knows are served whole (:attr:`served`, by subprogram
    name).  For the rest, this object stands in for the store during the
    pipeline: it forwards every structural lookup and store, noting each
    function's fingerprint and timings in the order the nest visits them,
    so :meth:`finish` can remember the units and swap the served functions
    in for their declarations.
    """

    def __init__(self, store, source: str, analysis, pipeline: str):
        self.backing = store
        self.analysis = analysis
        try:
            self.units = program_units(source, analysis, pipeline)
        except Exception:
            # unkeyable (an error lowering will report): compile it all, so
            # the error is the one a compile without the store raises
            self.units = []
        self.served: Dict[str, Tuple[Operation, Tuple[PassTiming, ...]]] = {}
        for unit in self.units:
            functions = store.lookup_unit(unit.key)
            if functions is not None:
                self.served.update(zip(unit.subprograms, functions))
        self.seen: List[Tuple[str, Tuple[PassTiming, ...]]] = []

    # -- the nest's function cache ---------------------------------------------
    def lookup(self, fingerprint: str):
        hit = self.backing.lookup(fingerprint)
        if hit is not None:
            self.seen.append((fingerprint, tuple(hit[1])))
        return hit

    def store(self, fingerprint: str, func: Operation,
              timings: Sequence[PassTiming] = ()) -> None:
        self.seen.append((fingerprint, tuple(timings)))
        self.backing.store(fingerprint, func, timings)

    # -- after the pipeline ----------------------------------------------------
    def finish(self, module: ModuleOp, report: PassTimingReport, *,
               verify: bool, statistics: bool) -> PassTimingReport:
        """Swap each served declaration for its function, remember the
        units the nest compiled, and order the timing report by function."""
        served = {func.get_attr("sym_name").value: func
                  for func, _ in self.served.values()}
        ran = 0
        for op in module.body.ops:
            if op.name != "func.func":
                continue
            if op.regions[0].blocks:
                ran += 1
                continue
            module.body.insert_before(op, served[op.get_attr("sym_name").value])
            op.erase(check_uses=False)
        if self.served and verify:
            verify_operation(module)

        if len(self.seen) != ran:
            return report   # a fingerprint failed: remember nothing
        order = list(self.analysis.subprograms)
        compiled = [name for name in order if name not in self.served]
        seen = dict(zip(compiled, self.seen))
        for unit in self.units:
            if all(name in seen for name in unit.subprograms):
                self.backing.remember_unit(
                    unit.key, [seen[name][0] for name in unit.subprograms])
        if not self.served or not statistics:
            return report
        per_function = {**seen, **self.served}
        return PassTimingReport(
            pipeline=report.pipeline,
            timings=tuple(t for t in report.timings
                          if t.anchor != "func.func")
            + tuple(t for name in order for t in per_function[name][1]))


__all__ = [
    "CapabilityError", "ENGINES", "ExecutionContext", "Flow", "FlowError",
    "FlowOption", "FlowResult", "OptionError", "OptionsSchema",
    "source_workload",
]
