"""Flow abstraction: first-class, registered compilation flows.

A :class:`Flow` is everything the service, the CLI and the harness need to
know about one way of compiling a workload: its *name*, its *capability
checks* (e.g. the baseline Flang flow rejects OpenACC), a typed *options
schema* (defaults replacing ad-hoc per-flow fields), a *pipeline builder*
returning an op-anchored nested
:class:`~repro.ir.pass_manager.PassManager`, and a uniform
:class:`FlowResult` with named stage snapshots.

Flows are registered in :mod:`repro.flows.registry`; everything above the
drivers (the compile service, the adapters, ``python -m repro.opt``)
dispatches by flow *name*, so adding a flow is one registration — no service
or adapter edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..ir.core import Operation
from ..ir.pass_manager import (_INHERIT as _INHERIT_SETTINGS,
                               PassInstrumentation, PassManager,
                               PassTimingReport, pipeline_settings)


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
    ``None`` here.  Both drivers return subclasses that add their
    historical attribute names (``fir_module``, ``optimised_module``, ...)
    as properties over the same stages dict.
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
    """One registered compilation flow.

    Subclasses set :attr:`name`, :attr:`schema` and implement
    :meth:`compile`; they may override :meth:`check_capabilities` (reject
    workloads the flow cannot build), :meth:`normalise_options` (derive
    extra canonical options from the workload/execution context) and
    :meth:`pipeline` (expose the textual pass pipeline the flow runs).
    """

    name: str = "<unnamed>"
    description: str = ""
    schema: OptionsSchema = OptionsSchema()
    #: The intermediate stages :meth:`run` can keep on request (``stages=``).
    snapshot_stages: Tuple[str, ...] = ()

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

    def pipeline(self, options: Dict[str, Any]) -> Optional[PassManager]:
        """The (possibly nested) pass pipeline this flow runs, if it has one."""
        return None

    def compile(self, workload, options: Dict[str, Any],
                execution: ExecutionContext, *,
                verify_each: bool = False,
                collect_statistics: bool = True,
                instrumentation: Sequence[PassInstrumentation] = (),
                stages: Sequence[str] = ()) -> FlowResult:
        raise NotImplementedError

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
        inside ``pipeline_settings(...)`` blocks keeps working), and every
        registered flow gets it without overriding :meth:`compile`.
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


__all__ = [
    "CapabilityError", "ENGINES", "ExecutionContext", "Flow", "FlowError",
    "FlowOption", "FlowResult", "OptionError", "OptionsSchema",
]
