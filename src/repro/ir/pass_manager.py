"""Pass and pass-pipeline infrastructure.

Passes are registered by name so that pipelines can be described with the
same textual syntax the paper uses for ``mlir-opt`` (Listing 1), e.g.::

    builtin.module(canonicalize, cse, raise-scf-to-affine,
                   affine-super-vectorize{virtual-vector-size=4})

Pipelines may be *op-anchored*: a ``func.func(...)`` entry nests a
sub-pipeline that runs independently over every ``func.func`` in the module,
mirroring MLIR's ``OpPassManager`` nesting::

    builtin.module(func.func(canonicalize, cse), raise-scf-to-affine)

:class:`PassManager` parses such strings, instantiates the registered passes
with their options and runs them in order over a module.  Every ``run()``
produces a fresh :class:`PassTimingReport` (per-pass wall time + IR size
delta) and can drive :class:`PassInstrumentation` hooks (IR dumps before or
after selected passes, verification between passes).

Because an op-anchored sub-pipeline's targets are independent, they are the
unit of *incremental* compilation, controlled ambiently through
:func:`pipeline_settings` (a :class:`contextvars` context), so no
``compile()`` signature anywhere needs to change: ``function_cache`` (see
:mod:`repro.service.incremental`) memoises ``func.func`` nest results keyed
on the function's structural fingerprint salted with the nest's pipeline
text, and an unchanged function is spliced from the cache instead of
re-running the pipeline.

Splicing preserves the hard invariant that the resulting IR is
bit-identical to a full recompile — passes are deterministic and
function-local within a ``func.func`` nest, and the conformance oracle
polices the equivalence end to end.
"""

from __future__ import annotations

import re
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from .core import IRError, Operation
from .verifier import verify_operation


class PassError(IRError):
    pass


class Pass:
    """Base class for module-level passes."""

    NAME: str = "<unnamed>"

    def __init__(self, **options):
        self.options = options

    def run(self, module: Operation) -> None:
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover
        return f"<Pass {self.NAME} {self.options}>"


def anchored_ops(host: Operation, anchor: str) -> List[Operation]:
    """The ``anchor`` ops under ``host`` (itself included), in walk order.

    Looking for functions does not enter a function: the verifier rejects a
    ``func.func`` inside another function's body, so there is nothing to
    find there — and a nested pipeline asks this once per pass per function.
    """
    if anchor != "func.func":
        return [op for op in host.walk() if op.name == anchor]
    found: List[Operation] = []
    stack = [host]
    while stack:
        op = stack.pop()
        if op.name == anchor:
            found.append(op)
            continue
        for region in reversed(op.regions):
            for block in reversed(region.blocks):
                stack.extend(reversed(block.ops))
    return found


class FunctionPass(Pass):
    """Pass that runs independently over every ``func.func`` in the module."""

    def run(self, module: Operation) -> None:
        for func in anchored_ops(module, "func.func"):
            self.run_on_function(func)

    def run_on_function(self, func: Operation) -> None:
        raise NotImplementedError


PASS_REGISTRY: Dict[str, Callable[..., Pass]] = {}


def register_pass(cls):
    """Class decorator registering a pass under its ``NAME``."""
    name = getattr(cls, "NAME", None)
    if not name or name == "<unnamed>":
        raise PassError(f"pass class {cls.__name__} has no NAME")
    PASS_REGISTRY[name] = cls
    return cls


def get_registered_pass(name: str) -> Callable[..., Pass]:
    if name not in PASS_REGISTRY:
        raise PassError(f"no pass registered under the name '{name}'")
    return PASS_REGISTRY[name]


def available_passes() -> List[str]:
    return sorted(PASS_REGISTRY)


# ---------------------------------------------------------------------------
# Pipeline string parsing
# ---------------------------------------------------------------------------

#: A parsed pipeline entry: either ``(pass_name, options_dict)`` or, for an
#: op-anchored sub-pipeline, ``(anchor_name, [nested entries])``.
PipelineEntry = Tuple[str, Union[Dict[str, object], List["PipelineEntry"]]]

_NAME_RE = re.compile(r"[\w.\-]+")
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+\.?)([eE][+-]?\d+)?$")


#: Non-numeric float spellings accepted (and therefore quoted when they
#: appear as *string* values, to keep the describe/parse round trip exact).
_FLOAT_WORDS = frozenset({"inf", "+inf", "-inf", "infinity", "+infinity",
                          "-infinity", "nan", "+nan", "-nan"})


def _parse_scalar(value: str) -> object:
    """Interpret a bare (unquoted) option value."""
    lowered = value.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(value)
    except ValueError:
        pass
    try:
        if _NUMBER_RE.match(value) or lowered in _FLOAT_WORDS:
            return float(value)
    except ValueError:  # pragma: no cover - _NUMBER_RE guards float()
        pass
    return value


def _scan_braced(text: str, start: int) -> int:
    """Index just past the ``}`` matching ``text[start] == '{'``, treating
    quoted substrings (with backslash escapes) as opaque."""
    depth = 0
    i, n = start, len(text)
    while i < n:
        ch = text[i]
        if ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                i += 1
            if i >= n:
                raise PassError(
                    f"unterminated quoted value in '{text[start:]}'")
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise PassError(f"unbalanced braces in '{text[start:]}'")


def _parse_options(text: str) -> Dict[str, object]:
    """Parse the ``key=value`` list inside a ``{...}`` option group.

    Pairs are separated by whitespace or commas (both appear in the wild).
    Values may be bare tokens (parsed as bool/int/float when they look like
    one), single- or double-quoted strings (kept verbatim, with ``\\``
    escapes), or balanced ``{...}`` groups kept as raw text.
    """
    options: Dict[str, object] = {}
    i, n = 0, len(text)
    while i < n:
        if text[i] in " \t\n,":
            i += 1
            continue
        m = _NAME_RE.match(text, i)
        if not m:
            raise PassError(f"cannot parse pass options '{text}' "
                            f"(unexpected character {text[i]!r})")
        key = m.group(0).replace("-", "_")
        i = m.end()
        while i < n and text[i] in " \t\n":
            i += 1
        if i >= n or text[i] != "=":
            # a bare flag, mlir style: {flag} means flag=true
            options[key] = True
            continue
        i += 1
        while i < n and text[i] in " \t\n":
            i += 1
        if i < n and text[i] in "\"'":
            quote = text[i]
            i += 1
            chunk: List[str] = []
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    i += 1
                chunk.append(text[i])
                i += 1
            if i >= n:
                raise PassError(f"unterminated quoted value in options '{text}'")
            i += 1  # closing quote
            options[key] = "".join(chunk)
        elif i < n and text[i] == "{":
            start = i
            i = _scan_braced(text, i)
            options[key] = text[start:i]
        else:
            start = i
            while i < n and text[i] not in " \t\n,":
                i += 1
            options[key] = _parse_scalar(text[start:i])
    return options


def _is_balanced_group(text: str) -> bool:
    if not (text.startswith("{") and text.endswith("}")):
        return False
    try:
        return _scan_braced(text, 0) == len(text)
    except PassError:
        return False


def _quote_option_value(value: object) -> str:
    """Render one option value so that :func:`_parse_options` reads it back
    as an equal object (the describe/parse round trip)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    if _is_balanced_group(text):
        return text  # raw {...} group, emitted verbatim
    needs_quotes = (
        text == ""
        or any(ch in text for ch in " \t\n,=\"'(){}")
        or text.lower() in ("true", "false")
        or text.lower() in _FLOAT_WORDS
        or _NUMBER_RE.match(text) is not None
    )
    if needs_quotes:
        escaped = text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return text


def format_options(options: Dict[str, object]) -> str:
    """Canonical ``{k=v ...}`` text for a pass option dict ('' when empty)."""
    if not options:
        return ""
    parts = [f"{k.replace('_', '-')}={_quote_option_value(v)}"
             for k, v in options.items()]
    return "{" + " ".join(parts) + "}"


def parse_pipeline(pipeline: str) -> List[PipelineEntry]:
    """Parse an mlir-opt style pipeline string into pipeline entries.

    Flat entries come back as ``(pass_name, options_dict)``; op-anchored
    sub-pipelines (e.g. ``func.func(canonicalize)``) come back as
    ``(anchor, [nested entries])``.  The optional ``builtin.module(...)``
    wrapper is accepted and stripped.
    """
    entries, pos = _parse_entries(pipeline, 0, top=True)
    rest = pipeline[pos:].strip()
    if rest:
        raise PassError(f"trailing text after pipeline: '{rest}'")
    if len(entries) == 1 and entries[0][0] == "builtin.module" \
            and isinstance(entries[0][1], list):
        return entries[0][1]
    return entries


def _parse_entries(text: str, pos: int,
                   top: bool = False) -> Tuple[List[PipelineEntry], int]:
    entries: List[PipelineEntry] = []
    n = len(text)
    need_comma = False
    while pos < n:
        while pos < n and text[pos] in " \t\n":
            pos += 1
        if pos >= n:
            break
        if text[pos] == ",":
            pos += 1
            need_comma = False
            continue
        if text[pos] == ")":
            if top:
                raise PassError(f"unbalanced ')' in pipeline '{text}'")
            return entries, pos
        if need_comma:
            raise PassError(f"expected ',' before '{text[pos:pos + 20]}' "
                            f"in pipeline '{text}'")
        need_comma = True
        m = _NAME_RE.match(text, pos)
        if not m:
            raise PassError(
                f"cannot parse pipeline entry at '{text[pos:pos + 20]}'")
        name = m.group(0)
        pos = m.end()
        if pos < n and text[pos] == "(":
            nested, pos = _parse_entries(text, pos + 1)
            if pos >= n or text[pos] != ")":
                raise PassError(f"unbalanced '(' in pipeline '{text}'")
            pos += 1
            entries.append((name, nested))
        elif pos < n and text[pos] == "{":
            start = pos
            pos = _scan_braced(text, pos)
            entries.append((name, _parse_options(text[start + 1:pos - 1])))
        else:
            entries.append((name, {}))
    return entries, pos


# ---------------------------------------------------------------------------
# Ambient pipeline settings (incremental function cache)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSettings:
    """Ambient knobs every ``PassManager.run`` in the context observes.

    ``function_cache`` is duck-typed: anything with
    ``lookup(key) -> Optional[(Operation, Sequence[PassTiming])]`` and
    ``store(key, func, timings)`` works (the canonical implementation is
    :class:`repro.service.incremental.FunctionArtifactStore` — the ``ir``
    layer deliberately does not import it).
    """

    function_cache: Optional[Any] = None


_SETTINGS: "ContextVar[PipelineSettings]" = ContextVar(
    "repro_pipeline_settings", default=PipelineSettings())

#: Sentinel: "keep the surrounding context's value" (distinct from ``None``,
#: which explicitly disables the function cache).
_INHERIT = object()


def current_settings() -> PipelineSettings:
    return _SETTINGS.get()


@contextmanager
def pipeline_settings(*, function_cache=_INHERIT):
    """Scope incremental compilation settings over a code region.

    ``function_cache`` keeps the surrounding store unless explicitly given
    (``None`` disables).
    """
    current = _SETTINGS.get()
    updated = PipelineSettings(
        function_cache=(current.function_cache
                        if function_cache is _INHERIT else function_cache))
    token = _SETTINGS.set(updated)
    try:
        yield updated
    finally:
        _SETTINGS.reset(token)


# ---------------------------------------------------------------------------
# Per-run statistics
# ---------------------------------------------------------------------------


def ir_size(op: Operation) -> int:
    """Number of operations in ``op``'s tree — the IR size metric reports use."""
    return sum(1 for _ in op.walk())


@dataclass(frozen=True)
class PassTiming:
    """Wall time + IR size effect of one pass execution."""

    pass_name: str
    anchor: str
    wall_s: float
    ops_before: int
    ops_after: int

    @property
    def ir_delta(self) -> int:
        return self.ops_after - self.ops_before

    def as_dict(self) -> Dict[str, Any]:
        return {"pass": self.pass_name, "anchor": self.anchor,
                "wall_s": self.wall_s, "ops_before": self.ops_before,
                "ops_after": self.ops_after, "ir_delta": self.ir_delta}


@dataclass
class PassTimingReport:
    """Structured statistics for one :meth:`PassManager.run` invocation."""

    pipeline: str
    timings: Tuple[PassTiming, ...] = ()

    @property
    def total_s(self) -> float:
        return sum(t.wall_s for t in self.timings)

    def render(self, *, indent: str = "  ") -> str:
        """mlir-opt style ``-mlir-timing`` report text."""
        lines = ["===-------------------------------------------------------===",
                 "                   Pass execution timing report",
                 "===-------------------------------------------------------===",
                 f"{indent}Total execution time: {self.total_s:.6f}s",
                 f"{indent}{'Wall (s)':>10}  {'IR delta':>8}  Pass"]
        for t in self.timings:
            name = t.pass_name if t.anchor == "builtin.module" \
                else f"{t.anchor}({t.pass_name})"
            lines.append(f"{indent}{t.wall_s:>10.6f}  {t.ir_delta:>+8d}  {name}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


class PassInstrumentation:
    """Hooks invoked around every pass execution of a :class:`PassManager`.

    Subclass and override either method; ``op`` is the op the pass anchors on
    (the module for top-level passes, the ``func.func`` for nested ones).
    """

    def before_pass(self, pass_: Pass, op: Operation) -> None:  # pragma: no cover
        pass

    def after_pass(self, pass_: Pass, op: Operation,
                   timing: PassTiming) -> None:  # pragma: no cover
        pass


class IRDumpInstrumentation(PassInstrumentation):
    """Print the IR before and/or after selected passes (``--dump-ir``)."""

    def __init__(self, *, before: bool = False, after: bool = True,
                 only: Optional[Iterable[str]] = None, stream=None):
        self.dump_before = before
        self.dump_after = after
        self.only = set(only) if only is not None else None
        self.stream = stream if stream is not None else sys.stderr

    def _wanted(self, pass_: Pass) -> bool:
        return self.only is None or pass_.NAME in self.only

    def _dump(self, label: str, pass_: Pass, op: Operation) -> None:
        from .printer import print_op
        print(f"// -----// IR dump {label} {pass_.NAME} //----- //",
              file=self.stream)
        print(print_op(op), file=self.stream)

    def before_pass(self, pass_: Pass, op: Operation) -> None:
        if self.dump_before and self._wanted(pass_):
            self._dump("before", pass_, op)

    def after_pass(self, pass_: Pass, op: Operation,
                   timing: PassTiming) -> None:
        if self.dump_after and self._wanted(pass_):
            self._dump("after", pass_, op)


# ---------------------------------------------------------------------------
# PassManager
# ---------------------------------------------------------------------------


class PassManager:
    """Runs a (possibly nested) sequence of passes over a module.

    ``anchor`` names the op kind this manager's passes run on.  The top-level
    manager anchors on ``builtin.module``; :meth:`nest` creates a child
    manager whose passes run once per matching op (MLIR's ``OpPassManager``
    nesting), e.g.::

        pm = PassManager()
        pm.nest("func.func").add("canonicalize").add("cse")
        pm.add("raise-scf-to-affine")

    Each :meth:`run` resets the per-run statistics: ``pm.statistics`` holds
    ``(pass name, seconds)`` pairs for that run only and ``pm.last_report``
    the structured :class:`PassTimingReport`.
    """

    def __init__(self, passes: Sequence[Union[Pass, "PassManager"]] = (), *,
                 anchor: str = "builtin.module", verify_each: bool = False,
                 collect_statistics: bool = True,
                 instrumentations: Sequence[PassInstrumentation] = ()):
        self.passes: List[Union[Pass, PassManager]] = list(passes)
        self.anchor = anchor
        self.verify_each = verify_each
        self.collect_statistics = collect_statistics
        self.instrumentations: List[PassInstrumentation] = list(instrumentations)
        self.statistics: List[Tuple[str, float]] = []
        self.last_report: Optional[PassTimingReport] = None

    # -- construction -----------------------------------------------------------
    def add(self, pass_: "Pass | str", **options) -> "PassManager":
        if isinstance(pass_, str):
            pass_ = get_registered_pass(pass_)(**options)
        self.passes.append(pass_)
        return self

    def nest(self, anchor: str) -> "PassManager":
        """Append and return a sub-pipeline anchored on ``anchor`` ops."""
        child = PassManager(anchor=anchor,
                            collect_statistics=self.collect_statistics)
        self.passes.append(child)
        return child

    def add_instrumentation(self, instr: PassInstrumentation) -> "PassManager":
        self.instrumentations.append(instr)
        return self

    def set_collect_statistics(self, flag: bool) -> "PassManager":
        """Set statistics collection on this manager and every nested one."""
        self.collect_statistics = flag
        for entry in self.passes:
            if isinstance(entry, PassManager):
                entry.set_collect_statistics(flag)
        return self

    @classmethod
    def from_pipeline(cls, pipeline: str, *, verify_each: bool = False,
                      collect_statistics: bool = True) -> "PassManager":
        pm = cls(verify_each=verify_each, collect_statistics=collect_statistics)
        pm._extend_from_entries(parse_pipeline(pipeline))
        return pm

    def _extend_from_entries(self, entries: Sequence[PipelineEntry]) -> None:
        for name, payload in entries:
            if isinstance(payload, list):
                self.nest(name)._extend_from_entries(payload)
            else:
                self.add(name, **payload)

    # -- execution ---------------------------------------------------------------
    def run(self, module: Operation, *,
            instrumentation: Sequence[PassInstrumentation] = ()) -> Operation:
        """Run all passes over ``module``; statistics reset on every call."""
        self.statistics = []
        timings: List[PassTiming] = []
        instruments = self.instrumentations + list(instrumentation)
        self._run_entries(module, module, instruments, timings)
        self.last_report = PassTimingReport(pipeline=self.describe(),
                                            timings=tuple(timings))
        return module

    def _run_entries(self, root: Operation, op: Operation,
                     instruments: Sequence[PassInstrumentation],
                     timings: List[PassTiming],
                     stats: Optional[List[Tuple[str, float]]] = None,
                     verify_each: Optional[bool] = None) -> None:
        stats = self.statistics if stats is None else stats
        verify = self.verify_each if verify_each is None else verify_each
        # between two consecutive passes at this level nothing else mutates
        # ``op``, so the previous pass's post-size is the next pass's
        # pre-size — one tree walk per pass, not two
        size_after_last: Optional[int] = None
        for entry in self.passes:
            if isinstance(entry, PassManager):
                # a nested manager contributes its own hooks on top of the
                # ones inherited from this level
                child_instruments = list(instruments) + entry.instrumentations
                child_verify = verify or entry.verify_each
                entry._run_over_targets(root, op, child_instruments,
                                        timings, stats, child_verify)
                size_after_last = None  # the child mutated our subtree
                continue
            for instr in instruments:
                instr.before_pass(entry, op)
            if self.collect_statistics:
                before = (size_after_last if size_after_last is not None
                          else ir_size(op))
            else:
                before = 0
            start = time.perf_counter()
            entry.run(op)
            elapsed = time.perf_counter() - start
            after = ir_size(op) if self.collect_statistics else 0
            size_after_last = after if self.collect_statistics else None
            timing = PassTiming(pass_name=entry.NAME, anchor=op.name,
                                wall_s=elapsed, ops_before=before,
                                ops_after=after)
            if self.collect_statistics:
                stats.append((entry.NAME, elapsed))
                timings.append(timing)
            for instr in instruments:
                instr.after_pass(entry, op, timing)
            if verify:
                verify_operation(root)

    # -- op-anchored nest scheduling ---------------------------------------------
    def _registry_reconstructible(self) -> bool:
        """True when this pipeline can be rebuilt exactly from its text —
        every pass is the registered class for its name, so a cache key
        built from the text names exactly the pipeline that runs."""
        for entry in self.passes:
            if isinstance(entry, PassManager):
                if not entry._registry_reconstructible():
                    return False
            elif PASS_REGISTRY.get(entry.NAME) is not type(entry):
                return False
        return True

    def _run_over_targets(self, root: Operation, host: Operation,
                          instruments: Sequence[PassInstrumentation],
                          timings: List[PassTiming],
                          stats: List[Tuple[str, float]],
                          verify: bool) -> None:
        """Run this nested manager over every matching op under ``host``
        that has a body: a declaration is left alone, as MLIR's function
        passes leave external functions.

        This is where incremental compilation plugs in: hits in the ambient
        :class:`PipelineSettings` function cache are spliced (their stored
        timings stand in for the run), misses run the pipeline and feed the
        cache, so the report structure is the same either way.
        """
        cache = current_settings().function_cache
        salt = ""
        if cache is not None:
            if self.anchor == "func.func" and self._registry_reconstructible():
                salt = f"{self.anchor}({self._describe_entries()})"
            else:
                cache = None

        spliced_from_cache = False
        for target in anchored_ops(host, self.anchor):
            if target.regions and not target.regions[0].blocks:
                continue   # a declaration: nothing to run a pipeline over
            key = None
            if cache is not None and target.parent is not None:
                try:
                    from .structural_hash import structural_fingerprint
                    key = structural_fingerprint(target, salt=salt)
                    hit = cache.lookup(key)
                except Exception:
                    key = hit = None
                if hit is not None:
                    # splice: safe because a func.func is isolated from
                    # above and has no SSA results, so nothing outside the
                    # subtree can reference the op being replaced
                    replacement, cached = hit
                    target.parent.insert_before(target, replacement)
                    target.erase(check_uses=False)
                    spliced_from_cache = True
                    if self.collect_statistics:
                        timings.extend(cached)
                        stats.extend((t.pass_name, t.wall_s) for t in cached)
                    continue
            local: List[PassTiming] = []
            self._run_entries(root, target, instruments, local, stats, verify)
            timings.extend(local)
            if key is not None:
                try:
                    cache.store(key, target, tuple(local))
                except Exception:
                    pass   # a full store is a cache problem, not a compile one
        if spliced_from_cache and verify:
            verify_operation(root)

    # -- description -------------------------------------------------------------
    def _describe_entries(self) -> str:
        parts = []
        for entry in self.passes:
            if isinstance(entry, PassManager):
                parts.append(f"{entry.anchor}({entry._describe_entries()})")
            else:
                parts.append(f"{entry.NAME}{format_options(entry.options)}")
        return ",".join(parts)

    def describe(self) -> str:
        """Canonical pipeline text; ``parse_pipeline`` round-trips it exactly."""
        return f"builtin.module({self._describe_entries()})"


__all__ = [
    "Pass",
    "FunctionPass",
    "PassError",
    "PassManager",
    "PassInstrumentation",
    "PipelineSettings",
    "pipeline_settings",
    "current_settings",
    "IRDumpInstrumentation",
    "PassTiming",
    "PassTimingReport",
    "PASS_REGISTRY",
    "register_pass",
    "get_registered_pass",
    "available_passes",
    "parse_pipeline",
    "format_options",
    "ir_size",
]
