"""Top-level program units and the keys that tell when one is unchanged.

A source file is a sequence of top-level units — ``program``,
``subroutine``, ``function`` and ``module``; a contained procedure belongs
to its host.  A unit's functions are lowered and converted from two inputs
only: the unit's own source text and what other units export to it.
:func:`program_units` splits an analysed program into its units and keys
each one on a SHA-256 over

* the unit's source text, cut at the parser's unit boundaries;
* the program's :func:`interface_digest` — everything one unit's lowering
  or conversion reads from the others;
* a caller-supplied salt (the flow driver passes its pipeline text).

Two compiles that give a unit the same key build the same functions for
it, which is what lets :meth:`repro.flows.base.Flow.compile` skip them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

from . import ast_nodes as ast
from .lowering import FortranLowering
from .semantics import AnalysisResult


@dataclass(frozen=True)
class ProgramUnit:
    """One top-level unit: its key and, in module order, the subprograms
    whose functions it defines."""

    key: str
    subprograms: Tuple[str, ...]


def interface_digest(analysis: AnalysisResult) -> str:
    """SHA-256 over what any unit's functions may read from other units.

    * every subprogram's FIR signature and dummy intents (what the standard
      conversion collects for calls);
    * every function's result type (what semantics types a call with);
    * module globals, in declaration order (every function declares each
      one), with type and initialiser;
    * derived types (record layouts are global).

    Subprograms, functions and derived types are hashed by name, so the
    order of the units in the file does not enter.
    """
    lowering = FortranLowering(analysis)
    parts = []
    for name in sorted(analysis.subprograms):
        func_type, intents = lowering.signature(analysis.subprograms[name])
        parts.append(f"sub {name} {func_type.mlir()} {intents!r}")
    for name in sorted(analysis.function_results):
        parts.append(f"result {name} {analysis.function_results[name]!r}")
    for sym in analysis.globals.values():
        parts.append(f"global {sym.name} {sym.ftype!r} {sym.is_parameter} "
                     f"{sym.parameter_value!r} {sym.initial_value!r}")
    for name in sorted(analysis.derived_types):
        parts.append(f"type {name} "
                     f"{analysis.derived_types[name].components!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _unit_subprograms(node) -> List[ast.Subprogram]:
    hosts = node.subprograms if isinstance(node, ast.ModuleUnit) else [node]
    return [sp for host in hosts for sp in [host, *host.contains]]


def program_units(source: str, analysis: AnalysisResult,
                  salt: str) -> List[ProgramUnit]:
    """The analysed program's top-level units, keyed (see module doc).

    A unit's text runs from its first line to the line before the next
    unit starts (or to the end of the file), and always through the last
    line the parser consumed for it, so comments after a unit count as
    its text.  A subprogram belongs to the unit whose AST node semantics
    kept for its name.
    """
    lines = source.splitlines(keepends=True)
    interface = interface_digest(analysis)
    spans = analysis.unit.spans
    keys: List[str] = []
    owner = {}
    for index, (node, first, last) in enumerate(spans):
        following = spans[index + 1][1] if index + 1 < len(spans) \
            else len(lines) + 1
        text = "".join(lines[first - 1:max(last, following - 1)])
        keys.append(hashlib.sha256(
            "\x00".join((text, interface, salt)).encode()).hexdigest())
        for sp in _unit_subprograms(node):
            owner[id(sp)] = index
    names: List[List[str]] = [[] for _ in spans]
    for name, info in analysis.subprograms.items():
        names[owner[id(info.subprogram)]].append(name)
    return [ProgramUnit(key, tuple(subprograms))
            for key, subprograms in zip(keys, names) if subprograms]


__all__ = ["ProgramUnit", "interface_digest", "program_units"]
