"""Trace-compiling JIT interpreter engine.

The third execution engine (``Interpreter(..., engine="jit")``).  Instead of
executing one closure per operation (the cached-dispatch ``compiled``
engine), every block is translated on first entry into *generated Python
source*: straight-line op sequences are fused into a single function body
with operands bound to locals, ``scf.for`` / ``affine.for`` / ``fir.do_loop``
bodies (and ``scf.if`` arms) are inlined as native ``while`` / ``if``
constructs, statistics counters accumulate in plain integer locals and are
flushed into the per-context :class:`collections.Counter` once per block
exit, and array accesses are emitted as direct indexing expressions.  The
source is ``compile()``/``exec``-ed once and the resulting code object is
re-run on every loop iteration.

A translation is a handful of *units*, one generated function each, none
above a fixed budget (:data:`_UNIT_OPS`): ``compile()`` needs memory in
proportion to the largest function it is handed, and a 1,268-op loop body
emitted whole was a 288 KB function that cost 20 MiB of peak RSS.  A step
list above the budget is cut into consecutive runs, each emitted as
``_jit_part_N(env)`` and called from where it was cut (:func:`_partition`);
values crossing a cut travel through ``env`` under the rule that already
moved them to fallback thunks.

Numeric semantics stay centralized: every pure value op is emitted from its
row in :data:`repro.machine.semantics.VALUE_OPS` — the row's expression
template, or a call into its kernel — so all engines share one source of
numeric truth;
everything the generator cannot translate (parallel regions, calls, runtime
intrinsics, unstructured control flow) falls back to the exact thunks the
cached-dispatch engine would run, inside the generated function.  The
result is observationally bit-identical to both other engines — printed
output and :class:`~repro.machine.interpreter.ExecutionStats` — which the
conformance oracle and ``tests/machine`` assert on every workload.

A translation is addressed by the digest of the source it was compiled from
(:func:`_translation_for`), so whatever changes the source changes the key
and the emitter may specialise on anything it can see: :func:`_kind` reads
a value's run-time class off its IR type, refined by its defining op, and
the ``_emit_*`` functions write the one branch a proven class can take —
the run-time switch only where neither proves it.

Why deferred counter flushing is exact: every statistics bump is an
integer-valued float (``+= 1.0`` or an integer element count), and sums of
integers in float64 are associative below 2**53, so adding ``3.0`` once is
bit-identical to adding ``1.0`` three times — only *touched* categories are
flushed, so the Counter key sets also match.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import marshal
import zlib
from collections import OrderedDict
from importlib.util import MAGIC_NUMBER
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..counters import PROCESS, Counters
from ..dialects import fir as fir_d
from ..ir import types as ir_types
from ..ir.core import Block, Operation, Value
from . import semantics
from .interpreter import (_BR_OPS, _COND_BR_OPS, _RETURN_OPS, _YIELD_OPS,
                          Interpreter, InterpreterError)
from .loop_patterns import (static_constant as _static_constant,
                            static_trip_count as _static_trips)
from .semantics import (VALUE_OPS, VECTOR_REDUCTIONS, ValueOp,
                        vector_broadcast, vector_load, vector_store)
from .values import Cell, ElementPtr, FortranArray

#: loop ops whose single-block bodies are inlined as native ``while`` loops
_INLINE_LOOPS = frozenset({"scf.for", "affine.for", "fir.do_loop"})
#: conditionals inlined as native ``if`` statements
_INLINE_IFS = frozenset({"scf.if", "fir.if"})

_ALL_TERMINATORS = _RETURN_OPS | _BR_OPS | _COND_BR_OPS | _YIELD_OPS

#: ops translated inline: every row of the value-op table, plus the
#: constant, memory, address and vector-dialect ops with their own emitters
_SIMPLE_INLINE = frozenset(VALUE_OPS) | frozenset({
    "arith.constant", "fir.convert", "fir.load", "fir.store", "memref.load",
    "memref.store", "llvm.load", "llvm.store", "affine.load", "affine.store",
    "fir.box_addr", "fir.box_dims", "fir.coordinate_of", "fir.embox",
    "fir.shape", "fir.string_lit", "vector.load", "vector.store",
    "vector.broadcast", "vector.reduction"})


def _fuses_coordinate(op: Operation, follower: Optional[Operation]) -> bool:
    """``fir.coordinate_of`` whose single use is the adjacent load/store:
    the pair runs as one direct flat access (stats-identical: the fused
    emission bumps the same index_arith + load/store pair)."""
    if follower is None or not op.results \
            or op.get_attr("field") is not None:
        return False
    address = op.results[0]
    if len(address.uses) != 1 or address.uses[0].operation is not follower:
        return False
    if follower.name == "fir.load":
        return follower.operands[0] is address
    if follower.name == "fir.store":
        return follower.operands[1] is address \
            and follower.operands[0] is not address
    return False


#: Test seam (monkeypatched, never set here): the emitter follows every
#: :func:`_kind` it consults with an assertion that the run-time class is
#: the proven one.  The instrumented source has its own digest, so it is
#: its own translation and cannot poison a cache.
_ASSERT_KINDS = False

_SCALARS = frozenset({"int", "float", "scalar"})
#: the class a constant holds / a cast kernel returns -> the kind it proves
_CLASS_KINDS = {int: "int", float: "float", bool: "scalar"}
_KIND_TESTS = {"int": "type({0}) is _int", "float": "type({0}) is _float",
               "scalar": "not isinstance({0}, _boxt)",
               "cell": "type({0}) is _Cell", "ndarray": "type({0}) is _nda"}


def _convert_kind(target) -> Optional[str]:
    """The kind ``fir.convert`` to ``target`` makes of a scalar (``None``:
    the value passes through, as storage objects always do)."""
    if isinstance(target, ir_types.FloatType):
        return "float"
    if isinstance(target, (ir_types.IntegerType, ir_types.IndexType)):
        return "int"
    return None


def _type_kind(type_) -> Optional[str]:
    """What a value's IR type proves under the machine's value contract —
    a multi-element ndarray reaches an SSA value only through a ``vector``
    type: a scalar type holds a ``"scalar"``, a memref of rank >= 1 an
    ``"ndarray"``.  A rank-0 memref proves nothing (a :class:`Cell`, or the
    0-d ndarray a rank-0 global or subview is), nor does a ``fir``
    reference or box (a :class:`Cell`, an :class:`ElementPtr`, ...)."""
    if isinstance(type_, (ir_types.IntegerType, ir_types.IndexType,
                          ir_types.FloatType)):
        return "scalar"
    if isinstance(type_, ir_types.MemRefType) and type_.rank:
        return "ndarray"
    return None


def _kind(value: Value, memo: Dict[Value, Optional[str]]) -> Optional[str]:
    """What ``value`` is at run time, on every engine that can bind it:
    ``"int"`` / ``"float"`` (exactly that Python type), ``"scalar"`` (a
    Python or NumPy number, never an ndarray or a storage object),
    ``"cell"`` (a :class:`Cell`), ``"ndarray"`` (of the memref's rank) — or
    ``None``, which keeps the run-time switch.  The type decides
    (:func:`_type_kind`); the defining op refines it to an exact class or a
    cell, and a ``fir.convert`` passes its operand's storage through.
    Whatever this changes in the emitted source changes the translation's
    address with it."""
    if value in memo:
        return memo[value]
    kind = None
    op = getattr(value, "op", None)
    name = op.name if op is not None else None
    if op is None:
        loop = value.block.parent_op()
        if loop is not None and loop.name in _INLINE_LOOPS \
                and value is value.block.args[0]:
            kind = "int"
    elif name == "arith.constant":
        kind = _CLASS_KINDS.get(type(op.get_attr("value").value))
    elif name == "vector.reduction":
        kind = "float"
    elif name == "fir.alloca":
        if not isinstance(op.get_attr("in_type").type, fir_d.SequenceType):
            kind = "cell"
    elif name in ("memref.alloc", "memref.alloca"):
        if value.type.rank == 0:
            kind = "cell"
    elif name == "fir.box_dims":
        kind = "int"            # every engine computes int(...) or 1
    elif name == "fir.convert":
        kind = _kind(op.operands[0], memo)     # storage passes through
        memo[value] = _convert_kind(value.type) or kind \
            if kind in _SCALARS else kind
        return memo[value]
    elif name in VALUE_OPS:
        if VALUE_OPS[name].category == "cast":
            kind = _CLASS_KINDS.get(VALUE_OPS[name].bind(op))
        elif name in ("arith.addi", "arith.subi", "arith.muli") and all(
                _kind(operand, memo) == "int" for operand in op.operands):
            kind = "int"
    memo[value] = kind = kind or _type_kind(value.type)
    return kind


# ---------------------------------------------------------------------------
# Planning: decide, per op, inline translation vs fallback thunk
# ---------------------------------------------------------------------------


#: Translation-unit budget in planned ops (a fused pair weighs 2, a loop or
#: conditional 1 + its bodies).  ``compile()`` needs memory in proportion
#: to the largest function it is handed — one 288 KB unit cost 20 MiB of
#: peak RSS — and the emitter writes ~170 B of source per op, so this keeps
#: every unit near 32 KB.
_UNIT_OPS = 192

_TERMINAL_STEPS = frozenset({"return", "br", "condbr", "yield"})


class _Plan:
    """Translation plan for one unit: a step tree and what it claims.

    Step shapes: ``("inline", op)``, ``("fusedcoor", op, follower)``,
    ``("fallback", op)``, ``("loop", op, body_steps)``,
    ``("if", op, then_steps, else_steps | None)``, a terminator
    ``("return" | "br" | "condbr" | "yield", op)``, or ``("part", plan)`` —
    a run of steps cut out into a unit of its own (see :func:`_partition`).
    A part's values count as ``fallback_defined`` here, so the one
    "used by an op outside this unit's ``inline_ops``" rule moves exactly
    the cross-unit values through ``env``."""

    __slots__ = ("steps", "inline_ops", "defined", "fallback_defined")

    def __init__(self, steps: List[Tuple]):
        self.steps = steps
        #: every op handled by this unit's code (incl. terminators/loops/ifs)
        self.inline_ops: Set[Operation] = set()
        #: values this unit's code itself defines (op results, body args)
        self.defined: List[Value] = []
        #: values fallback thunks and parts define (through env)
        self.fallback_defined: List[Value] = []
        self._claim(steps)

    def _claim(self, steps: Sequence[Tuple]) -> None:
        for step in steps:
            kind = step[0]
            if kind == "part":
                self.fallback_defined += step[1].defined
                self.fallback_defined += step[1].fallback_defined
            elif kind == "fallback":
                self.fallback_defined.extend(step[1].results)
            elif kind == "fusedcoor":
                self.inline_ops.update(step[1:])
                self.defined.extend(step[2].results)
            else:
                op = step[1]
                self.inline_ops.add(op)
                self.defined.extend(op.results)
                if kind == "loop":
                    self.defined.extend(op.regions[0].blocks[0].args)
                    self._claim(step[2])
                elif kind == "if":
                    self._claim(step[2])
                    self._claim(step[3] or ())


def _region_block(op: Operation, index: int) -> Optional[Block]:
    if index >= len(op.regions):
        return None
    blocks = op.regions[index].blocks
    return blocks[0] if len(blocks) == 1 else None


def _structured_body(block: Optional[Block]) -> bool:
    """True when ``block`` is straight-line code ending (at most) in a yield:
    the shape the loop/if inliners can translate.  Anything with branches or
    returns falls back to the generic handlers."""
    if block is None:
        return False
    last = block.last_op
    for op in block.ops:
        if op.name in _RETURN_OPS or op.name in _BR_OPS \
                or op.name in _COND_BR_OPS:
            return False
        if op.name in _YIELD_OPS and op is not last:
            return False
    return True


def _can_inline_simple(op: Operation) -> bool:
    name = op.name
    if name not in _SIMPLE_INLINE:
        return False
    if name == "fir.coordinate_of":
        return op.get_attr("field") is None
    if name == "vector.reduction":
        return op.get_attr("kind").value in VECTOR_REDUCTIONS
    return True


def _loop_inlineable(op: Operation) -> bool:
    if len(op.regions) != 1 or not _structured_body(_region_block(op, 0)):
        return False
    if op.name in ("scf.for", "fir.do_loop") and len(op.operands) < 3:
        return False
    return True


def _if_inlineable(op: Operation) -> bool:
    then_block = _region_block(op, 0)
    if not _structured_body(then_block):
        return False
    has_else = len(op.regions) > 1 and bool(op.regions[1].blocks)
    else_block = _region_block(op, 1) if has_else else None
    if has_else and not _structured_body(else_block):
        return False
    if op.results:
        # both arms must yield exactly the result values
        if else_block is None:
            return False
        for block in (then_block, else_block):
            term = block.last_op
            if term is None or term.name not in _YIELD_OPS \
                    or len(term.operands) != len(op.results):
                return False
    return True


def _plan_ops(block: Block) -> List[Tuple]:
    """Decide, per op, inline translation vs fallback thunk."""
    steps: List[Tuple] = []
    ops = list(block.ops)
    position = 0
    while position < len(ops):
        op = ops[position]
        name = op.name
        if name in _RETURN_OPS:
            steps.append(("return", op))
            return steps
        if name in _BR_OPS:
            steps.append(("br", op))
            return steps
        if name in _COND_BR_OPS:
            steps.append(("condbr", op))
            return steps
        if name in _YIELD_OPS:
            steps.append(("yield", op))
            return steps
        follower = ops[position + 1] if position + 1 < len(ops) else None
        if name == "fir.coordinate_of" and _fuses_coordinate(op, follower):
            steps.append(("fusedcoor", op, follower))
            position += 2
            continue
        position += 1
        if name in _INLINE_LOOPS and _loop_inlineable(op):
            steps.append(("loop", op, _plan_ops(op.regions[0].blocks[0])))
        elif name in _INLINE_IFS and _if_inlineable(op):
            has_else = len(op.regions) > 1 and bool(op.regions[1].blocks)
            steps.append(("if", op, _plan_ops(_region_block(op, 0)),
                          _plan_ops(_region_block(op, 1))
                          if has_else else None))
        elif _can_inline_simple(op):
            steps.append(("inline", op))
        else:
            steps.append(("fallback", op))
    return steps


def _weight(steps: Sequence[Tuple]) -> int:
    total = 0
    for step in steps:
        kind = step[0]
        if kind == "fusedcoor":
            total += 2
        elif kind == "loop":
            total += 1 + _weight(step[2])
        elif kind == "if":
            total += 1 + _weight(step[2]) + _weight(step[3] or ())
        else:
            total += 1
    return total


def _partition(steps: List[Tuple], force: bool = False) -> List[Tuple]:
    """Cut a step list heavier than :data:`_UNIT_OPS` into consecutive
    runs within the budget, each a ``("part", plan)`` step.  A single
    loop/if above the budget stays where it is with every body list cut
    (``force``: its arms may each fit while their sum does not);
    terminators stay too, so control never leaves from inside a part."""
    if not force and _weight(steps) <= _UNIT_OPS:
        return steps
    out: List[Tuple] = []
    run: List[Tuple] = []
    load = 0
    for step in steps:
        kind = step[0]
        weight = _weight((step,))
        stays = kind in _TERMINAL_STEPS \
            or (kind in ("loop", "if") and weight > _UNIT_OPS)
        if run and (stays or load + weight > _UNIT_OPS):
            out.append(("part", _Plan(run)))
            run, load = [], 0
        if kind in _TERMINAL_STEPS:
            out.append(step)
        elif stays:
            out.append((kind, step[1]) + tuple(
                body if body is None else _partition(body, force=True)
                for body in step[2:]))
        else:
            run.append(step)
            load += weight
    if run:
        out.append(("part", _Plan(run)))
    return out


def plan_block(block: Block) -> _Plan:
    return _Plan(_partition(_plan_ops(block)))


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


class _Emitter:
    """Generates the Python source for one planned block.

    The emitted source and every namespace binding except ``_interp`` /
    ``_stats`` / the fallback thunks are interpreter-independent, so one
    emission can be instantiated for any number of interpreters (see
    :func:`compile_block`'s process-level cache).  Interpreter-specific
    state is rebound per instantiation; fallback ops are recorded as
    ``(name, op)`` pairs and compiled into thunks at instantiation time.

    One emitter writes one unit (one generated function).  A ``part`` step
    is written by a child emitter (``root`` given) that shares the root's
    namespace, bound names, name sequence, fallback binds and list of
    finished units, and keeps its own locals and counters."""

    def __init__(self, interp: Interpreter, plan: _Plan,
                 root: Optional["_Emitter"] = None):
        self.interp = interp
        self.plan = plan
        # values that must live in env: anything the generated code defines
        # that a non-inline op (fallback thunk, nested region, another block)
        # also reads
        inline_ops = plan.inline_ops
        self.env_resident: Set[Value] = {
            value for value in plan.defined
            if any(use.operation not in inline_ops for use in value.uses)}
        self.defined: Set[Value] = set(plan.defined)
        self.fallback_defined: Set[Value] = set(plan.fallback_defined)
        self.inline_ops: Set[Operation] = inline_ops
        self.lines: List[Tuple[int, str]] = []
        self.ind = 1
        if root is None:
            self.fallback_binds: List[Tuple[str, Operation]] = []
            self._seq = itertools.count()
            self.ns: Dict[str, object] = {
                "_interp": interp, "_stats": interp.stats,
                "_np": np, "_nda": np.ndarray,
                "_Cell": Cell, "_EPtr": ElementPtr, "_FArr": FortranArray,
                "_int": int, "_float": float, "_bool": bool,
                "_IErr": InterpreterError,
                "_boxt": (Cell, FortranArray, ElementPtr, np.ndarray),
                "_vload": vector_load, "_vstore": vector_store,
                "_vbcast": vector_broadcast,
            }
            #: id(obj) -> ns name (the cast kernels keep readable names)
            self._bound: Dict[int, str] = {
                id(int): "_int", id(float): "_float", id(bool): "_bool"}
            self.keys: Dict[Value, str] = {}     # value -> bound env-key name
            self.units: List[str] = []           # finished part sources
            self.kinds: Dict[Value, Optional[str]] = {}     # _kind memo
        else:
            self.fallback_binds = root.fallback_binds
            self._seq = root._seq
            self.ns = root.ns
            self._bound = root._bound
            self.keys = root.keys
            self.units = root.units
            self.kinds = root.kinds
        self.names: Dict[Value, str] = {}    # value -> local variable
        self.counters: Dict[str, str] = {}   # category -> local variable
        self.pending: Dict[str, int] = {}    # category -> deferred increments
        self.pending_total = 0

    # -- low-level helpers ---------------------------------------------------
    def w(self, text: str) -> None:
        self.lines.append((self.ind, text))

    def tmp(self) -> str:
        return f"x{next(self._seq)}"

    def bind(self, obj, prefix: str = "g") -> str:
        name = self._bound.get(id(obj))
        if name is None:
            name = f"_{prefix}{next(self._seq)}"
            self._bound[id(obj)] = name
            self.ns[name] = obj
        return name

    def key(self, value: Value) -> str:
        name = self.keys.get(value)
        if name is None:
            name = self.keys[value] = self.bind(value, "k")
        return name

    # -- value access --------------------------------------------------------
    def read(self, value: Value) -> str:
        name = self.names.get(value)
        if name is not None:
            return name
        return f"env[{self.key(value)}]"

    def read_get(self, value: Value) -> str:
        """Terminator payload read: ``env.get`` tolerance like the thunks."""
        name = self.names.get(value)
        if name is not None:
            return name
        return f"env.get({self.key(value)})"

    def operand_var(self, value: Value) -> str:
        """A *named* local holding the operand (for multi-use emissions)."""
        name = self.names.get(value)
        if name is not None:
            return name
        var = self.tmp()
        self.w(f"{var} = env[{self.key(value)}]")
        return var

    def result_var(self, value: Value) -> str:
        """The variable an op result is computed into (local preferred)."""
        if value in self.env_resident or value not in self.defined:
            return self.tmp()
        name = self.names.get(value)
        if name is None:
            name = self.names[value] = f"t{next(self._seq)}"
        return name

    def store_result(self, value: Value, var: str) -> None:
        if value in self.env_resident or value not in self.defined:
            self.w(f"env[{self.key(value)}] = {var}")

    def compute(self, value: Value, expr: str) -> str:
        var = self.result_var(value)
        self.w(f"{var} = {expr}")
        self.store_result(value, var)
        return var

    def alias(self, value: Value, name: str) -> None:
        """``value`` is whatever ``name`` already holds: no line, no local."""
        self.names[value] = name
        self.store_result(value, name)

    def kind(self, value: Value) -> Optional[str]:
        """:func:`_kind` of a value the code emitted so far can read."""
        kind = _kind(value, self.kinds)
        if _ASSERT_KINDS and kind is not None:
            self.w("assert " + _KIND_TESTS[kind].format(self.read(value)))
        return kind

    # -- statistics ----------------------------------------------------------
    def counter(self, category: str) -> str:
        var = self.counters.get(category)
        if var is None:
            var = self.counters[category] = f"_c_{category}"
        return var

    def bump(self, category: str, amount: int = 1) -> None:
        self.counter(category)
        self.pending[category] = self.pending.get(category, 0) + amount
        self.pending_total += amount

    def flush_pending(self) -> None:
        for category, amount in self.pending.items():
            self.w(f"{self.counter(category)} += {amount}")
        if self.pending_total:
            self.w(f"_t += {self.pending_total}")
        self.pending.clear()
        self.pending_total = 0

    def flush_categories(self) -> None:
        """Move every live category counter into the interpreter's stats.

        Counters cannot be gated on ``_t``: the in-loop stride check resets
        ``_t`` (total) without flushing the per-category locals, so a unit
        can reach its exit with ``_t == 0`` but nonzero category counters.
        """
        self.flush_pending()
        if self.counters:
            self.w("_cts = _interp._ctx_counts")
        for category in self.counters:
            var = self.counters[category]
            self.w(f"if {var}:")
            self.w(f"    _cts[{category!r}] += {var} * 1.0")
            self.w(f"    {var} = 0")

    def flush_all(self) -> None:
        self.flush_categories()
        self.w("if _t:")
        self.w("    _stats.total_ops += _t")
        self.w("    _t = 0")

    def emit_stride_check(self) -> None:
        """Per-iteration execution-limit metering inside inlined loops.

        Only ``total_ops`` needs to be current for the limit check; the
        per-category counters keep accumulating in locals until block exit
        (their Counter sums are order-independent integer adds).
        """
        self.w(f"if _t > {self.interp._check_stride}:")
        self.w("    _stats.total_ops += _t")
        self.w("    _t = 0")
        self.w("    _interp._check_limit()")

    # ------------------------------------------------------------------ steps
    def emit_steps(self, steps: Sequence[Tuple]) -> None:
        for step in steps:
            kind = step[0]
            if kind == "inline":
                self.emit_inline(step[1])
            elif kind == "fusedcoor":
                self.emit_fused_coordinate(step[1], step[2])
            elif kind == "fallback":
                self.emit_fallback(step[1])
            elif kind == "loop":
                self.emit_loop(step[1], step[2])
            elif kind == "if":
                self.emit_if(step[1], step[2], step[3])
            elif kind == "part":
                self.emit_part(step[1])
            elif kind == "return":
                self.emit_return(step[1])
            elif kind == "br":
                self.emit_br(step[1])
            elif kind == "condbr":
                self.emit_condbr(step[1])
            elif kind == "yield":
                self.emit_root_yield(step[1])
            else:  # pragma: no cover - planner emits only the kinds above
                raise InterpreterError(f"unknown jit step {kind}")

    # -- terminators ---------------------------------------------------------
    def emit_return(self, op: Operation) -> None:
        self.flush_all()
        payload = ", ".join(self.read_get(v) for v in op.operands)
        self.w(f"return 'return', [{payload}]")

    def emit_br(self, op: Operation) -> None:
        self.bump("branch")
        self.flush_all()
        succ = self.bind(op.successors[0], "b")
        payload = ", ".join(self.read_get(v) for v in op.operands)
        self.w(f"return 'branch', ({succ}, [{payload}])")

    def emit_condbr(self, op: Operation) -> None:
        self.bump("branch")
        self.flush_all()
        n_attr = op.get_attr("num_true_operands")
        n = n_attr.value if n_attr is not None else 0
        true_vals = op.operands[1:1 + n]
        false_vals = op.operands[1 + n:]
        true_succ = self.bind(op.successors[0], "b")
        false_succ = self.bind(op.successors[1], "b")
        self.w(f"if {self.read_get(op.operands[0])}:")
        payload = ", ".join(self.read_get(v) for v in true_vals)
        self.w(f"    return 'branch', ({true_succ}, [{payload}])")
        payload = ", ".join(self.read_get(v) for v in false_vals)
        self.w(f"return 'branch', ({false_succ}, [{payload}])")

    def emit_root_yield(self, op: Operation) -> None:
        self.flush_all()
        payload = ", ".join(self.read_get(v) for v in op.operands)
        self.w(f"return 'yield', ({self.bind(op, 'o')}, [{payload}])")

    def emit_fallthrough(self) -> None:
        self.flush_all()
        self.w("return 'yield', (None, [])")

    # -- fallback ------------------------------------------------------------
    def emit_fallback(self, op: Operation) -> None:
        name = f"_f{next(self._seq)}"
        self.fallback_binds.append((name, op))
        self.w(f"{name}(env)")

    # -- parts ---------------------------------------------------------------
    def emit_part(self, plan: _Plan) -> None:
        """A run of steps as a function of its own, called from here.

        Everything the part reads from outside is bound in ``env`` by the
        time it is called (SSA dominance), so it is read once on entry.
        The part flushes its own category counters and *returns* its op
        total: this unit's ``_t`` — and so every stride check around the
        call — counts exactly what it would had the steps been inline."""
        child = _Emitter(self.interp, plan, root=self)
        child._hoist_invariants(plan.steps)
        child.emit_steps(plan.steps)
        child.flush_categories()
        child.w("return _t")
        name = f"_jit_part_{next(self._seq)}"
        self.units.append(child.unit_source(name))
        self.w(f"_t += {name}(env)")

    # -- straight-line ops ---------------------------------------------------
    def emit_inline(self, op: Operation) -> None:
        name = op.name
        res = op.results[0] if op.results else None
        if name == "arith.constant":
            self.alias(res, self.bind(op.get_attr("value").value, "c"))
            return
        row = VALUE_OPS.get(name)
        if row is not None:
            self._emit_value_op(op, row)
            return
        if name == "fir.convert":
            self._emit_fir_convert(op)
            return
        if name == "fir.load":
            self._emit_fir_load(op)
            return
        if name == "fir.store":
            self._emit_fir_store(op)
            return
        if name in ("memref.load", "memref.store"):
            self._emit_memref_access(op)
            return
        if name == "llvm.load":
            src = self.operand_var(op.operands[0])
            self.compute(res, f"{src}.value if type({src}) is _Cell else {src}")
            self.bump("load")
            return
        if name == "llvm.store":
            dest = self.operand_var(op.operands[1])
            self.w(f"if type({dest}) is _Cell:")
            self.w(f"    {dest}.value = {self.read(op.operands[0])}")
            self.bump("store")
            return
        if name in ("affine.load", "affine.store"):
            self._emit_affine(op)
            return
        if name in ("vector.load", "vector.store"):
            self._emit_vector_access(op)
            return
        if name == "vector.broadcast":
            width = res.type.shape[0]
            self.compute(res, f"_vbcast({self.read(op.operands[0])}, {width})")
            self.bump("vector_int")
            return
        if name == "vector.reduction":
            reduce = self.bind(VECTOR_REDUCTIONS[op.get_attr("kind").value])
            self.compute(res, f"_float({reduce}({self.read(op.operands[0])}))")
            self.bump("vector_reduce")
            return
        if name == "fir.box_addr":
            self.alias(res, self.operand_var(op.operands[0]))
            self.bump("load")
            return
        if name == "fir.box_dims":
            self._emit_fir_box_dims(op)
            return
        if name == "fir.coordinate_of":
            self._emit_fir_coordinate_of(op)
            return
        if name == "fir.embox":
            self.alias(res, self.operand_var(op.operands[0]))
            return
        if name == "fir.shape":
            items = ", ".join(self.int_of(v) for v in op.operands)
            self.compute(res, f"({items}{',' if items else ''})")
            return
        if name == "fir.string_lit":
            self.compute(res, self.bind(op.get_attr("value").value, "c"))
            return
        raise InterpreterError(
            f"jit planner marked {name} inline without an emitter")

    def _emit_fir_box_dims(self, op: Operation) -> None:
        lower, extent, stride = op.results      # only what is used
        if extent.uses:
            box = self.operand_var(op.operands[0])
            dim = self.index_operand(op.operands[1])
            shape = self.tmp()
            self.w(f"{shape} = {box}.shape "
                   f"if isinstance({box}, (_FArr, _nda)) else (1,)")
            self.compute(extent, f"_int({shape}[{dim}]) "
                                 f"if {dim} < len({shape}) else 1")
        for unit in (lower, stride):
            if unit.uses:
                self.compute(unit, "1")
        self.bump("load")

    def _emit_fir_coordinate_of(self, op: Operation) -> None:
        base = self.operand_var(op.operands[0])
        flat = self.tmp()
        if len(op.operands) > 1:
            self.w(f"{flat} = {self.int_of(op.operands[1])}")
        else:
            self.w(f"{flat} = 0")
        var = self.result_var(op.results[0])
        self.w(f"if type({base}) is _FArr or type({base}) is _nda:")
        self.w(f"    {var} = _EPtr({base}, flat={flat})")
        self.w(f"elif type({base}) is _Cell:")
        self.w(f"    {var} = {base}")
        self.w("else:")
        self.w("    raise _IErr('fir.coordinate_of on a non-array value')")
        self.store_result(op.results[0], var)
        self.bump("index_arith")

    def _emit_value_op(self, op: Operation, row: ValueOp) -> None:
        """Any row of ``semantics.VALUE_OPS``: the row's template over the
        operand expressions, else a call of its bound kernel."""
        fn = row.bind(op)
        operands = op.operands
        res = op.results[0]
        if fn in (int, float) and self.kind(operands[0]) == fn.__name__:
            self.alias(res, self.operand_var(operands[0]))  # int(int) is it
            self.bump(row.category)
            return
        args = [self.read(v) for v in operands]
        if row.template is not None:
            expr = row.template.format(*args)
        else:
            expr = f"{self.bind(fn)}({', '.join(args)})"
        var = self.result_var(res)
        if row.guarded:
            # zero-cost unless it raises: the kernel then gives the IEEE value
            self.w("try:")
            self.w(f"    {var} = {expr}")
            self.w("except ArithmeticError:")
            self.w(f"    {var} = {self.bind(fn)}({', '.join(args)})")
        else:
            self.w(f"{var} = {expr}")
        self.store_result(res, var)
        # the value contract: only a vector type holds a multi-element
        # ndarray, so an unproven probe is decided by its lane count
        probed = {"result": res, "operand": operands[0]}.get(row.probe)
        if probed is not None and self.kind(probed) not in _SCALARS \
                and probed.type.num_elements() > 1:
            self.bump(row.vector_category)
        else:
            self.bump(row.scalar_category(op))

    def _emit_fir_convert(self, op: Operation) -> None:
        res, source = op.results[0], op.operands[0]
        target = _convert_kind(res.type)
        kind = self.kind(source)
        if target is None or kind in (target, "cell", "ndarray"):
            self.alias(res, self.operand_var(source))   # passes through
        elif kind in _SCALARS:
            self.compute(res, f"_{target}({self.read(source)})")
        else:
            # fast path: an exact int/float converts to itself, so the
            # common scalar case skips the box-type isinstance entirely
            a = self.operand_var(source)
            var = self.result_var(res)
            self.w(f"if type({a}) is {target} or isinstance({a}, _boxt):")
            self.w(f"    {var} = {a}")
            self.w("else:")
            self.w(f"    {var} = _{target}({a})")
            self.store_result(res, var)
        self.bump("cast")

    def _emit_fir_load(self, op: Operation) -> None:
        if self.kind(op.operands[0]) == "cell":
            self.compute(op.results[0], f"{self.read(op.operands[0])}.value")
            self.bump("load")
            return
        src = self.operand_var(op.operands[0])
        var = self.result_var(op.results[0])
        self.w(f"if type({src}) is _Cell:")
        self.w(f"    {var} = {src}.value")
        self.w(f"elif type({src}) is _EPtr:")
        self.w(f"    {var} = {src}.load()")
        self.w("else:")
        self.w(f"    {var} = {src}")
        self.store_result(op.results[0], var)
        self.bump("load")

    def _emit_fir_store(self, op: Operation) -> None:
        value = self.read(op.operands[0])
        self.bump("store")
        if self.kind(op.operands[1]) == "cell":
            self.w(f"{self.read(op.operands[1])}.value = {value}")
            return
        dest = self.operand_var(op.operands[1])
        self.w(f"if type({dest}) is _Cell:")
        self.w(f"    {dest}.value = {value}")
        self.w(f"elif type({dest}) is _EPtr:")
        self.w(f"    {dest}.store({value})")
        self.w("else:")
        self.w("    raise _IErr('fir.store destination is not a "
               "storage location')")

    def _emit_access(self, op: Operation, mem_value: Value,
                     subscript: str) -> None:
        """``memref`` / ``affine`` load or store of ``mem[subscript]``; a
        rank-0 memref is a :class:`Cell`.  A proven memory kind emits the
        one form that can run."""
        kind = self.kind(mem_value)
        mem = self.read(mem_value) if kind in ("cell", "ndarray") \
            else self.operand_var(mem_value)
        cell, element = f"{mem}.value", f"{mem}[{subscript or '()'}]"
        if op.results:
            var = self.result_var(op.results[0])
            statement = f"{var} = {{}}".format
        else:
            statement = f"{{}} = {self.read(op.operands[0])}".format
        if kind == "cell":
            self.w(statement(cell))
        elif kind == "ndarray":
            self.w(statement(element))
        else:
            self.w(f"if type({mem}) is _Cell:")
            self.w("    " + statement(cell))
            self.w("else:")
            self.w("    " + statement(element))
        if op.results:
            self.store_result(op.results[0], var)
        self.bump("load" if op.results else "store")

    def _emit_memref_access(self, op: Operation) -> None:
        mem_index = 0 if op.results else 1
        self._emit_access(op, op.operands[mem_index], ", ".join(
            self.int_of(v) for v in op.operands[mem_index + 1:]))

    def int_of(self, value: Value) -> str:
        """An expression for ``int(value)``: a proven int is its own."""
        name = self.read(value)
        return name if self.kind(value) == "int" else f"_int({name})"

    def index_operand(self, value: Value) -> str:
        """A name holding ``int(value)`` (map sources may repeat it)."""
        if self.kind(value) == "int":
            return self.operand_var(value)
        var = self.tmp()
        self.w(f"{var} = _int({self.read(value)})")
        return var

    def map_sources(self, amap, operands: Sequence[Value]) -> Tuple[str, ...]:
        """The map's results as Python expressions over operand locals."""
        form = amap.compiled()
        if form.constants is not None:
            return tuple(repr(c) for c in form.constants)
        return form.sources([self.index_operand(v) for v in operands])

    def _emit_affine(self, op: Operation) -> None:
        mem_index = 0 if op.results else 1
        self._emit_access(op, op.operands[mem_index], ", ".join(self.map_sources(
            op.get_attr("map"), op.operands[mem_index + 1:])))

    def _emit_vector_access(self, op: Operation) -> None:
        load = op.name == "vector.load"
        mem_index = 0 if load else 1
        mem = self.read(op.operands[mem_index])
        index_vals = op.operands[mem_index + 1:]
        amap = op.get_attr("map")
        if amap is not None and amap.results:
            sources = self.map_sources(amap, index_vals)
        else:
            sources = tuple(self.index_operand(v) for v in index_vals)
        indices = f"({', '.join(sources)}{',' if len(sources) == 1 else ''})"
        if load:
            width = op.results[0].type.shape[0]
            self.compute(op.results[0], f"_vload({mem}, {indices}, {width})")
            self.bump("vector_load")
        else:
            value = self.read(op.operands[0])
            self.w(f"_vstore({mem}, {indices}, {value})")
            self.bump("vector_store")

    def emit_fused_coordinate(self, op: Operation,
                              follower: Operation) -> None:
        """``fir.coordinate_of`` + its single load/store as one direct flat
        access (the ElementPtr the pair would route through is skipped)."""
        base = self.operand_var(op.operands[0])
        flat = self.tmp()
        if len(op.operands) > 1:
            self.w(f"{flat} = {self.int_of(op.operands[1])}")
        else:
            self.w(f"{flat} = 0")
        self.bump("index_arith")
        if follower.name == "fir.load":
            var = self.result_var(follower.results[0])
            self.w(f"if type({base}) is _FArr:")
            self.w(f"    {var} = {base}.data[{flat}]")
            self.w(f"elif type({base}) is _nda:")
            self.w(f"    {var} = {base}.reshape(-1)[{flat}]")
            self.w(f"elif type({base}) is _Cell:")
            self.w(f"    {var} = {base}.value")
            self.w("else:")
            self.w("    raise _IErr('fir.coordinate_of on a non-array value')")
            self.store_result(follower.results[0], var)
            self.bump("load")
        else:
            value = self.read(follower.operands[0])
            self.w(f"if type({base}) is _FArr:")
            self.w(f"    {base}.data[{flat}] = {value}")
            self.w(f"elif type({base}) is _nda:")
            self.w(f"    {base}.reshape(-1)[{flat}] = {value}")
            self.w(f"elif type({base}) is _Cell:")
            self.w(f"    {base}.value = {value}")
            self.w("else:")
            self.w("    raise _IErr('fir.coordinate_of on a non-array value')")
            self.bump("store")

    # -- structured control flow ---------------------------------------------
    def _collect_invariant_reads(self, steps: Sequence[Tuple],
                                 out: List[Value],
                                 loop: Optional[Operation]) -> None:
        """Values the generated code will read inside ``steps`` that are
        bound in env before ``steps`` start — defined outside this unit
        entirely, or by a fallback thunk or part that is not inside the
        ``loop`` being entered — and so safe to hoist into one env read
        before it (SSA: bound by then, never rebound within)."""

        def note(value: Value) -> None:
            if value in self.defined or value in self.names or value in out:
                return
            defining_op = getattr(value, "op", None)
            if value in self.fallback_defined and (
                    loop is None or defining_op is None
                    or loop.is_ancestor_of(defining_op)):
                return
            if defining_op is not None and defining_op in self.inline_ops:
                return  # fused-away address: never materialized anywhere
            out.append(value)

        for step in steps:
            kind = step[0]
            if kind == "inline":
                for operand in step[1].operands:
                    note(operand)
            elif kind == "fusedcoor":
                for operand in step[1].operands:
                    note(operand)
                for operand in step[2].operands:
                    note(operand)
            elif kind == "loop":
                for operand in step[1].operands:
                    note(operand)
                self._collect_invariant_reads(step[2], out, loop)
            elif kind == "if":
                note(step[1].operands[0])
                self._collect_invariant_reads(step[2], out, loop)
                if step[3] is not None:
                    self._collect_invariant_reads(step[3], out, loop)
            elif kind == "yield":
                for operand in step[1].operands:
                    note(operand)
            # fallback and part steps read through env by design: not hoisted

    def _hoist_invariants(self, body_steps: Sequence[Tuple],
                          loop: Optional[Operation] = None) -> None:
        invariants: List[Value] = []
        self._collect_invariant_reads(body_steps, invariants, loop)
        for value in invariants:
            var = self.tmp()
            self.w(f"{var} = env[{self.key(value)}]")
            self.names[value] = var

    def _bind_loop_arg(self, arg: Value, var: str) -> None:
        """Expose a loop body argument: as a local, and through env when a
        fallback op (or nested non-inlined region) also reads it."""
        self.names[arg] = var
        if arg in self.env_resident:
            self.w(f"env[{self.key(arg)}] = {var}")

    def _assign_loop_results(self, op: Operation, carried: List[str],
                             prefix: Sequence[str] = ()) -> None:
        values = list(prefix) + carried
        for res, var in zip(op.results, values):
            if res in self.env_resident:
                self.w(f"env[{self.key(res)}] = {var}")
            else:
                self.names[res] = var

    def _emit_loop_body(self, op: Operation, body: Block,
                        body_steps: Sequence[Tuple],
                        carried: List[str], iv_var: str) -> None:
        """Shared per-iteration emission: arg binding, body, yield, check."""
        self.bump("loop_iter")
        self._bind_loop_arg(body.args[0], iv_var)
        for arg, var in zip(body.args[1:], carried):
            self._bind_loop_arg(arg, var)
        terminator = body_steps[-1] if body_steps \
            and body_steps[-1][0] == "yield" else None
        self.emit_steps(body_steps[:-1] if terminator else body_steps)
        if terminator is not None and terminator[1].operands and carried:
            yielded = terminator[1].operands
            targets = ", ".join(carried[:len(yielded)])
            exprs = ", ".join(self.read(v) for v in yielded)
            self.w(f"{targets} = {exprs}")
        self.flush_pending()
        self.emit_stride_check()

    def emit_loop(self, op: Operation, body_steps: Sequence[Tuple]) -> None:
        self.flush_pending()
        self._hoist_invariants(body_steps, op)
        body = op.regions[0].blocks[0]
        if op.name == "affine.for":
            lo, = self.map_sources(op.lower_bound_map, op.lower_operands)
            hi, = self.map_sources(op.upper_bound_map, op.upper_operands)
            step = op.step_value
            inits = op.iter_args
        else:
            lo, hi, st = (self.index_operand(v) for v in op.operands[:3])
            inits = op.operands[3:]
        carried = []
        for init in inits:
            var = self.tmp()
            self.w(f"{var} = {self.read(init)}")
            carried.append(var)
        iv = self.tmp()
        if op.name == "affine.for" and step > 0:
            # bounds are exact ints and the body never rebinds the
            # induction variable: the counted loop *is* range()
            self.w(f"for {iv} in range({lo}, {hi}, {step}):")
            self.ind += 1
            self._emit_loop_body(op, body, body_steps, carried, iv)
            self.ind -= 1
            self._assign_loop_results(op, carried)
            return
        self.w(f"{iv} = {lo}")

        if op.name == "scf.for":
            self.w(f"while {iv} < {hi}:")
            self.ind += 1
            self._emit_loop_body(op, body, body_steps, carried, iv)
            self.w(f"if {st} <= 0:")
            self.w("    break")
            self.w(f"{iv} += {st}")
            self.ind -= 1
            self._assign_loop_results(op, carried)
        elif op.name == "affine.for":    # step <= 0: spins up to max_ops
            self.w(f"while {iv} < {hi}:")
            self.ind += 1
            self._emit_loop_body(op, body, body_steps, carried, iv)
            self.w(f"{iv} += {step}")
            self.ind -= 1
            self._assign_loop_results(op, carried)
        else:  # fir.do_loop: inclusive bounds, direction from the step sign
            static_step = _static_constant(op.operands[2])
            if static_step is not None and static_step != 0:
                # sign known at jit-compile time: emit one specialized loop
                condition = f"{iv} <= {hi}" if static_step > 0 \
                    else f"{iv} >= {hi}"
            else:
                nonzero, direction = self.tmp(), self.tmp()
                self.w(f"{nonzero} = {st} or 1")    # st may be another's name
                st = nonzero
                self.w(f"{direction} = {st} > 0")
                condition = f"({iv} <= {hi}) if {direction} " \
                            f"else ({iv} >= {hi})"
            self.w(f"while {condition}:")
            self.ind += 1
            self._emit_loop_body(op, body, body_steps, carried, iv)
            self.w(f"{iv} += {st}")
            self.ind -= 1
            self._assign_loop_results(op, carried, prefix=[iv])

    def emit_if(self, op: Operation, then_steps: Sequence[Tuple],
                else_steps: Optional[Sequence[Tuple]]) -> None:
        self.bump("branch")
        self.flush_pending()
        result_vars = [self.result_var(res) for res in op.results]

        def emit_arm(steps: Sequence[Tuple]) -> None:
            # locals registered inside the arm (hoisted preheader reads,
            # inlined-loop args/results) are only assigned when this arm
            # executes — they must not leak into code emitted after the if
            saved_names = dict(self.names)
            terminator = steps[-1] if steps and steps[-1][0] == "yield" \
                else None
            self.emit_steps(steps[:-1] if terminator else steps)
            if result_vars and terminator is not None:
                targets = ", ".join(result_vars)
                exprs = ", ".join(self.read(v)
                                  for v in terminator[1].operands)
                self.w(f"{targets} = {exprs}")
            self.flush_pending()
            if len(self.lines) == arm_start:
                self.w("pass")
            self.names = saved_names

        self.w(f"if {self.read(op.operands[0])}:")
        self.ind += 1
        arm_start = len(self.lines)
        emit_arm(then_steps)
        self.ind -= 1
        if else_steps is not None or result_vars:
            self.w("else:")
            self.ind += 1
            arm_start = len(self.lines)
            emit_arm(else_steps or [])
            self.ind -= 1
        for res, var in zip(op.results, result_vars):
            self.store_result(res, var)

    # ------------------------------------------------------------------ build
    def unit_source(self, name: str) -> str:
        header: List[Tuple[int, str]] = [(0, f"def {name}(env):"), (1, "_t = 0")]
        header.extend((1, f"{var} = 0") for var in self.counters.values())
        return "\n".join("    " * indent + text
                         for indent, text in header + self.lines)

    def build(self) -> Tuple[List[str], Dict[str, object]]:
        """The block's units — ``_jit_block`` first, then every part it
        calls — and the one namespace they all run in."""
        steps = self.plan.steps
        self.emit_steps(steps)
        if not steps or steps[-1][0] not in _TERMINAL_STEPS:
            self.emit_fallthrough()
        return [self.unit_source("_jit_block")] + self.units, self.ns


# ---------------------------------------------------------------------------
# Engine entry point: the tiered, persistent translation cache
# ---------------------------------------------------------------------------


#: Version of the translation format: the payload layout stored on disk and
#: the preimage of a translation's address.  The emitted source needs no
#: version of its own — it *is* the address — so an emitter change alone
#: moves exactly the translations whose source it changes.
#: v3: value ops are emitted from their ``semantics.VALUE_OPS`` row
#: (``divf`` keeps ``/`` inside a ``try`` whose ``except`` calls the kernel).
#: v4: a translation is a tuple of units (:data:`_UNIT_OPS`) and
#: ``bytecode`` is a list, one deflated blob per unit.
#: v5: the address is the salted digest of the emitted units (it was a
#: structural fingerprint of the block, verified against a stored digest);
#: the payload is the bytecode alone.
JIT_FORMAT_VERSION = 5

#: Separates the units in a translation's source of record.
_UNIT_MARK = "\n# ---- jit unit ----\n"


class _Translation:
    """One process-cached translation, addressed by the digest of its
    emitted source: any block that emits the same units runs the same code
    objects (one per unit).  Neither field references IR, so the process
    cache never keeps a module alive, and both are functions of the
    address.  The source itself is not kept —
    :meth:`JitEngine.source_for` re-emits on demand."""

    __slots__ = ("code", "nops")

    def __init__(self, code: Tuple, nops: int):
        self.code = code
        self.nops = nops


class _Instantiation:
    """What one block object needs to run its translation, owned by the
    block (``Block._jit``) so it dies with the module.

    The emitter binds live objects into the generated function's
    namespace — ``Value`` env keys, constants, successor ``Block``s, the
    ops behind fallback thunks — so ``template`` and ``fallback_binds`` are
    valid only for the exact block they were planned against; ``key`` is
    the address of what that plan emitted and ``translation`` the cache
    entry it resolved to (both ``None`` until first planned).  ``hot``
    memoises :func:`_worth_translating`."""

    __slots__ = ("salt", "key", "translation", "template", "fallback_binds",
                 "hot")

    def __init__(self, salt: str):
        self.salt = salt
        self.key: Optional[str] = None
        self.translation: Optional[_Translation] = None
        self.template: Dict[str, object] = {}
        self.fallback_binds: Tuple[Tuple[str, Operation], ...] = ()
        self.hot: Optional[bool] = None

    def live(self) -> Optional[_Translation]:
        """The translation, while the process cache still holds it."""
        entry = self.translation
        return entry if entry is not None \
            and _CODE_CACHE.get(self.key) is entry else None


#: process-level translation cache: source address (see
#: :func:`translation_key`) -> :class:`_Translation`.  The expensive work —
#: ``compile()`` — happens once per distinct emitted *source* per process,
#: and planning once per block *object*; every further interpreter only
#: copies the namespace, rebinds its own ``_interp``/``_stats``/fallback
#: thunks and ``exec``s the cached code object.  Ordered for LRU eviction:
#: overflow evicts the single least-recently-used entry, never the whole
#: cache.
_CODE_CACHE: "OrderedDict[str, _Translation]" = OrderedDict()
_CODE_CACHE_MAX = 4096

#: Optional persistent tier (bound by the service layer): the ``jit``
#: namespace of an ``ArtifactCache`` — anything with ``get(key, ns=)`` and
#: ``put(key, payload, ns=)``.  ``None`` keeps the cache process-local.
_TRANSLATION_STORE = None

#: :func:`_translation_for` outcomes, in the process-wide registry so pool
#: workers report them home with everything else.
_counters = PROCESS.view("jit")


def set_translation_store(store) -> None:
    """Install (or with ``None`` remove) the persistent translation tier."""
    global _TRANSLATION_STORE
    _TRANSLATION_STORE = store


def get_translation_store():
    return _TRANSLATION_STORE


def snapshot_translation_counters() -> Dict[str, int]:
    return _counters.snapshot()


def translation_counters_delta(before: Dict[str, int]) -> Dict[str, float]:
    """Traffic since ``before`` (a :func:`snapshot_translation_counters`),
    with the derived ``hits`` / ``lookups`` / ``hit_rate``."""
    return Counters(_counters.delta(before)).as_dict()


def clear_translation_cache() -> None:
    """Drop every in-process translation (tests simulate a fresh process);
    the persistent tier and the counters are left untouched.  A live
    block keeps its :class:`_Instantiation`, but without the cache entry
    its next run re-plans and looks up like a new block's."""
    _CODE_CACHE.clear()


def _instantiation_for(block: Block, check_stride: int) -> _Instantiation:
    """``block``'s instantiation record under the current versions.

    A process shared by many short interpreter instances (the bench's
    steady state, the daemon) must not re-plan every block once per
    instance — so the record is memoised on the block, under everything
    the address is salted with: a version bump or another check stride is
    simply another entry."""
    versions = (JIT_FORMAT_VERSION, semantics.SEMANTICS_VERSION, check_stride)
    try:
        return block._jit[versions]
    except AttributeError:
        block._jit = {}
    except KeyError:
        pass
    record = block._jit[versions] = \
        _Instantiation("jit:v%d:sem%d:stride%d" % versions)
    return record


def _compile_units(units: Sequence[str], filename: str) -> Tuple:
    return tuple(compile(unit, filename, "exec") for unit in units)


def _payload_for(code: Tuple) -> Dict:
    """Disk form of one translation: the per-unit bytecode, valid only
    under the exact same interpreter build.  The source text is not
    stored: whoever restores a translation has just emitted it afresh (the
    namespace template needs the live block) and found this payload at
    that emission's address.  Shards are shared between namespaces and
    parsed whole, so every byte here is a byte an artifact read may have
    to parse: the blobs are deflated (4x)."""
    return {"format": JIT_FORMAT_VERSION,
            "magic": MAGIC_NUMBER.hex(),
            "bytecode": [base64.b64encode(
                zlib.compress(marshal.dumps(unit), 1)).decode()
                for unit in code]}


def _code_from_payload(payload: Dict, units: Sequence[str],
                       filename: str) -> Tuple:
    """Code objects for the payload stored at the address of ``units``:
    unmarshal the persisted bytecode when the interpreter magic matches,
    else recompile unit by unit (the source is authoritative; bytecode is
    only a shortcut)."""
    if payload.get("magic") == MAGIC_NUMBER.hex():
        try:
            code = tuple(
                marshal.loads(zlib.decompress(base64.b64decode(blob)))
                for blob in payload["bytecode"])
            if len(code) == len(units):
                return code
        except Exception:
            pass
    return _compile_units(units, filename)


def _translation_for(interp: Interpreter, block: Block
                     ) -> Tuple[_Translation, _Instantiation]:
    record = _instantiation_for(block, interp._check_stride)
    entry = record.live()
    if entry is not None:
        _CODE_CACHE.move_to_end(record.key)
        _counters.inc("memory_hits")
        return entry, record

    # A block object not yet planned (or whose translation was evicted):
    # the namespace template binds live objects, so every block object is
    # planned and emitted once — and what it emits *is* its address, salted
    # with the versions and folded with everything else a translation
    # carries.  Any two blocks that meet here run the same source, so a
    # cached translation is source-verified by construction.
    plan = plan_block(block)
    emitter = _Emitter(interp, plan)
    units, ns = emitter.build()
    del ns["_interp"], ns["_stats"]    # rebound per instance
    record.template = ns
    record.fallback_binds = tuple(emitter.fallback_binds)
    nops = max(1, len(plan.steps))
    key = record.key = hashlib.sha256("\n".join(
        (record.salt, str(nops), _UNIT_MARK.join(units))).encode()).hexdigest()

    entry = _CODE_CACHE.get(key)
    if entry is not None:
        record.translation = entry
        _CODE_CACHE.move_to_end(key)
        _counters.inc("memory_hits")
        return entry, record

    filename = f"<jit:{key[:12]}>"
    store = _TRANSLATION_STORE
    code = None
    if store is not None:
        try:
            payload = store.get(key, ns="jit")
            if payload is not None:
                code = _code_from_payload(payload, units, filename)
        except Exception:
            code = None
    if code is not None:
        _counters.inc("disk_hits")
    else:
        code = _compile_units(units, filename)
        _counters.inc("misses")
        if store is not None:
            try:
                store.put(key, _payload_for(code), ns="jit")
                _counters.inc("stores")
            except Exception:
                pass

    entry = record.translation = _Translation(code, nops)
    if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
        _CODE_CACHE.popitem(last=False)    # evict one LRU entry, not all
    _CODE_CACHE[key] = entry
    return entry, record


def translation_key(interp: Interpreter, block: Block) -> str:
    """Stable cross-process address of ``block``'s translation, translating
    it now if need be: the SHA-256 of the units it emits, salted with the
    translation-format version, the numeric-semantics version and the
    check stride (the source hard-codes it into its execution-limit
    checks), with the block's op count folded in.  Identical for every
    rebuild of the same block — and for any other block that emits the
    same source, whatever constants it binds."""
    return _translation_for(interp, block)[1].key


def compile_block(interp: Interpreter, block: Block):
    """Translate ``block`` into its generated functions, all defined in
    one namespace; returns (the block's entry function, nops)."""
    entry, record = _translation_for(interp, block)
    ns = dict(record.template)
    ns["_interp"] = interp
    ns["_stats"] = interp.stats
    for name, op in record.fallback_binds:
        ns[name] = interp._compile_op(op)
    for unit in entry.code:
        exec(unit, ns)
    return ns["_jit_block"], entry.nops


#: entries of a cold block before translation pays for itself; colder
#: blocks run on the compiled engine's (cheap, cached) thunk lists instead
_PROMOTE_AFTER = 8
#: estimated ops per entry above which translation pays off immediately
_TRANSLATE_WORK = 1024


def _estimated_work(block: Block) -> Optional[int]:
    """Rough op count one entry of ``block`` executes; ``None`` = unknown
    (a loop with runtime bounds — assume hot)."""
    total = 0
    for op in block.ops:
        if op.name in _INLINE_LOOPS and _loop_inlineable(op):
            trips = _static_trips(op)
            inner = _estimated_work(op.regions[0].blocks[0])
            if trips is None or inner is None:
                return None
            total += trips * (inner + 1)
        else:
            total += 1
    return total


def _worth_translating(block: Block) -> bool:
    """Translate on first entry only when one entry amortizes the
    ``compile()``/``exec`` price: the block's statically estimated
    per-entry work clears :data:`_TRANSLATE_WORK`, or contains a loop
    whose bounds only resolve at run time.  Everything colder pays off
    only when re-entered (:data:`_PROMOTE_AFTER`)."""
    work = _estimated_work(block)
    return work is None or work >= _TRANSLATE_WORK


class JitEngine:
    """Per-interpreter cache of generated block functions.

    Translation is tiered: loop-bearing blocks are translated on first
    entry, anything else runs on the compiled engine's dispatch until it
    has been entered :data:`_PROMOTE_AFTER` times.  Both tiers are
    observationally bit-identical, so the mix never shows in stats."""

    __slots__ = ("interp", "cache", "entries")

    def __init__(self, interp: Interpreter):
        self.interp = interp
        self.cache: Dict[Block, Tuple] = {}
        self.entries: Dict[Block, int] = {}

    def run_block(self, block: Block, env: Dict) -> Tuple[str, object]:
        entry = self.cache.get(block)
        if entry is None:
            # a translation this block object already resolved
            # instantiates for pennies — use it however cold the block
            # looks; the tiering verdict is a walk, so it is made once
            record = _instantiation_for(block, self.interp._check_stride)
            if record.live() is None:
                if record.hot is None:
                    record.hot = _worth_translating(block)
                count = self.entries.get(block, 0)
                if not record.hot and count < _PROMOTE_AFTER:
                    self.entries[block] = count + 1
                    return self.interp._run_block_compiled(block, env)
            entry = self.cache[block] = compile_block(self.interp, block)
        fn, nops = entry
        interp = self.interp
        budget = interp._budget - nops
        if budget <= 0:
            interp._check_limit()
            budget = interp._check_stride
        interp._budget = budget
        return fn(env)

    def source_for(self, block: Block) -> str:
        """Translate ``block`` now, however cold, and return its generated
        Python source (debugging aid) — emitted afresh: no cache keeps
        source text alive."""
        if block not in self.cache:
            self.cache[block] = compile_block(self.interp, block)
        units, _ = _Emitter(self.interp, plan_block(block)).build()
        return _UNIT_MARK.join(units)


__all__ = ["JitEngine", "compile_block", "plan_block",
           "translation_key", "set_translation_store",
           "get_translation_store",
           "snapshot_translation_counters", "translation_counters_delta",
           "clear_translation_cache", "JIT_FORMAT_VERSION"]
