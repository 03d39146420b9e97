"""Multi-dialect IR interpreter with dynamic operation accounting.

The interpreter executes modules at the three levels the two compilation
flows are run at — FIR after ``convert-hlfir-to-fir`` (the baseline), and
the standard dialects (scf/affine/memref/vector/linalg, optionally with
omp/acc/gpu regions) before and after the optimisation stage — so that:

* numerical results of the two flows can be compared (correctness gate), and
* dynamic operation counts per category feed the machine cost model
  (:mod:`repro.machine.perf`), which is how modeled runtimes for the paper's
  tables are produced.

HLFIR and the ``llvm`` dialect are never executed: both flows lower HLFIR
away before the first stage anything interprets, and neither lowers to
``llvm`` (the four ``llvm`` ops for module scalars aside).  An op without a
handler raises a clean :class:`InterpreterError`.

Statistics are kept per execution context: ``serial``, ``parallel`` (inside
omp/scf.parallel regions) and ``gpu`` (inside gpu.launch kernels), which the
threading and GPU models use.

Execution engines
-----------------

Four engines execute the same IR with bit-identical observables
(``engine="reference" | "compiled" | "jit" | "vector"``).  ``compiled`` —
the cached-dispatch engine — is described below; ``jit``, the default
(:data:`repro.flows.DEFAULT_ENGINE`), goes further and translates hot
blocks into generated Python source (:mod:`repro.machine.jit`), running
cold ones on ``compiled``'s thunks; ``vector`` evaluates matched loop nests
as whole-array numpy expressions (:mod:`repro.machine.vector`).

Interpreting a table regeneration executes tens of millions of operations,
so the cached-dispatch inner loop avoids all per-operation dispatch work:

* handler resolution is cached at class level (op name -> handler, resolved
  once per name instead of a ``getattr`` with string building per executed
  op), and
* every block is compiled on first entry into a list of closures ("thunks"),
  one per operation, with operands, results, attributes and the stats
  category already resolved; re-executing the block (every loop iteration)
  just calls the thunks.
* affine maps run in their compiled form
  (:meth:`~repro.ir.attributes.AffineMapAttr.compiled`): thunks specialise
  on it when they are built — constant maps index with a fixed tuple,
  identity maps index with the operands themselves, everything else calls
  one straight-line function — so only the ``reference`` engine walks
  :class:`~repro.ir.attributes.AffineExpr` trees at run time.
* the ``max_ops`` limit is checked once per ``N`` executed operations
  (``N`` scales with ``max_ops``) instead of before every operation, and
* statistics bumps go straight into a pre-fetched per-context ``Counter``
  (kept in sync with the context stack) with fused total-ops accounting.

The original one-op-at-a-time engine is kept as a reference implementation
(``Interpreter(..., engine="reference")``); all engines produce
bit-identical results and statistics, which ``tests/machine`` asserts and
``benchmarks/interpreter_bench.py`` uses as the speedup baseline.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dialects import fir as fir_d
from ..flang import runtime as flang_runtime
from ..flows.base import DEFAULT_ENGINE, ENGINES
from ..ir import types as ir_types
from ..ir.core import Block, Operation, Value
from .semantics import (VALUE_OPS, VECTOR_REDUCTIONS, ValueOp,
                        vector_broadcast, vector_load, vector_store)
from .values import (Cell, ElementPtr, FortranArray, as_ndarray,
                     numpy_dtype_for)


class InterpreterError(Exception):
    pass


class ExecutionLimitExceeded(InterpreterError):
    pass


@dataclass
class ExecutionStats:
    """Dynamic operation counts per context ('serial', 'parallel', 'gpu')."""

    counts: Dict[str, Counter] = field(default_factory=lambda: defaultdict(Counter))
    parallel_loop_iterations: int = 0
    parallel_regions: int = 0
    gpu_kernel_launches: int = 0
    gpu_threads: int = 0
    runtime_calls: Counter = field(default_factory=Counter)
    runtime_elements: Counter = field(default_factory=Counter)
    total_ops: int = 0

    def bump(self, context: str, category: str, amount: float = 1.0) -> None:
        self.counts[context][category] += amount
        self.total_ops += 1

    def total(self, category: str, contexts: Optional[Sequence[str]] = None) -> float:
        contexts = contexts or list(self.counts)
        return sum(self.counts[c].get(category, 0.0) for c in contexts)

    def merged(self) -> Counter:
        """All per-context counts folded into one Counter (single pass)."""
        total: Counter = Counter()
        for ctr in self.counts.values():
            total.update(ctr)
        return total

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {c: dict(v) for c, v in self.counts.items()}

    def diff(self, other: "ExecutionStats") -> List[str]:
        """Human-readable field-level differences against ``other``.

        Returns an empty list when the two stats are identical; used by the
        conformance oracle to name exactly which observable diverged.
        """
        out: List[str] = []
        contexts = sorted(set(self.counts) | set(other.counts))
        for context in contexts:
            # .get, not indexing: diff must not grow either defaultdict
            mine = self.counts.get(context, Counter())
            theirs = other.counts.get(context, Counter())
            for category in sorted(set(mine) | set(theirs)):
                if mine.get(category, 0.0) != theirs.get(category, 0.0):
                    out.append(f"counts[{context}][{category}]: "
                               f"{mine.get(category, 0.0)} != "
                               f"{theirs.get(category, 0.0)}")
        for name in ("parallel_loop_iterations", "parallel_regions",
                     "gpu_kernel_launches", "gpu_threads", "total_ops"):
            a, b = getattr(self, name), getattr(other, name)
            if a != b:
                out.append(f"{name}: {a} != {b}")
        for name in ("runtime_calls", "runtime_elements"):
            mine, theirs = getattr(self, name), getattr(other, name)
            for key in sorted(set(mine) | set(theirs)):
                if mine.get(key, 0) != theirs.get(key, 0):
                    out.append(f"{name}[{key}]: {mine.get(key, 0)} != "
                               f"{theirs.get(key, 0)}")
        return out


# ---------------------------------------------------------------------------
# Block-structure sets used by every execution engine
# ---------------------------------------------------------------------------

_RETURN_OPS = frozenset({"func.return"})
_BR_OPS = frozenset({"cf.br"})
_COND_BR_OPS = frozenset({"cf.cond_br"})
_YIELD_OPS = frozenset({
    "scf.yield", "fir.result", "affine.yield", "omp.yield",
    "omp.terminator", "acc.terminator", "gpu.terminator",
    "linalg.yield", "memref.alloca_scope.return", "scf.condition"})


#: The four interpreter engines (named in :data:`repro.flows.ENGINES`, the
#: one place they are written).  ``reference`` executes one op at a time
#: (string-built getattr dispatch), ``compiled`` caches per-block thunk
#: lists, ``jit`` translates blocks (and structured loop bodies) into
#: generated Python source (see :mod:`repro.machine.jit`), and ``vector``
#: evaluates matched affine/scf/fir loop nests as whole-array numpy
#: expressions with analytic statistics (see :mod:`repro.machine.vector`).
#: All four are observationally bit-identical — output and statistics.
ENGINE_NAMES = ENGINES


class Interpreter:
    """Executes a module and records dynamic operation statistics."""

    #: op name -> handler function (resolved once per name, class-level).
    _HANDLER_CACHE: Dict[str, Optional[Callable]] = {}

    def __init__(self, module: Operation, *, max_ops: int = 80_000_000,
                 trace_output: bool = False, engine: Optional[str] = None):
        if engine is None:
            engine = DEFAULT_ENGINE
        if engine not in ENGINE_NAMES:
            raise InterpreterError(
                f"unknown interpreter engine {engine!r} "
                f"(known: {', '.join(ENGINE_NAMES)})")
        self.module = module
        self.stats = ExecutionStats()
        self.max_ops = max_ops
        self.globals: Dict[str, object] = {}
        self.functions: Dict[str, Operation] = {}
        self.context_stack: List[str] = ["serial"]
        self.printed: List[str] = []
        self.trace_output = trace_output
        self.engine = engine
        #: per-context Counter for the current context (hot-path bump target)
        self._ctx_counts: Counter = self.stats.counts["serial"]
        #: compiled thunk lists, one per visited Block
        self._block_cache: Dict[Block, List[Callable]] = {}
        # limit checking is batched: every _check_stride executed ops
        self._check_stride = max(1, min(4096, max_ops // 16))
        self._budget = self._check_stride
        if engine == "jit":
            from .jit import JitEngine
            self._jit = JitEngine(self)
            self._run_block = self._jit.run_block
        elif engine == "vector":
            from .vector import VectorEngine
            self._vector = VectorEngine(self)
            self._run_block = self._vector.run_block
        elif engine == "compiled":
            self._run_block = self._run_block_compiled
        else:
            self._run_block = self._run_block_simple
        self._collect_symbols()

    # ------------------------------------------------------------------ set-up
    def _collect_symbols(self) -> None:
        for op in self.module.body.ops:
            sym = op.get_attr("sym_name")
            if op.name == "func.func" and sym is not None:
                self.functions[sym.value] = op
            elif op.name in ("fir.global", "memref.global", "llvm.mlir.global") \
                    and sym is not None:
                self.globals[sym.value] = self._init_global(op)

    def _init_global(self, op: Operation):
        gtype = (op.get_attr("type") or op.get_attr("global_type")).type
        if isinstance(gtype, ir_types.MemRefType):
            return np.zeros(gtype.shape,
                            dtype=numpy_dtype_for(gtype.element_type))
        storage = _new_storage(gtype)
        init = op.get_attr("initial_value") or op.get_attr("value")
        if init is not None:
            storage.value = init.value
        return storage

    # ------------------------------------------------------------------ context
    @property
    def context(self) -> str:
        return self.context_stack[-1]

    def _push_context(self, name: str) -> None:
        self.context_stack.append(name)
        self._ctx_counts = self.stats.counts[name]

    def _pop_context(self) -> None:
        self.context_stack.pop()
        self._ctx_counts = self.stats.counts[self.context_stack[-1]]

    def _check_limit(self) -> None:
        if self.stats.total_ops > self.max_ops:
            raise ExecutionLimitExceeded(
                f"interpreter exceeded {self.max_ops} operations")

    # ------------------------------------------------------------------ running
    def run_main(self):
        for name in ("_QQmain", "main", "MAIN"):
            if name in self.functions:
                return self.call(name, [])
        raise InterpreterError("module has no main program")

    def call(self, name: str, args: Sequence) -> List:
        func = self.functions.get(name)
        if func is None:
            return self._runtime_call(name, list(args), [])
        self._ctx_counts["call"] += 1.0
        self.stats.total_ops += 1
        return self._run_function(func, list(args))

    def _run_function(self, func: Operation, args: List) -> List:
        region = func.regions[0]
        if not region.blocks:
            return []
        env: Dict[Value, object] = {}
        entry = region.blocks[0]
        for block_arg, value in zip(entry.args, args):
            env[block_arg] = value
        block = entry
        run_block = self._run_block
        while True:
            action, payload = run_block(block, env)
            if action == "return":
                return payload
            if action == "branch":
                block, incoming = payload
                for block_arg, value in zip(block.args, incoming):
                    env[block_arg] = value
                continue
            raise InterpreterError(f"unexpected control action {action}")

    # ------------------------------------------------------------------ blocks
    #
    # The compiled engine turns each block into a list of closures on first
    # entry.  A thunk returns None (plain operation) or a control tuple
    # ("return" | "branch" | "yield", payload) that _run_block forwards.

    def _run_block_compiled(self, block: Block, env: Dict) -> Tuple[str, object]:
        code = self._block_cache.get(block)
        if code is None:
            code = self._block_cache[block] = self._compile_block(block)
        budget = self._budget - len(code)
        if budget <= 0:
            self._check_limit()
            budget = self._check_stride
        self._budget = budget
        for step in code:
            result = step(env)
            if result is not None:
                return result
        return "yield", (None, [])

    def _compile_block(self, block: Block) -> List[Callable]:
        return [self._compile_op(op) for op in block.ops]

    def _compile_op(self, op: Operation) -> Callable:
        name = op.name
        interp = self
        stats = self.stats
        if name in _RETURN_OPS:
            vals = op.operands

            def do_return(env, _vals=vals):
                return "return", [env.get(v) for v in _vals]
            return do_return
        if name in _BR_OPS:
            succ = op.successors[0]
            vals = op.operands

            def do_br(env, _succ=succ, _vals=vals):
                interp._ctx_counts["branch"] += 1.0
                stats.total_ops += 1
                return "branch", (_succ, [env.get(v) for v in _vals])
            return do_br
        if name in _COND_BR_OPS:
            n_attr = op.get_attr("num_true_operands")
            n = n_attr.value if n_attr is not None else 0
            cond_v = op.operands[0]
            true_vals = op.operands[1:1 + n]
            false_vals = op.operands[1 + n:]
            true_succ, false_succ = op.successors[0], op.successors[1]

            def do_cond_br(env):
                interp._ctx_counts["branch"] += 1.0
                stats.total_ops += 1
                if env.get(cond_v):
                    return "branch", (true_succ, [env.get(v) for v in true_vals])
                return "branch", (false_succ, [env.get(v) for v in false_vals])
            return do_cond_br
        if name in _YIELD_OPS:
            vals = op.operands

            def do_yield(env, _op=op, _vals=vals):
                return "yield", (_op, [env.get(v) for v in _vals])
            return do_yield
        maker = _THUNK_MAKERS.get(name)
        if maker is not None:
            return maker(self, op)
        handler = self._resolve_handler(name)
        if handler is None:
            def missing(env, _name=name):
                raise InterpreterError(
                    f"interpreter cannot execute operation {_name}")
            return missing
        # partial(bound_handler, op) -> handler(self, op, env) on each call
        return partial(handler.__get__(self, type(self)), op)

    @classmethod
    def _resolve_handler(cls, name: str) -> Optional[Callable]:
        """Class-level dispatch table: op name -> handler, resolved once."""
        try:
            return cls._HANDLER_CACHE[name]
        except KeyError:
            handler = getattr(cls, "_exec_" + name.replace(".", "_"), None)
            cls._HANDLER_CACHE[name] = handler
            return handler

    # The reference engine: one op at a time, exactly the pre-cached-dispatch
    # behaviour (per-op limit check, string-built getattr dispatch).  Kept as
    # the correctness baseline for the compiled engine and as the benchmark's
    # reference point.
    def _run_block_simple(self, block: Block, env: Dict) -> Tuple[str, object]:
        for op in block.ops:
            self._check_limit()
            name = op.name
            # terminators that transfer control
            if name in _RETURN_OPS:
                return "return", [env.get(v) for v in op.operands]
            if name in _BR_OPS:
                self.stats.bump(self.context, "branch")
                return "branch", (op.successors[0], [env.get(v) for v in op.operands])
            if name in _COND_BR_OPS:
                self.stats.bump(self.context, "branch")
                cond = bool(env.get(op.operands[0]))
                n_attr = op.get_attr("num_true_operands")
                n = n_attr.value if n_attr is not None else 0
                if cond:
                    return "branch", (op.successors[0],
                                      [env.get(v) for v in op.operands[1:1 + n]])
                return "branch", (op.successors[1],
                                  [env.get(v) for v in op.operands[1 + n:]])
            if name in _YIELD_OPS:
                return "yield", (op, [env.get(v) for v in op.operands])
            self._execute_op(op, env)
        return "yield", (None, [])

    # ------------------------------------------------------------- single ops
    def _execute_op(self, op: Operation, env: Dict) -> None:
        name = op.name
        row = VALUE_OPS.get(name)
        if row is not None:
            self._exec_value_op(op, env, row)
            return
        handler = getattr(self, "_exec_" + name.replace(".", "_"), None)
        if handler is not None:
            handler(op, env)
            return
        raise InterpreterError(f"interpreter cannot execute operation {name}")

    def _exec_value_op(self, op: Operation, env: Dict, row: ValueOp) -> None:
        """Any row of ``semantics.VALUE_OPS``, through the row's kernel."""
        args = [env[v] for v in op.operands]
        result = row.bind(op)(*args)
        env[op.results[0]] = result
        probed = result if row.probe == "result" else \
            args[0] if row.probe == "operand" else None
        if isinstance(probed, np.ndarray) and probed.size > 1:
            self.stats.bump(self.context, row.vector_category)
        else:
            self.stats.bump(self.context, row.scalar_category(op))

    # -- constants & casts -------------------------------------------------------
    def _exec_arith_constant(self, op, env) -> None:
        env[op.results[0]] = op.get_attr("value").value

    def _exec_fir_convert(self, op, env) -> None:
        value = env[op.operands[0]]
        target = op.results[0].type
        if isinstance(value, (Cell, FortranArray, ElementPtr, np.ndarray)):
            env[op.results[0]] = value
        elif isinstance(target, ir_types.FloatType):
            env[op.results[0]] = float(value)
        elif isinstance(target, (ir_types.IntegerType, ir_types.IndexType)):
            env[op.results[0]] = int(value)
        else:
            env[op.results[0]] = value
        self.stats.bump(self.context, "cast")

    # -- FIR memory ----------------------------------------------------------------
    def _exec_fir_alloca(self, op, env) -> None:
        self.stats.bump(self.context, "alloc")
        env[op.results[0]] = _new_storage(op.get_attr("in_type").type,
                                          [env[v] for v in op.operands])

    _exec_fir_allocmem = _exec_fir_alloca

    def _exec_fir_freemem(self, op, env) -> None:
        self.stats.bump(self.context, "free")

    def _exec_fir_load(self, op, env) -> None:
        source = env[op.operands[0]]
        self.stats.bump(self.context, "load")
        if isinstance(source, Cell):
            env[op.results[0]] = source.value
        elif isinstance(source, ElementPtr):
            env[op.results[0]] = source.load()
        else:
            env[op.results[0]] = source

    def _exec_fir_store(self, op, env) -> None:
        value, dest = env[op.operands[0]], env[op.operands[1]]
        self.stats.bump(self.context, "store")
        if isinstance(dest, Cell):
            dest.value = value
        elif isinstance(dest, ElementPtr):
            dest.store(value)
        else:
            raise InterpreterError("fir.store destination is not a storage location")

    def _exec_fir_shape(self, op, env) -> None:
        env[op.results[0]] = tuple(int(env[v]) for v in op.operands)

    def _exec_fir_embox(self, op, env) -> None:
        env[op.results[0]] = env[op.operands[0]]

    def _exec_fir_box_addr(self, op, env) -> None:
        value = env[op.operands[0]]
        env[op.results[0]] = value
        self.stats.bump(self.context, "load")

    def _exec_fir_box_dims(self, op, env) -> None:
        box = env[op.operands[0]]
        dim = int(env[op.operands[1]])
        shape = box.shape if isinstance(box, (FortranArray, np.ndarray)) else (1,)
        env[op.results[0]] = 1
        env[op.results[1]] = int(shape[dim]) if dim < len(shape) else 1
        env[op.results[2]] = 1
        self.stats.bump(self.context, "load")

    def _exec_fir_coordinate_of(self, op, env) -> None:
        base = env[op.operands[0]]
        self.stats.bump(self.context, "index_arith")
        if op.get_attr("field") is not None:
            # derived-type member access: a record is a Cell holding a dict
            if not (isinstance(base, Cell) and isinstance(base.value, dict)):
                raise InterpreterError(
                    "fir.coordinate_of field access on non-record storage")
            env[op.results[0]] = base.value[op.get_attr("field").value]
            return
        flat = int(env[op.operands[1]]) if len(op.operands) > 1 else 0
        if isinstance(base, FortranArray):
            env[op.results[0]] = ElementPtr(base, flat=flat)
        elif isinstance(base, np.ndarray):
            env[op.results[0]] = ElementPtr(base, flat=flat)
        elif isinstance(base, Cell):
            env[op.results[0]] = base
        else:
            raise InterpreterError("fir.coordinate_of on a non-array value")

    def _exec_fir_string_lit(self, op, env) -> None:
        env[op.results[0]] = op.get_attr("value").value

    def _exec_fir_address_of(self, op, env) -> None:
        env[op.results[0]] = self.globals.get(op.get_attr("symbol").root, Cell(0))

    def _unbox(self, value):
        return value.value if isinstance(value, Cell) else value

    # -- memref -----------------------------------------------------------------------
    def _exec_memref_alloca(self, op, env) -> None:
        self._memref_alloc(op, env)

    def _exec_memref_alloc(self, op, env) -> None:
        self._memref_alloc(op, env)

    def _memref_alloc(self, op, env) -> None:
        mtype = op.results[0].type
        self.stats.bump(self.context, "alloc")
        if mtype.rank == 0:
            env[op.results[0]] = Cell(0)
            return
        shape = []
        dyn = iter([int(env[v]) for v in op.operands])
        for d in mtype.shape:
            shape.append(int(next(dyn)) if d == ir_types.DYNAMIC else d)
        env[op.results[0]] = np.zeros(shape, dtype=numpy_dtype_for(mtype.element_type))

    def _exec_memref_dealloc(self, op, env) -> None:
        self.stats.bump(self.context, "free")

    def _exec_memref_load(self, op, env) -> None:
        memref_value = env[op.operands[0]]
        indices = [int(env[v]) for v in op.operands[1:]]
        self.stats.bump(self.context, "load")
        if isinstance(memref_value, Cell):
            env[op.results[0]] = memref_value.value
        else:
            env[op.results[0]] = memref_value[tuple(indices)] if indices \
                else memref_value[()]

    def _exec_memref_store(self, op, env) -> None:
        value = env[op.operands[0]]
        memref_value = env[op.operands[1]]
        indices = [int(env[v]) for v in op.operands[2:]]
        self.stats.bump(self.context, "store")
        if isinstance(memref_value, Cell):
            memref_value.value = value
        else:
            memref_value[tuple(indices) if indices else ()] = value

    def _exec_memref_dim(self, op, env) -> None:
        memref_value = env[op.operands[0]]
        dim = int(env[op.operands[1]])
        env[op.results[0]] = int(memref_value.shape[dim])
        self.stats.bump(self.context, "load")

    def _exec_memref_subview(self, op, env) -> None:
        base = env[op.operands[0]]
        rank = base.ndim
        offsets = [int(env[v]) for v in op.offsets]
        sizes = [int(env[v]) for v in op.sizes]
        strides = [int(env[v]) for v in op.strides]
        slices = tuple(slice(o, o + s * st, st) for o, s, st in
                       zip(offsets, sizes, strides))
        env[op.results[0]] = base[slices]
        self.stats.bump(self.context, "index_arith")

    def _exec_memref_get_global(self, op, env) -> None:
        env[op.results[0]] = self.globals[op.get_attr("name").value]

    def _exec_memref_alloca_scope(self, op, env) -> None:
        self._run_nested_block(op.regions[0].blocks[0], env)

    def _exec_llvm_mlir_addressof(self, op, env) -> None:
        env[op.results[0]] = self.globals.get(op.get_attr("global_name").root, Cell(0))

    def _exec_llvm_load(self, op, env) -> None:
        source = env[op.operands[0]]
        env[op.results[0]] = source.value if isinstance(source, Cell) else source
        self.stats.bump(self.context, "load")

    def _exec_llvm_store(self, op, env) -> None:
        value, dest = env[op.operands[0]], env[op.operands[1]]
        if isinstance(dest, Cell):
            dest.value = value
        self.stats.bump(self.context, "store")

    # -- vector ------------------------------------------------------------------------
    def _vector_indices(self, op, env, first_index_operand: int):
        amap = op.get_attr("map")
        operand_values = [int(env[v]) for v in op.operands[first_index_operand:]]
        if amap is not None and len(amap.results) > 0:
            return amap.evaluate(operand_values)
        return tuple(operand_values)

    def _exec_vector_load(self, op, env) -> None:
        memref_value = env[op.operands[0]]
        width = op.results[0].type.shape[0]
        indices = self._vector_indices(op, env, 1)
        env[op.results[0]] = vector_load(memref_value, indices, width)
        self.stats.bump(self.context, "vector_load")

    def _exec_vector_store(self, op, env) -> None:
        value = env[op.operands[0]]
        memref_value = env[op.operands[1]]
        indices = self._vector_indices(op, env, 2)
        vector_store(memref_value, indices, value)
        self.stats.bump(self.context, "vector_store")

    def _exec_vector_broadcast(self, op, env) -> None:
        width = op.results[0].type.shape[0]
        env[op.results[0]] = vector_broadcast(env[op.operands[0]], width)
        self.stats.bump(self.context, "vector_int")

    def _exec_vector_reduction(self, op, env) -> None:
        reduce = VECTOR_REDUCTIONS[op.get_attr("kind").value]
        env[op.results[0]] = float(reduce(env[op.operands[0]]))
        self.stats.bump(self.context, "vector_reduce")

    # -- structured control flow ----------------------------------------------------------
    def _run_nested_block(self, block: Block, env: Dict):
        action, payload = self._run_block(block, env)
        if action == "yield":
            return payload
        if action == "return":
            raise _FunctionReturn(payload)
        raise InterpreterError("unstructured control flow escaping a region")

    def _exec_scf_if(self, op, env) -> None:
        cond = bool(env[op.operands[0]])
        self.stats.bump(self.context, "branch")
        block = op.regions[0].blocks[0] if cond else (
            op.regions[1].blocks[0] if op.regions[1].blocks else None)
        values: List = []
        if block is not None:
            _, (_, values) = None, self._run_nested_block(block, env)
        for res, val in zip(op.results, values[1] if values and isinstance(values, tuple) else values):
            env[res] = val

    def _exec_fir_if(self, op, env) -> None:
        self._exec_scf_if(op, env)

    def _exec_scf_for(self, op, env) -> None:
        lower = int(env[op.operands[0]])
        upper = int(env[op.operands[1]])
        step = int(env[op.operands[2]])
        iter_values = [env[v] for v in op.operands[3:]]
        body = op.regions[0].blocks[0]
        counts = self._ctx_counts
        stats = self.stats
        iv = lower
        while iv < upper:
            counts["loop_iter"] += 1.0
            stats.total_ops += 1
            env[body.args[0]] = iv
            for arg, val in zip(body.args[1:], iter_values):
                env[arg] = val
            result = self._run_nested_block(body, env)
            _, yielded = result
            if yielded:
                iter_values = yielded
            iv += max(step, 1) if step > 0 else step
            if step <= 0:
                break
        for res, val in zip(op.results, iter_values):
            env[res] = val

    def _exec_affine_for(self, op, env) -> None:
        lower_ops = [int(env[v]) for v in op.lower_operands]
        upper_ops = [int(env[v]) for v in op.upper_operands]
        lower = op.lower_bound_map.evaluate(lower_ops)[0]
        upper = op.upper_bound_map.evaluate(upper_ops)[0]
        step = op.step_value
        iter_values = [env[v] for v in op.iter_args]
        body = op.regions[0].blocks[0]
        counts = self._ctx_counts
        stats = self.stats
        iv = lower
        while iv < upper:
            counts["loop_iter"] += 1.0
            stats.total_ops += 1
            env[body.args[0]] = iv
            for arg, val in zip(body.args[1:], iter_values):
                env[arg] = val
            _, yielded = self._run_nested_block(body, env)
            if yielded:
                iter_values = yielded
            iv += step
        for res, val in zip(op.results, iter_values):
            env[res] = val

    def _exec_affine_load(self, op, env) -> None:
        memref_value = env[op.operands[0]]
        operand_values = [int(env[v]) for v in op.operands[1:]]
        indices = op.get_attr("map").evaluate(operand_values)
        self.stats.bump(self.context, "load")
        if isinstance(memref_value, Cell):
            env[op.results[0]] = memref_value.value
        else:
            env[op.results[0]] = memref_value[tuple(indices)] if indices \
                else memref_value[()]

    def _exec_affine_store(self, op, env) -> None:
        value = env[op.operands[0]]
        memref_value = env[op.operands[1]]
        operand_values = [int(env[v]) for v in op.operands[2:]]
        indices = op.get_attr("map").evaluate(operand_values)
        self.stats.bump(self.context, "store")
        if isinstance(memref_value, Cell):
            memref_value.value = value
        else:
            memref_value[tuple(indices) if indices else ()] = value

    def _exec_scf_while(self, op, env) -> None:
        before = op.regions[0].blocks[0]
        after = op.regions[1].blocks[0]
        carried = [env[v] for v in op.operands]
        counts = self._ctx_counts
        stats = self.stats
        while True:
            counts["loop_iter"] += 1.0
            stats.total_ops += 1
            for arg, val in zip(before.args, carried):
                env[arg] = val
            terminator, values = self._run_nested_block(before, env)
            cond = bool(values[0])
            forwarded = values[1:]
            if not cond:
                results = forwarded
                break
            for arg, val in zip(after.args, forwarded):
                env[arg] = val
            _, yielded = self._run_nested_block(after, env)
            carried = yielded
        for res, val in zip(op.results, results):
            env[res] = val

    def _exec_scf_parallel(self, op, env) -> None:
        rank = op.rank
        lowers = [int(env[v]) for v in op.lower_bounds]
        uppers = [int(env[v]) for v in op.upper_bounds]
        steps = [int(env[v]) for v in op.steps]
        body = op.body
        self.stats.parallel_regions += 1
        self._push_context("parallel")
        try:
            self._iterate_parallel(body, lowers, uppers, steps, env)
        finally:
            self._pop_context()

    def _iterate_parallel(self, body, lowers, uppers, steps, env) -> None:
        counts = self._ctx_counts
        stats = self.stats

        def recurse(dim, indices):
            if dim == len(lowers):
                stats.parallel_loop_iterations += 1
                counts["loop_iter"] += 1.0
                stats.total_ops += 1
                for arg, val in zip(body.args, indices):
                    env[arg] = val
                self._run_nested_block(body, env)
                return
            iv = lowers[dim]
            while iv < uppers[dim]:
                recurse(dim + 1, indices + [iv])
                iv += steps[dim]
        recurse(0, [])

    # -- fir loops -----------------------------------------------------------------------
    def _exec_fir_do_loop(self, op, env) -> None:
        lower = int(env[op.operands[0]])
        upper = int(env[op.operands[1]])
        step = int(env[op.operands[2]])
        iter_values = [env[v] for v in op.operands[3:]]
        body = op.regions[0].blocks[0]
        counts = self._ctx_counts
        stats = self.stats
        iv = lower
        if step == 0:
            step = 1
        while (step > 0 and iv <= upper) or (step < 0 and iv >= upper):
            counts["loop_iter"] += 1.0
            stats.total_ops += 1
            env[body.args[0]] = iv
            for arg, val in zip(body.args[1:], iter_values):
                env[arg] = val
            _, yielded = self._run_nested_block(body, env)
            if yielded:
                iter_values = yielded
            iv += step
        results = [iv] + iter_values
        for res, val in zip(op.results, results):
            env[res] = val

    def _exec_fir_iterate_while(self, op, env) -> None:
        lower = int(env[op.operands[0]])
        upper = int(env[op.operands[1]])
        step = int(env[op.operands[2]])
        ok = bool(env[op.operands[3]])
        iter_values = [env[v] for v in op.operands[4:]]
        body = op.regions[0].blocks[0]
        counts = self._ctx_counts
        stats = self.stats
        iv = lower
        while iv <= upper and ok:
            counts["loop_iter"] += 1.0
            stats.total_ops += 1
            env[body.args[0]] = iv
            env[body.args[1]] = ok
            for arg, val in zip(body.args[2:], iter_values):
                env[arg] = val
            _, yielded = self._run_nested_block(body, env)
            if yielded:
                ok = bool(yielded[0])
                iter_values = yielded[1:]
            iv += step if step else 1
        results = [iv, ok] + iter_values
        for res, val in zip(op.results, results):
            env[res] = val

    # -- OpenMP / OpenACC / GPU --------------------------------------------------------------
    def _exec_omp_parallel(self, op, env) -> None:
        self.stats.parallel_regions += 1
        self._push_context("parallel")
        try:
            self._run_nested_block(op.regions[0].blocks[0], env)
        finally:
            self._pop_context()

    def _exec_omp_wsloop(self, op, env) -> None:
        rank = op.rank
        lowers = [int(env[v]) for v in op.lower_bounds]
        uppers = [int(env[v]) for v in op.upper_bounds]
        steps = [int(env[v]) for v in op.steps]
        body = op.body
        self._push_context("parallel")
        counts = self._ctx_counts
        stats = self.stats
        inclusive = op.get_attr("inclusive_ub") is not None
        if not inclusive:
            uppers = [u - 1 for u in uppers]
        try:
            iv = lowers[0]
            # Fortran-generated omp.wsloop uses inclusive bounds; wsloops
            # converted from scf.parallel are exclusive (adjusted above)
            while iv <= uppers[0]:
                stats.parallel_loop_iterations += 1
                counts["loop_iter"] += 1.0
                stats.total_ops += 1
                env[body.args[0]] = iv
                self._run_nested_block(body, env)
                iv += steps[0] if steps[0] else 1
        finally:
            self._pop_context()

    def _exec_acc_kernels(self, op, env) -> None:
        self.stats.gpu_kernel_launches += 1
        self._push_context("gpu")
        try:
            self._run_nested_block(op.regions[0].blocks[0], env)
        finally:
            self._pop_context()
        for res, operand in zip(op.results, op.operands):
            env[res] = env[operand]

    def _exec_acc_data(self, op, env) -> None:
        self._run_nested_block(op.regions[0].blocks[0], env)
        for res, operand in zip(op.results, op.operands):
            env[res] = env[operand]

    def _exec_acc_create(self, op, env) -> None:
        if op.results:
            env[op.results[0]] = env[op.operands[0]]
        self.stats.bump(self.context, "gpu_data_clause")

    _exec_acc_copyin = _exec_acc_create

    def _exec_acc_delete(self, op, env) -> None:
        self.stats.bump(self.context, "gpu_data_clause")

    def _exec_gpu_host_register(self, op, env) -> None:
        self.stats.bump(self.context, "gpu_data_clause")

    _exec_gpu_host_unregister = _exec_gpu_host_register

    def _exec_gpu_launch(self, op, env) -> None:
        grid = [int(env[v]) for v in op.operands[0:3]]
        block = [int(env[v]) for v in op.operands[3:6]]
        total_threads = grid[0] * grid[1] * grid[2] * block[0] * block[1] * block[2]
        self.stats.gpu_kernel_launches += 1
        self.stats.gpu_threads += total_threads
        body = op.regions[0].blocks[0]
        self._push_context("gpu")
        try:
            for linear in range(total_threads):
                bid = linear // (block[0] * block[1] * block[2])
                tid = linear % (block[0] * block[1] * block[2])
                args = [bid, 0, 0, tid, 0, 0, grid[0], grid[1], grid[2],
                        block[0], block[1], block[2]]
                for arg, val in zip(body.args, args):
                    env[arg] = val
                self._run_nested_block(body, env)
        finally:
            self._pop_context()

    # -- linalg (when not lowered to loops) ---------------------------------------------------
    def _exec_linalg_fill(self, op, env) -> None:
        value, out = env[op.operands[0]], env[op.operands[1]]
        out[...] = value
        self.stats.bump(self.context, "array_assign_elements", out.size)

    def _exec_linalg_copy(self, op, env) -> None:
        src, out = env[op.operands[0]], env[op.operands[1]]
        out[...] = src
        self.stats.bump(self.context, "array_assign_elements", out.size)

    def _exec_linalg_matmul(self, op, env) -> None:
        a, b, c = (env[v] for v in op.operands)
        c += a @ b
        self.stats.bump(self.context, "linalg_elements", a.shape[0] * b.shape[1] * a.shape[1])

    def _exec_linalg_dot(self, op, env) -> None:
        a, b, out = (env[v] for v in op.operands)
        out.value = (out.value or 0.0) + float(np.dot(a, b)) if isinstance(out, Cell) \
            else out + np.dot(a, b)
        self.stats.bump(self.context, "linalg_elements", a.size)

    def _exec_linalg_transpose(self, op, env) -> None:
        src, out = env[op.operands[0]], env[op.operands[1]]
        out[...] = src.T
        self.stats.bump(self.context, "linalg_elements", out.size)

    def _exec_linalg_reduce(self, op, env) -> None:
        src, out = env[op.operands[0]], env[op.operands[1]]
        body = op.regions[0].blocks[0]
        element, accumulator = body.args
        env[accumulator] = out.value
        for value in src.flat:      # the order of the lowered loop nest
            env[element] = value
            _, (env[accumulator],) = self._run_nested_block(body, env)
        out.value = env[accumulator]
        self.stats.bump(self.context, "linalg_elements", src.size)

    # -- calls ---------------------------------------------------------------------------------
    def _exec_func_call(self, op, env) -> None:
        callee = op.get_attr("callee").root
        args = [env[v] for v in op.operands]
        results = self.call(callee, args)
        for res, val in zip(op.results, results or []):
            env[res] = val

    _exec_fir_call = _exec_func_call

    def _runtime_call(self, name: str, args: List, result_types) -> List:
        """Calls that do not resolve to a function in the module: Fortran
        runtime entry points."""
        self.stats.runtime_calls[name] += 1
        self.stats.bump(self.context, "runtime_call")
        if name == "_FortranAStopStatement":
            # semantics admits a STOP only where the program ends anyway
            return []
        if name in flang_runtime.IO_SYMBOLS or name.startswith("_FortranAio"):
            self.printed.append(" ".join(str(self._unbox(a)) for a in args))
            return []
        if name == "_FortranAAssign":
            value, target = args[0], args[1]
            target_storage = self._unbox(target)
            if isinstance(target_storage, FortranArray):
                source = self._unbox(value)
                if isinstance(source, FortranArray):
                    target_storage.data[:] = source.data
                elif isinstance(source, np.ndarray):
                    target_storage.data[:] = source.reshape(-1, order="F")
                else:
                    target_storage.data[:] = source
                self.stats.bump(self.context, "runtime_elem", target_storage.size)
            elif isinstance(target, Cell):
                target.value = value
            return []
        if name == "_FortranASectionView":
            base = self._unbox(args[0])
            arr = as_ndarray(base)
            trip = [int(a) for a in args[1:]]
            slices = tuple(slice(trip[i] - 1, trip[i + 1], trip[i + 2])
                           for i in range(0, len(trip), 3))
            return [arr[slices]]
        intrinsic = flang_runtime.SYMBOL_TO_INTRINSIC.get(name)
        if intrinsic is not None:
            arrays = [as_ndarray(self._unbox(a)) for a in args]
            result = flang_runtime.IMPLEMENTATIONS[intrinsic](*arrays)
            elements = max(a.size for a in arrays) if arrays else 0
            if intrinsic == "matmul":
                elements = arrays[0].shape[0] * arrays[0].shape[1] * arrays[1].shape[-1]
            self.stats.runtime_elements[intrinsic] += elements
            self.stats.bump(self.context, "runtime_elem", elements)
            return [result]
        return []


def _new_storage(t, extents: Sequence = ()):
    """Zeroed storage for a FIR in-memory type: an array, a record (a
    :class:`Cell` holding one storage per member) or a scalar cell."""
    if isinstance(t, fir_d.SequenceType):
        dynamic = iter(extents)
        return FortranArray([int(next(dynamic)) if d == ir_types.DYNAMIC else d
                             for d in t.shape],
                            numpy_dtype_for(t.element_type))
    if isinstance(t, fir_d.RecordType):
        return Cell({name: _new_storage(member) for name, member in t.members})
    return Cell(0)


class _FunctionReturn(Exception):
    def __init__(self, values):
        super().__init__("return")
        self.values = values


# ---------------------------------------------------------------------------
# Thunk makers: (interpreter, op) -> fn(env), with everything static resolved
# at block-compile time (operands, results, attributes, stats category).
# ---------------------------------------------------------------------------

def _mk_constant(interp, op):
    res = op.results[0]
    value = op.get_attr("value").value

    def run(env):
        env[res] = value
    return run


@lru_cache(maxsize=None)
def _value_thunk_factory(arity: int, template: Optional[str], guarded: bool,
                         probe: Optional[str],
                         vector_category: Optional[str]) -> Callable:
    """``make(interp, stats, fn, scalar_cat, res, *operands) -> run(env)``
    for one row shape: arity, template (with its guard) and stats rule.

    The thunk is generated source so that a template row runs its operator
    inline, as a hand-written closure would, while every other row calls
    its kernel; one factory is built per distinct shape."""
    names = ("a", "b", "c")[:arity]
    reads = [f"env[{name}]" for name in names]
    body = []
    if probe == "operand":
        body.append("probed = env[a]")
        reads[0] = "probed"
    call = f"fn({', '.join(reads)})"
    expr = template.format(*reads) if template else call
    target = "env[res] = probed" if probe == "result" else "env[res]"
    if guarded:
        body += ["try:", f"    {target} = {expr}",
                 "except ArithmeticError:", f"    {target} = {call}"]
    else:
        body.append(f"{target} = {expr}")
    if probe is None:
        body.append("interp._ctx_counts[scalar_cat] += 1.0")
    else:
        body += ["if isinstance(probed, ndarray) and probed.size > 1:",
                 f"    interp._ctx_counts[{vector_category!r}] += 1.0",
                 "else:",
                 "    interp._ctx_counts[scalar_cat] += 1.0"]
    body.append("stats.total_ops += 1")
    source = (f"def make(interp, stats, fn, scalar_cat, res, "
              f"{', '.join(names)}):\n    def run(env):\n"
              + "".join(f"        {line}\n" for line in body)
              + "    return run\n")
    namespace = {"ndarray": np.ndarray}
    exec(compile(source, "<value-op thunk>", "exec"), namespace)
    return namespace["make"]


def _mk_value_op(interp, op):
    """Any row of ``semantics.VALUE_OPS``."""
    row = VALUE_OPS[op.name]
    make = _value_thunk_factory(row.arity, row.template, row.guarded,
                                row.probe, row.vector_category)
    return make(interp, interp.stats, row.bind(op), row.scalar_category(op),
                op.results[0], *op.operands)


def _mk_fir_convert(interp, op):
    a = op.operands[0]
    res = op.results[0]
    target = res.type
    stats = interp.stats
    if isinstance(target, ir_types.FloatType):
        convert = float
    elif isinstance(target, (ir_types.IntegerType, ir_types.IndexType)):
        convert = int
    else:
        convert = None

    def run(env):
        value = env[a]
        if isinstance(value, (Cell, FortranArray, ElementPtr, np.ndarray)):
            env[res] = value
        elif convert is not None:
            env[res] = convert(value)
        else:
            env[res] = value
        interp._ctx_counts["cast"] += 1.0
        stats.total_ops += 1
    return run


def _mk_fir_load(interp, op):
    src = op.operands[0]
    res = op.results[0]
    stats = interp.stats

    def run(env):
        source = env[src]
        interp._ctx_counts["load"] += 1.0
        stats.total_ops += 1
        t = type(source)
        if t is Cell:
            env[res] = source.value
        elif t is ElementPtr:
            env[res] = source.load()
        else:
            env[res] = source
    return run


def _mk_fir_store(interp, op):
    val, dst = op.operands[0], op.operands[1]
    stats = interp.stats

    def run(env):
        dest = env[dst]
        interp._ctx_counts["store"] += 1.0
        stats.total_ops += 1
        t = type(dest)
        if t is Cell:
            dest.value = env[val]
        elif t is ElementPtr:
            dest.store(env[val])
        else:
            raise InterpreterError(
                "fir.store destination is not a storage location")
    return run


def _mk_memref_load(interp, op):
    mem = op.operands[0]
    index_vals = op.operands[1:]
    res = op.results[0]
    stats = interp.stats
    if len(index_vals) == 1:
        i0 = index_vals[0]

        def run(env):
            memref_value = env[mem]
            interp._ctx_counts["load"] += 1.0
            stats.total_ops += 1
            if type(memref_value) is Cell:
                env[res] = memref_value.value
            else:
                env[res] = memref_value[int(env[i0])]
        return run
    if len(index_vals) == 2:
        i0, i1 = index_vals

        def run(env):
            memref_value = env[mem]
            interp._ctx_counts["load"] += 1.0
            stats.total_ops += 1
            if type(memref_value) is Cell:
                env[res] = memref_value.value
            else:
                env[res] = memref_value[int(env[i0]), int(env[i1])]
        return run

    def run(env):
        memref_value = env[mem]
        interp._ctx_counts["load"] += 1.0
        stats.total_ops += 1
        if type(memref_value) is Cell:
            env[res] = memref_value.value
        elif index_vals:
            env[res] = memref_value[tuple(int(env[v]) for v in index_vals)]
        else:
            env[res] = memref_value[()]
    return run


def _mk_memref_store(interp, op):
    val, mem = op.operands[0], op.operands[1]
    index_vals = op.operands[2:]
    stats = interp.stats
    if len(index_vals) == 1:
        i0 = index_vals[0]

        def run(env):
            memref_value = env[mem]
            interp._ctx_counts["store"] += 1.0
            stats.total_ops += 1
            if type(memref_value) is Cell:
                memref_value.value = env[val]
            else:
                memref_value[int(env[i0])] = env[val]
        return run
    if len(index_vals) == 2:
        i0, i1 = index_vals

        def run(env):
            memref_value = env[mem]
            interp._ctx_counts["store"] += 1.0
            stats.total_ops += 1
            if type(memref_value) is Cell:
                memref_value.value = env[val]
            else:
                memref_value[int(env[i0]), int(env[i1])] = env[val]
        return run

    def run(env):
        memref_value = env[mem]
        interp._ctx_counts["store"] += 1.0
        stats.total_ops += 1
        if type(memref_value) is Cell:
            memref_value.value = env[val]
        else:
            memref_value[tuple(int(env[v]) for v in index_vals)
                         if index_vals else ()] = env[val]
    return run


def _mk_llvm_load(interp, op):
    src = op.operands[0]
    res = op.results[0]
    stats = interp.stats

    def run(env):
        source = env[src]
        env[res] = source.value if type(source) is Cell else source
        interp._ctx_counts["load"] += 1.0
        stats.total_ops += 1
    return run


def _mk_llvm_store(interp, op):
    val, dst = op.operands[0], op.operands[1]
    stats = interp.stats

    def run(env):
        dest = env[dst]
        if type(dest) is Cell:
            dest.value = env[val]
        interp._ctx_counts["store"] += 1.0
        stats.total_ops += 1
    return run


def _map_indexer(amap, index_vals):
    """``fn(env) -> subscript tuple`` for a mapped access, specialised on
    the map's compiled form and the operand count."""
    if amap is None or not amap.results:
        return lambda env: tuple(int(env[v]) for v in index_vals)
    form = amap.compiled()
    if form.constants is not None:
        constants = form.constants
        return lambda env: constants
    call = form.call
    if len(index_vals) == 1:
        i0, = index_vals
        return lambda env: call(int(env[i0]))
    if len(index_vals) == 2:
        i0, i1 = index_vals
        return lambda env: call(int(env[i0]), int(env[i1]))
    return lambda env: call(*[int(env[v]) for v in index_vals])


def _mk_affine_load(interp, op):
    amap = op.get_attr("map")
    if amap.compiled().identity:
        return _mk_memref_load(interp, op)      # same operands, same category
    mem = op.operands[0]
    index_of = _map_indexer(amap, op.operands[1:])
    res = op.results[0]
    stats = interp.stats

    def run(env):
        memref_value = env[mem]
        indices = index_of(env)
        interp._ctx_counts["load"] += 1.0
        stats.total_ops += 1
        if type(memref_value) is Cell:
            env[res] = memref_value.value
        else:
            env[res] = memref_value[indices]
    return run


def _mk_affine_store(interp, op):
    amap = op.get_attr("map")
    if amap.compiled().identity:
        return _mk_memref_store(interp, op)     # same operands, same category
    val, mem = op.operands[0], op.operands[1]
    index_of = _map_indexer(amap, op.operands[2:])
    stats = interp.stats

    def run(env):
        memref_value = env[mem]
        indices = index_of(env)
        interp._ctx_counts["store"] += 1.0
        stats.total_ops += 1
        if type(memref_value) is Cell:
            memref_value.value = env[val]
        else:
            memref_value[indices] = env[val]
    return run


def _affine_bound(amap, operand_vals):
    """``fn(env) -> int`` for one ``affine.for`` bound."""
    form = amap.compiled()
    if form.constants is not None:
        value = form.constants[0]
        return lambda env: value
    scalar = form.scalar
    return lambda env: scalar(*[int(env[v]) for v in operand_vals])


def _mk_affine_for(interp, op):
    lower_of = _affine_bound(op.lower_bound_map, op.lower_operands)
    upper_of = _affine_bound(op.upper_bound_map, op.upper_operands)
    step = op.step_value
    init_vals = op.iter_args
    body = op.regions[0].blocks[0]
    iv_arg = body.args[0]
    carried_args = body.args[1:]
    results = op.results
    stats = interp.stats
    run_nested = interp._run_nested_block

    def run(env):
        iv = lower_of(env)
        upper = upper_of(env)
        iter_values = [env[v] for v in init_vals]
        counts = interp._ctx_counts
        while iv < upper:
            counts["loop_iter"] += 1.0
            stats.total_ops += 1
            env[iv_arg] = iv
            for arg, val in zip(carried_args, iter_values):
                env[arg] = val
            _, yielded = run_nested(body, env)
            if yielded:
                iter_values = yielded
            iv += step
        for res, val in zip(results, iter_values):
            env[res] = val
    return run


def _mk_vector_load(interp, op):
    mem = op.operands[0]
    index_of = _map_indexer(op.get_attr("map"), op.operands[1:])
    width = op.results[0].type.shape[0]
    res = op.results[0]
    stats = interp.stats

    def run(env):
        env[res] = vector_load(env[mem], index_of(env), width)
        interp._ctx_counts["vector_load"] += 1.0
        stats.total_ops += 1
    return run


def _mk_vector_store(interp, op):
    val, mem = op.operands[0], op.operands[1]
    index_of = _map_indexer(op.get_attr("map"), op.operands[2:])
    stats = interp.stats

    def run(env):
        value = env[val]
        vector_store(env[mem], index_of(env), value)
        interp._ctx_counts["vector_store"] += 1.0
        stats.total_ops += 1
    return run


def _mk_vector_broadcast(interp, op):
    a = op.operands[0]
    res = op.results[0]
    width = res.type.shape[0]
    stats = interp.stats

    def run(env):
        env[res] = vector_broadcast(env[a], width)
        interp._ctx_counts["vector_int"] += 1.0
        stats.total_ops += 1
    return run


def _mk_vector_reduction(interp, op):
    a = op.operands[0]
    res = op.results[0]
    kind = op.get_attr("kind").value
    stats = interp.stats

    def run(env):
        # looked up per run: an unsupported kind raises where the
        # reference engine raises, when the op executes
        env[res] = float(VECTOR_REDUCTIONS[kind](env[a]))
        interp._ctx_counts["vector_reduce"] += 1.0
        stats.total_ops += 1
    return run


_THUNK_MAKERS: Dict[str, Callable] = {"arith.constant": _mk_constant,
                                      "fir.convert": _mk_fir_convert,
                                      "fir.load": _mk_fir_load,
                                      "fir.store": _mk_fir_store,
                                      "memref.load": _mk_memref_load,
                                      "memref.store": _mk_memref_store,
                                      "llvm.load": _mk_llvm_load,
                                      "llvm.store": _mk_llvm_store,
                                      "affine.load": _mk_affine_load,
                                      "affine.store": _mk_affine_store,
                                      "affine.for": _mk_affine_for,
                                      "vector.load": _mk_vector_load,
                                      "vector.store": _mk_vector_store,
                                      "vector.broadcast": _mk_vector_broadcast,
                                      "vector.reduction": _mk_vector_reduction}
_THUNK_MAKERS.update(dict.fromkeys(VALUE_OPS, _mk_value_op))
__all__ = ["ENGINE_NAMES", "Interpreter", "ExecutionStats", "InterpreterError",
           "ExecutionLimitExceeded"]
