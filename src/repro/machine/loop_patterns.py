"""Static analysis of structured loop nests for the ``vector`` engine.

:func:`match_nest` inspects an ``scf.for`` / ``affine.for`` /
``fir.do_loop`` operation and, when every operation in the (possibly
nested) loop bodies is pure element-wise / addressing dataflow the
whole-array evaluator understands, produces a :class:`NestPlan`:

* a flattened, program-order list of steps (``enter loop`` / ``body op``
  / ``exit loop``), each tagged with the loop that directly contains it, and
* per-loop statistics footprints — how many bumps of which
  :class:`~repro.machine.interpreter.ExecutionStats` category one
  iteration of that loop contributes — so the engine can synthesize the
  exact counters the iterative engines would have produced from the trip
  counts alone.

A loop that carries values (``iter_args``) declines: no pass produces one
from Fortran, and a float accumulator could not be batched anyway
(numpy's pairwise summation is not the sequential sum).

Everything here is static — no environment access, no numpy.  A matched
plan can still abort at run time (zero trips, runtime-varying bounds,
aliasing stores); the engine then falls back to the iterative handler
for that one nest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import types as ir_types
from ..ir.core import Operation, Value
from .interpreter import _YIELD_OPS
from .semantics import VALUE_OPS

#: Loop operations the matcher roots and nests on.
LOOP_OPS = frozenset({"scf.for", "affine.for", "fir.do_loop"})

_LOAD_OPS = frozenset({"fir.load", "memref.load", "affine.load"})
_STORE_OPS = frozenset({"fir.store", "memref.store", "affine.store"})
_BOX_OPS = frozenset({"fir.box_addr", "fir.box_dims"})
#: Body operations whose subscripts go through an affine map attribute.
_MAPPED_OPS = frozenset({"affine.load", "affine.store"})

_SCALAR_TYPES = (ir_types.FloatType, ir_types.IntegerType,
                 ir_types.IndexType)

#: Static per-entry work (trip-counted op executions) below which
#: whole-array evaluation loses to the iterative thunks: one nest
#: evaluation pays a fixed planning + array-materialization overhead that
#: only amortizes over enough element operations.  Nests with runtime
#: bounds estimate to ``None`` and are assumed hot.
VECTOR_WORK_FLOOR = 2048


def _is_scalar_type(t) -> bool:
    return isinstance(t, _SCALAR_TYPES)


def static_constant(value: Value):
    """The Python value of ``value`` when defined by ``arith.constant``."""
    op = getattr(value, "op", None)
    if op is not None and op.name == "arith.constant":
        return op.get_attr("value").value
    return None


def static_trip_count(op: Operation) -> Optional[int]:
    """Trip count of a loop whose bounds fold at compile time, else None."""
    if op.name == "affine.for":
        if op.lower_operands or op.upper_operands:
            return None
        lo = op.lower_bound_map.compiled().constants
        hi = op.upper_bound_map.compiled().constants
        st = op.step_value
        if lo is None or hi is None or st <= 0:
            return None
        lo, hi = lo[0], hi[0]
        return max(0, -((lo - hi) // st))
    lo = static_constant(op.operands[0])
    hi = static_constant(op.operands[1])
    st = static_constant(op.operands[2])
    if lo is None or hi is None or st is None:
        return None
    if op.name == "scf.for":
        if st <= 0:
            return None
        return max(0, -((lo - hi) // st))
    st = st if st != 0 else 1        # fir.do_loop: inclusive, step 0 -> 1
    if st > 0:
        return (hi - lo) // st + 1 if lo <= hi else 0
    return (lo - hi) // (-st) + 1 if lo >= hi else 0


def estimated_nest_work(op: Operation) -> Optional[int]:
    """Rough op executions one run of nest ``op`` performs; ``None`` =
    unknown (some bound only resolves at run time — assume hot)."""
    trips = static_trip_count(op)
    if trips is None:
        return None
    if not op.regions or len(op.regions[0].blocks) != 1:
        return None
    per_iteration = 1
    for body_op in op.regions[0].blocks[0].ops:
        if body_op.name in LOOP_OPS:
            inner = estimated_nest_work(body_op)
            if inner is None:
                return None
            per_iteration += inner
        else:
            per_iteration += 1
    return trips * per_iteration


def stats_category(op: Operation) -> Optional[str]:
    """The ExecutionStats category one execution of ``op`` bumps.

    The *scalar* category: matched nest bodies are scalar-typed by
    construction, so the runtime ndarray branch of a value op's stats
    rule never applies.  ``None`` means the op binds a value without
    bumping anything.
    """
    name = op.name
    row = VALUE_OPS.get(name)
    if row is not None:
        return row.scalar_category(op)
    if name == "arith.constant":
        return None
    if name == "fir.convert":
        return "cast"
    if name in _LOAD_OPS or name in _BOX_OPS:
        return "load"
    if name in _STORE_OPS:
        return "store"
    if name == "fir.coordinate_of":
        return "index_arith"
    raise AssertionError(f"unclassified nest op {name}")


class LoopInfo:
    """One loop of a matched nest."""

    __slots__ = ("op", "kind", "depth", "parent", "body", "bounds")

    def __init__(self, op: Operation, kind: str, depth: int, parent: int):
        self.op = op
        self.kind = kind          # "scf" | "affine" | "fir"
        self.depth = depth        # number of enclosing nest loops
        self.parent = parent      # index of enclosing loop, -1 for root
        self.body = op.regions[0].blocks[0]
        #: compiled (lower, upper) bound maps of an ``affine.for``
        self.bounds = (op.lower_bound_map.compiled(),
                       op.upper_bound_map.compiled()) \
            if kind == "affine" else None


class NestPlan:
    """Static evaluation plan for one matched loop nest.

    ``steps`` entries are ``("loop", index)``, ``("end", index)`` or
    ``("op", operation, depth, owner_loop_index)`` in program order.
    ``cat_counts[i]`` / ``tops[i]`` are the per-iteration stats footprint
    of loop ``i`` (categories bumped, total_ops increments) covering the
    loop's own ``loop_iter`` tick and every body op directly inside it.
    ``maps[op]`` is the compiled affine map of every body op carrying one.
    """

    __slots__ = ("root", "loops", "steps", "cat_counts", "tops", "maps")

    def __init__(self, root: Operation):
        self.root = root
        self.loops: List[LoopInfo] = []
        self.steps: List[Tuple] = []
        self.maps: Dict[Operation, object] = {}
        self.cat_counts: List[Dict[str, int]] = []
        self.tops: List[int] = []


def _loop_kind(name: str) -> str:
    return {"scf.for": "scf", "affine.for": "affine",
            "fir.do_loop": "fir"}[name]


def _supported_body_op(op: Operation) -> bool:
    """Per-op admission check (loop ops handled by the caller)."""
    name = op.name
    if op.regions or op.successors:
        return False
    if name in ("arith.constant", "fir.convert"):
        return True
    if name in _LOAD_OPS or name in _STORE_OPS or name in _BOX_OPS:
        return True
    if name == "fir.coordinate_of":
        return op.get_attr("field") is None and len(op.operands) <= 2
    if name in VALUE_OPS:
        # pure scalar dataflow only: vector-typed (e.g. vector<4xf64>)
        # operands/results would make the per-op runtime stats category
        # diverge from the static synthesis, so they decline the nest
        return all(_is_scalar_type(v.type) for v in op.operands) \
            and all(_is_scalar_type(r.type) for r in op.results)
    return False


def _walk(plan: NestPlan, loop_op: Operation, depth: int,
          parent: int) -> bool:
    """Admit ``loop_op`` and its body into the plan; False declines all."""
    region = loop_op.regions[0] if loop_op.regions else None
    if region is None or len(region.blocks) != 1:
        return False
    if loop_op.name != "affine.for" and len(loop_op.operands) < 3:
        return False
    info = LoopInfo(loop_op, _loop_kind(loop_op.name), depth, parent)
    index = len(plan.loops)
    plan.loops.append(info)
    plan.cat_counts.append({"loop_iter": 1})
    plan.tops.append(1)
    plan.steps.append(("loop", index))

    body = info.body
    ops = list(body.ops)
    if not ops:
        return False
    terminator = ops[-1]
    if terminator.name not in _YIELD_OPS:
        return False
    if len(body.args) != 1 or terminator.operands:
        return False    # loop-carried values (no pass makes one): iterate

    for op in ops[:-1]:
        if op.name in LOOP_OPS:
            if not _walk(plan, op, depth + 1, index):
                return False
            continue
        if not _supported_body_op(op):
            return False
        category = stats_category(op)
        if category is not None:
            plan.cat_counts[index][category] = \
                plan.cat_counts[index].get(category, 0) + 1
            plan.tops[index] += 1
        plan.steps.append(("op", op, depth + 1, index))
        if op.name in _MAPPED_OPS:
            plan.maps[op] = op.get_attr("map").compiled()
    plan.steps.append(("end", index))
    return True


def match_nest(loop_op: Operation) -> Optional[NestPlan]:
    """A :class:`NestPlan` when the nest is statically admissible, else
    ``None`` (the caller keeps the iterative handler for the op)."""
    if loop_op.name not in LOOP_OPS:
        return None
    plan = NestPlan(loop_op)
    if not _walk(plan, loop_op, 0, -1):
        return None
    return plan


__all__ = ["LOOP_OPS", "VECTOR_WORK_FLOOR", "LoopInfo", "NestPlan",
           "match_nest", "stats_category", "static_constant",
           "static_trip_count", "estimated_nest_work"]
