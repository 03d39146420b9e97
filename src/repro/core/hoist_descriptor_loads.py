"""Hoist loads of allocatable-array containers out of loops (Section V-B).

Allocatable arrays are memref-of-memref: every element access first loads the
inner memref from its outer container.  Inside loops this dereference is
repeated every iteration even though the array is not reallocated.  This pass
finds ``memref.load`` operations of rank-0 memref-of-memref containers inside
``scf.for`` / ``scf.while`` / ``scf.parallel`` / ``affine.for`` loops and, when
the container is not written inside the loop, replaces them with a single load
hoisted above the loop — proceeding upwards through loop nests as far as
possible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir import types as ir_types
from ..ir.core import Operation, Value
from ..ir.pass_manager import FunctionPass, register_pass

LOOP_OPS = ("scf.for", "scf.while", "scf.parallel", "affine.for", "omp.wsloop",
            "acc.kernels", "omp.parallel")


def _is_container_load(op: Operation) -> bool:
    if op.name != "memref.load":
        return False
    src_type = op.operands[0].type
    return (isinstance(src_type, ir_types.MemRefType) and src_type.rank == 0
            and isinstance(src_type.element_type, ir_types.MemRefType))


def _ops_storing_to(func: Operation) -> Dict[Value, Set[Operation]]:
    """Container -> every op with a ``memref.store`` to it anywhere inside
    (the store itself included).  One sweep per function: hoisting moves
    loads, never stores, so the answer holds for the whole pass."""
    written: Dict[Value, Set[Operation]] = {}
    for op in func.walk():
        if op.name == "memref.store" and len(op.operands) >= 2:
            writers = written.setdefault(op.operands[1], set())
            writers.add(op)
            writers.update(op.ancestors())
    return written


def _enclosing_loops(op: Operation) -> List[Operation]:
    """Loops containing ``op``, innermost first."""
    loops = []
    for ancestor in op.ancestors():
        if ancestor.name in LOOP_OPS:
            loops.append(ancestor)
    return loops


def hoist_descriptor_loads(func: Operation) -> int:
    """Hoist container loads out of loops; returns the number hoisted."""
    hoisted = 0
    written = _ops_storing_to(func)
    changed = True
    while changed:
        changed = False
        for op in list(func.walk()):
            if not _is_container_load(op):
                continue
            loops = _enclosing_loops(op)
            if not loops:
                continue
            container = op.operands[0]
            writers = written.get(container, ())
            # hoist above the outermost enclosing loop in which the container
            # is not reallocated
            target_loop: Optional[Operation] = None
            for loop in loops:
                if loop in writers:
                    break
                # the container value must be defined outside this loop
                defining = getattr(container, "op", None)
                if defining is not None and loop.is_ancestor_of(defining):
                    break
                target_loop = loop
            if target_loop is None:
                continue
            op.detach()
            target_loop.parent.insert_before(target_loop, op)
            hoisted += 1
            changed = True
    # merge duplicate hoisted loads that now sit next to each other
    hoisted += _deduplicate_loads(func, written)
    return hoisted


def _deduplicate_loads(func: Operation,
                       written: Dict[Value, Set[Operation]]) -> int:
    """Within each block, a container load repeats the previous one of the
    same container unless something in between may have reallocated it (a
    store to it, nested however deep, or a call it is passed to)."""
    removed = 0
    for block in [b for op in func.walk() for r in op.regions for b in r.blocks] + \
                 [b for r in func.regions for b in r.blocks]:
        seen: Dict[Value, Operation] = {}
        for op in list(block.ops):
            if not _is_container_load(op):
                for container in [c for c in seen if c in op.operands
                                  or op in written.get(c, ())]:
                    del seen[container]
                continue
            container = op.operands[0]
            if container in seen:
                op.replace_all_uses_with([seen[container].results[0]])
                op.erase(check_uses=False)
                removed += 1
            else:
                seen[container] = op
    return removed


@register_pass
class HoistDescriptorLoadsPass(FunctionPass):
    """``hoist-allocatable-loads``: the paper's outer-memref hoisting pass."""

    NAME = "hoist-allocatable-loads"

    def run_on_function(self, func: Operation) -> None:
        hoist_descriptor_loads(func)


__all__ = ["hoist_descriptor_loads", "HoistDescriptorLoadsPass"]
