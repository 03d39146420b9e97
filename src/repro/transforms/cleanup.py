"""Generic cleanup passes: canonicalisation, CSE, LICM, FMA uplifting and
scalar store forwarding.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..dialects import arith, math as math_d
from ..ir import types as ir_types
from ..machine.semantics import VALUE_OPS
from ..ir.attributes import FloatAttr, IntegerAttr
from ..ir.core import Block, Operation, Value
from ..ir.pass_manager import FunctionPass, Pass, register_pass
from ..ir.traits import CONSTANT_LIKE, LOOP_LIKE, PURE, READ_ONLY


def _constant_of(value: Value):
    op = getattr(value, "op", None)
    if op is not None and op.name == "arith.constant":
        return op.get_attr("value").value
    return None


def _is_pure(op: Operation) -> bool:
    return (op.has_trait(PURE) or op.has_trait(CONSTANT_LIKE)) and not op.regions


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------


@register_pass
class CanonicalizePass(Pass):
    """Constant folding, algebraic simplification and dead-code elimination.

    Driven by a **worklist**: every op is seeded once (in walk order), and a
    successful fold re-enqueues only the users of the folded op's results
    and its parent — instead of re-walking the whole module per fixpoint
    iteration, which dominated pass-pipeline wall time on conformance
    sweeps.  Dead-code elimination runs the same way: erasing an op
    re-enqueues only its operands' producers.  The historical full-rewalk
    driver is kept as ``STRATEGY = "rewalk"`` purely as the differential
    reference — both strategies produce identical IR (asserted across every
    registered flow by ``tests/transforms/test_canonicalize_worklist.py``).
    """

    NAME = "canonicalize"

    #: "worklist" (production) or "rewalk" (reference implementation)
    STRATEGY = "worklist"

    def run(self, module: Operation) -> None:
        if self.STRATEGY == "rewalk":
            self._run_rewalk(module)
            return
        from collections import deque

        # fold to a fixpoint: seed every op once, re-enqueue only affected ops
        worklist = deque(module.walk())
        queued = set(worklist)
        while worklist:
            op = worklist.popleft()
            queued.discard(op)
            if op.parent is None and op is not module:
                continue  # erased by an earlier fold
            parent = op.parent
            affected = self._fold(op)
            if affected is not None:
                for user in affected:
                    if user not in queued:
                        queued.add(user)
                        worklist.append(user)
                parent_op = parent.parent.parent if parent is not None \
                    and parent.parent is not None else None
                if parent_op is not None and parent_op not in queued:
                    queued.add(parent_op)
                    worklist.append(parent_op)
        self._dce_worklist(module)

    def _run_rewalk(self, module: Operation) -> None:
        """Reference driver: full module re-walk per fixpoint iteration."""
        changed = True
        iterations = 0
        while changed and iterations < 8:
            changed = False
            iterations += 1
            for op in list(module.walk()):
                if op.parent is None:
                    continue
                if self._fold(op) is not None:
                    changed = True
            changed |= self._dce(module) > 0

    def _dce_worklist(self, module: Operation) -> int:
        """Worklist DCE: erasing an op re-enqueues its operands' producers."""
        from collections import deque

        removed = 0
        worklist = deque(module.walk_postorder())
        queued = set(worklist)
        while worklist:
            op = worklist.popleft()
            queued.discard(op)
            if op.parent is None or op is module:
                continue
            if _is_pure(op) and op.results and \
                    all(r.num_uses == 0 for r in op.results):
                producers = [getattr(operand, "op", None)
                             for operand in op.operands]
                op.erase(check_uses=False)
                removed += 1
                for producer in producers:
                    if producer is not None and producer not in queued:
                        queued.add(producer)
                        worklist.append(producer)
        return removed

    @staticmethod
    def _users_of(op: Operation) -> List[Operation]:
        """The ops consuming ``op``'s results — the fold's affected set,
        captured immediately before the use lists are rewritten."""
        return [use.operation for result in op.results
                for use in result.uses]

    def _forward(self, op: Operation, value: Value) -> List[Operation]:
        """Replace single-result ``op`` by ``value``; returns the affected
        ops."""
        affected = self._users_of(op)
        op.replace_all_uses_with([value])
        op.erase(check_uses=False)
        return affected

    def _fold(self, op: Operation) -> Optional[List[Operation]]:
        """Try to fold ``op``; returns the affected ops (users captured
        before the rewrite) when a fold fired, None otherwise."""
        name = op.name
        if name == "arith.index_cast":
            src = op.operands[0]
            if src.type == op.results[0].type:
                return self._forward(op, src)
            inner = getattr(src, "op", None)
            if inner is not None and inner.name == "arith.index_cast" and \
                    inner.operands[0].type == op.results[0].type:
                return self._forward(op, inner.operands[0])
        row = VALUE_OPS.get(name)
        if row is not None and row.foldable:
            # evaluated through the kernel every engine executes, so a
            # folded constant can never diverge from an interpreted result
            constants = [_constant_of(operand) for operand in op.operands]
            result_type = op.results[0].type
            if None not in constants and \
                    not isinstance(result_type, ir_types.VectorType):
                value = row.bind(op)(*constants)
                # native int/float, so the constant prints as it always has;
                # inf/nan stay ops: they have no literal the parser reads back
                is_float = isinstance(result_type, ir_types.FloatType)
                value = float(value) if is_float else int(value)
                if not is_float or math.isfinite(value):
                    const = arith.ConstantOp(value, result_type)
                    op.parent.insert_before(op, const)
                    return self._forward(op, const.result)
            if row.right_identity is not None and \
                    constants[1] == row.right_identity:
                return self._forward(op, op.operands[0])
        if name == "arith.select":
            cond = _constant_of(op.operands[0])
            if cond is not None:
                return self._forward(op, op.operands[1] if cond
                                     else op.operands[2])
        if name == "scf.if":
            cond = _constant_of(op.operands[0])
            if cond is not None and not op.results:
                block = op.regions[0].blocks[0] if cond else (
                    op.regions[1].blocks[0] if op.regions[1].blocks else None)
                affected: List[Operation] = []
                if block is not None:
                    terminator = block.terminator
                    if terminator is not None:
                        terminator.erase(check_uses=False)
                    for inner in list(block.ops):
                        inner.detach()
                        op.parent.insert_before(op, inner)
                        affected.append(inner)
                op.erase(check_uses=False)
                return affected
        return None

    def _dce(self, module: Operation) -> int:
        removed = 0
        changed = True
        while changed:
            changed = False
            for op in list(module.walk_postorder()):
                if op.parent is None or op is module:
                    continue
                if _is_pure(op) and op.results and \
                        all(r.num_uses == 0 for r in op.results):
                    op.erase(check_uses=False)
                    removed += 1
                    changed = True
        return removed


# ---------------------------------------------------------------------------
# cse
# ---------------------------------------------------------------------------


@register_pass
class CSEPass(Pass):
    """Common-subexpression elimination of pure ops within each block."""

    NAME = "cse"

    def run(self, module: Operation) -> None:
        for op in module.walk():
            for region in op.regions:
                for block in region.blocks:
                    self._run_on_block(block)

    @staticmethod
    def _op_key(op: Operation) -> Optional[Tuple]:
        if not _is_pure(op) or not op.results:
            return None
        attrs = tuple(sorted((k, repr(v)) for k, v in op.attributes.items()))
        return (op.name, tuple(id(o) for o in op.operands), attrs)

    def _run_on_block(self, block: Block) -> None:
        seen: Dict[Tuple, Operation] = {}
        for op in list(block.ops):
            key = self._op_key(op)
            if key is None:
                continue
            if key in seen:
                op.replace_all_uses_with(list(seen[key].results))
                op.erase(check_uses=False)
            else:
                seen[key] = op


# ---------------------------------------------------------------------------
# loop-invariant code motion
# ---------------------------------------------------------------------------


@register_pass
class LoopInvariantCodeMotionPass(Pass):
    NAME = "loop-invariant-code-motion"

    _LOOPS = ("scf.for", "scf.while", "scf.parallel", "affine.for")

    def run(self, module: Operation) -> None:
        changed = True
        while changed:
            changed = False
            for loop in list(module.walk()):
                if loop.name not in self._LOOPS or loop.parent is None:
                    continue
                changed |= self._hoist_from(loop)

    def _hoist_from(self, loop: Operation) -> bool:
        changed = False
        body_blocks = [b for r in loop.regions for b in r.blocks]
        for block in body_blocks:
            for op in list(block.ops):
                if not _is_pure(op) or not op.results:
                    continue
                if any(self._defined_inside(operand, loop) for operand in op.operands):
                    continue
                op.detach()
                loop.parent.insert_before(loop, op)
                changed = True
        return changed

    @staticmethod
    def _defined_inside(value: Value, loop: Operation) -> bool:
        owner = value.owner
        if isinstance(owner, Block):
            block = owner
        else:
            block = owner.parent
        while block is not None:
            parent_op = block.parent_op()
            if parent_op is loop:
                return True
            if parent_op is None:
                return False
            block = parent_op.parent
        return False


# ---------------------------------------------------------------------------
# math-uplift-to-fma
# ---------------------------------------------------------------------------


@register_pass
class MathUpliftToFMAPass(Pass):
    """Fuse ``arith.mulf`` + ``arith.addf`` into ``math.fma``."""

    NAME = "math-uplift-to-fma"

    def run(self, module: Operation) -> None:
        for op in list(module.walk()):
            if op.name != arith.AddFOp.OP_NAME or op.parent is None:
                continue
            for idx, operand in enumerate(op.operands):
                mul = getattr(operand, "op", None)
                if mul is not None and mul.name == arith.MulFOp.OP_NAME and \
                        operand.has_one_use() and mul.parent is op.parent:
                    other = op.operands[1 - idx]
                    fma = math_d.FmaOp(mul.operands[0], mul.operands[1], other)
                    op.parent.insert_before(op, fma)
                    op.replace_all_uses_with([fma.result])
                    op.erase(check_uses=False)
                    mul.erase(check_uses=False)
                    break


__all__ = [
    "CanonicalizePass", "CSEPass", "LoopInvariantCodeMotionPass",
    "MathUpliftToFMAPass",
]


@register_pass
class ForwardScalarStoresPass(Pass):
    """Block-local store-to-load forwarding for rank-0 memrefs.

    Flang materialises the loop index into the Fortran iteration variable at
    the top of every loop body; without forwarding that value back into the
    subscript computations the affine promotion/vectorisation passes cannot
    see the induction variable (mirrors LLVM's mem2reg behaviour).
    """

    NAME = "forward-scalar-stores"

    def run(self, module: Operation) -> None:
        from ..ir import types as ir_types
        for op in module.walk():
            for region in op.regions:
                for block in region.blocks:
                    self._run_on_block(block)
        self._eliminate_dead_scalar_stores(module)

    def _eliminate_dead_scalar_stores(self, module: Operation) -> None:
        """Remove stores to rank-0 stack scalars that are never read again
        (typically the per-iteration store of the loop index into the Fortran
        iteration variable once forwarding has removed all its loads)."""
        for op in list(module.walk()):
            if op.name != "memref.alloca" or not op.results:
                continue
            value = op.results[0]
            if not self._is_rank0(value):
                continue
            users = value.users()
            if any(u.name not in ("memref.store", "memref.load") for u in users):
                continue
            if any(u.name == "memref.load" for u in users):
                continue
            if any(u.name == "memref.store" and u.operands[1] is not value
                   for u in users):
                continue
            for user in users:
                user.erase(check_uses=False)
            op.erase(check_uses=False)

    @staticmethod
    def _is_rank0(value: Value) -> bool:
        from ..ir import types as ir_types
        return isinstance(value.type, ir_types.MemRefType) and value.type.rank == 0 \
            and not isinstance(value.type.element_type, ir_types.MemRefType)

    def _run_on_block(self, block: Block) -> None:
        known: Dict[int, Value] = {}
        for op in list(block.ops):
            if op.name == "memref.store" and self._is_rank0(op.operands[1]):
                known[id(op.operands[1])] = op.operands[0]
                continue
            if op.name == "memref.load" and self._is_rank0(op.operands[0]):
                value = known.get(id(op.operands[0]))
                if value is not None and value.type == op.results[0].type:
                    op.replace_all_uses_with([value])
                    op.erase(check_uses=False)
                continue
            if op.name in ("memref.store", "affine.store", "vector.store"):
                # a store to a rank>0 memref cannot alias a rank-0 stack scalar
                continue
            # calls may write scalars passed by reference; region-bearing ops
            # may contain further stores; any other memory-writing op (linalg
            # outs, hlfir.assign, ...) may update the cell — all invalidate
            # the tracked values
            from ..ir.traits import WRITES_MEMORY
            if op.regions or op.has_trait(WRITES_MEMORY) or \
                    op.name.endswith(".call") or op.dialect in ("linalg", "hlfir"):
                known.clear()


__all__.append("ForwardScalarStoresPass")
