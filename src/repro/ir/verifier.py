"""Structural IR verifier.

Checks the well-formedness rules the rest of the infrastructure relies on:

* parent/child links between operations, blocks and regions are consistent;
* every operand is defined before use (same block) or in a dominating scope;
* blocks with multiple operations end in a terminator when they have
  successors;
* def-use chains are consistent (each operand registers exactly one use);
* a ``func.func`` is never nested inside another function's body;
* op-specific ``verify_`` hooks pass.
"""

from __future__ import annotations

from typing import List, Set

from .core import Block, BlockArgument, IRError, Operation, OpResult, Value


class VerificationError(IRError):
    """Raised when the IR violates a structural invariant."""


def verify_operation(op: Operation, *, allow_unregistered: bool = True) -> None:
    """Verify ``op`` and everything nested inside it."""
    _verify_rec(op, toplevel=True)


def _verify_rec(op: Operation, toplevel: bool = False) -> None:
    # def-use consistency of the operands
    for idx, operand in enumerate(op.operands):
        if not any(u.operation is op and u.index == idx for u in operand.uses):
            raise VerificationError(
                f"{op.name}: operand #{idx} does not register this use")

    # the pass manager finds functions without searching function bodies
    if op.name == "func.func" and any(a.name == "func.func"
                                      for a in op.ancestors()):
        raise VerificationError(
            "func.func: a function may not sit inside another function's body")

    # region structure
    for region in op.regions:
        if region.parent is not op:
            raise VerificationError(f"{op.name}: region parent link broken")
        for block in region.blocks:
            if block.parent is not region:
                raise VerificationError(f"{op.name}: block parent link broken")
            for inner in block.ops:
                if inner.parent is not block:
                    raise VerificationError(
                        f"{inner.name}: operation parent link broken (inside {op.name})")
            # successor sanity: successors must belong to the same region
            for inner in block.ops:
                for succ in inner.successors:
                    if succ.parent is not region:
                        raise VerificationError(
                            f"{inner.name}: successor block is not in the same region")
            # terminator checks: any op with successors must be last
            last = block.last_op
            for inner in block.ops:
                if inner.successors and inner is not last:
                    raise VerificationError(
                        f"{inner.name}: branch-like op must terminate its block")

    # dominance (intra-block ordering only; cross-block checked loosely)
    _verify_dominance(op)

    # op-specific hook
    op.verify_()

    for region in op.regions:
        for block in region.blocks:
            for inner in block.ops:
                _verify_rec(inner)


def _verify_dominance(op: Operation) -> None:
    """Cheap dominance check: within a block, uses must come after defs."""
    for region in op.regions:
        for block in region.blocks:
            defined: Set[Value] = set(block.args)
            for inner in block.ops:
                for operand in inner.operands:
                    if isinstance(operand, OpResult):
                        owner = operand.owner
                        if owner.parent is block and operand not in defined:
                            raise VerificationError(
                                f"{inner.name}: operand defined later in the "
                                f"same block ({owner.name})")
                defined.update(inner.results)


def verify_module(module: Operation) -> List[str]:
    """Verify and return a list of error messages (empty when valid)."""
    errors: List[str] = []
    try:
        verify_operation(module)
    except VerificationError as exc:
        errors.append(str(exc))
    return errors


__all__ = ["VerificationError", "verify_operation", "verify_module"]
