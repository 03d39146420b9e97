"""Structured-control-flow to CFG conversion utilities.

Both compilation flows need to flatten structured region ops into branch-based
control flow:

* the standard-MLIR flow runs ``convert-scf-to-cf`` (Listing 1 / Figure 3),
* Flang's direct code generation performs the equivalent flattening of
  ``fir.do_loop`` / ``fir.if`` / ``fir.iterate_while`` on its way to LLVM-IR.

The shared helpers here split blocks and splice region bodies; the passes in
:mod:`repro.transforms.convert_scf_to_cf` and :mod:`repro.flang.codegen`
build on them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..dialects import arith, cf, scf
from ..ir import types as ir_types
from ..ir.core import Block, IRError, Operation, Region, Value


def split_block(block: Block, before: Operation) -> Block:
    """Split ``block`` before ``before``; the tail ops move to a new block that
    is inserted right after ``block`` in the parent region."""
    if before.parent is not block:
        raise IRError(f"{before!r} is not in the block being split")
    region = block.parent
    tail = Block()
    # from the end back to ``before``: the cost is the tail's length
    moved = None
    while moved is not before:
        op = block.last_op
        if moved is None:
            tail.add_op(op)
        else:
            tail.insert_before(moved, op)
        moved = op
    region.insert_block_at(block.index_in_region() + 1, tail)
    return tail


def splice_block_into(source: Block, dest: Block,
                      arg_replacements: Sequence[Value]) -> None:
    """Move all ops of ``source`` to the end of ``dest``, replacing the source
    block arguments with ``arg_replacements``."""
    for arg, repl in zip(source.args, arg_replacements):
        arg.replace_all_uses_with(repl)
    for op in list(source.ops):
        op.detach()
        dest.add_op(op)


def move_region_blocks(region: Region, target_region: Region,
                       at_index: int) -> List[Block]:
    """Move all blocks of ``region`` into ``target_region`` starting at index."""
    moved = []
    for offset, block in enumerate(list(region.blocks)):
        region.blocks.remove(block)
        target_region.insert_block_at(at_index + offset, block)
        moved.append(block)
    return moved


class CFGLowering:
    """Flattens structured ops inside every function body into a block CFG.

    Subclasses provide ``structured_op_names`` plus one ``lower_<op>`` method
    per structured operation; the driver walks innermost-first so nested
    structures are already flat when their parent is processed.
    """

    structured_op_names: Tuple[str, ...] = ()

    #: the terminator op class used for forwarding values (e.g. scf.yield)
    def branch(self, dest: Block, operands: Sequence[Value] = ()) -> Operation:
        return cf.BranchOp(dest, list(operands))

    def cond_branch(self, condition: Value, true_dest: Block, false_dest: Block,
                    true_operands: Sequence[Value] = (),
                    false_operands: Sequence[Value] = ()) -> Operation:
        return cf.CondBranchOp(condition, true_dest, false_dest,
                               list(true_operands), list(false_operands))

    # -- driver ---------------------------------------------------------------
    def run_on_function(self, func: Operation) -> None:
        """Lower outermost-first: every structured op's regions are still
        single blocks when it is processed, nested structured ops having been
        hoisted (as whole operations) into the new CFG blocks."""
        while True:
            target = None
            for op in func.walk():
                if op is not func and op.name in self.structured_op_names:
                    target = op
                    break
            if target is None:
                break
            self.lower_op(target)

    def lower_op(self, op: Operation) -> None:
        method = getattr(self, "lower_" + op.name.replace(".", "_"))
        method(op)


__all__ = ["split_block", "splice_block_into", "move_region_blocks", "CFGLowering"]
