"""Pattern rewriting infrastructure.

Provides the same programming model as MLIR/xDSL pattern rewriting:

* :class:`RewritePattern` subclasses implement ``match_and_rewrite`` and
  signal a successful rewrite by calling methods on the supplied
  :class:`PatternRewriter` (and returning ``True``);
* :func:`apply_patterns_greedily` drives patterns to a fixpoint with a
  **worklist**: every op is seeded once, and after a rewrite only the
  *affected* ops — ops the rewrite created, users of replaced values, and
  the surrounding parent — are re-examined in the next round, instead of
  re-walking the whole module per iteration.  Rounds are capped by
  ``max_iterations`` exactly like the historical full-rewalk driver, so
  non-converging pattern sets terminate with identical effect.

The pre-worklist driver survives as :func:`apply_patterns_rewalk` — it is
the differential-testing reference the worklist driver is checked against
(same final IR on every registered flow).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from .builder import Builder, InsertPoint
from .core import Block, IRError, Operation, Region, Value


class PatternRewriter(Builder):
    """Builder handed to patterns; records whether the IR was modified.

    Besides the modification flag, the rewriter records what a rewrite
    *touched* — created ops and ops whose operands changed — so the worklist
    driver can re-enqueue exactly the affected ops instead of re-walking.
    """

    def __init__(self, root: Operation):
        super().__init__()
        self.root = root
        self.modified = False
        self._erased: List[Operation] = []
        #: ops created by the current rewrite (worklist seeds)
        self._created: List[Operation] = []
        #: pre-existing ops affected by the current rewrite (operand changes,
        #: parents of erased ops) — captured *before* use lists are rewritten
        self._affected: List[Operation] = []

    # -- worklist bookkeeping ------------------------------------------------
    def _note_users(self, op: Operation) -> None:
        for result in op.results:
            for use in result.uses:
                self._affected.append(use.operation)

    def _note_parent(self, op: Operation) -> None:
        parent = op.parent_op()
        if parent is not None:
            self._affected.append(parent)

    def _note_operand_producers(self, op: Operation) -> None:
        """Erasing/replacing ``op`` drops a use of each operand: the
        producers may now be dead or newly foldable — revisit them."""
        for operand in op.operands:
            owner = getattr(operand, "op", None)
            if owner is not None:
                self._affected.append(owner)

    def reset_tracking(self) -> None:
        self._created = []
        self._affected = []

    # -- op replacement ------------------------------------------------------
    def replace_op(self, op: Operation, new_ops: "Sequence[Operation] | Operation",
                   new_results: Optional[Sequence[Value]] = None) -> None:
        """Replace ``op`` with ``new_ops`` (inserted before it).

        When ``new_results`` is not given, the results of the last new
        operation replace the results of ``op``.
        """
        if isinstance(new_ops, Operation):
            new_ops = [new_ops]
        block = op.parent
        if block is None:
            raise IRError("cannot replace a detached operation")
        self._note_users(op)
        self._note_parent(op)
        self._note_operand_producers(op)
        for new_op in new_ops:
            block.insert_before(op, new_op)
            self._created.append(new_op)
        if new_results is None:
            new_results = list(new_ops[-1].results) if new_ops else []
        if op.results:
            if len(new_results) != len(op.results):
                raise IRError("replace_op: result count mismatch")
            op.replace_all_uses_with(list(new_results))
        op.erase()
        self._erased.append(op)
        self.modified = True

    def replace_op_with_values(self, op: Operation, values: Sequence[Value]) -> None:
        self._note_users(op)
        self._note_parent(op)
        self._note_operand_producers(op)
        op.replace_all_uses_with(list(values))
        op.erase()
        self._erased.append(op)
        self.modified = True

    def erase_op(self, op: Operation, *, check_uses: bool = True) -> None:
        self._note_parent(op)
        self._note_operand_producers(op)
        op.erase(check_uses=check_uses)
        self._erased.append(op)
        self.modified = True

    def was_erased(self, op: Operation) -> bool:
        return op in self._erased

    def notify_modified(self) -> None:
        self.modified = True

    # -- region surgery ---------------------------------------------------------
    def inline_block_before(self, block: Block, anchor: Operation,
                            arg_values: Sequence[Value] = ()) -> None:
        """Move the operations of ``block`` before ``anchor``, replacing the
        block arguments with ``arg_values``."""
        if len(arg_values) != len(block.args):
            raise IRError("inline_block_before: argument count mismatch")
        for arg, val in zip(block.args, arg_values):
            arg.replace_all_uses_with(val)
        for op in list(block.ops):
            op.detach()
            anchor.parent.insert_before(anchor, op)
            self._created.append(op)
        self.modified = True

    def inline_region_before(self, region: Region, anchor: Operation,
                             arg_values: Sequence[Value] = ()) -> None:
        if len(region.blocks) != 1:
            raise IRError("inline_region_before expects a single-block region")
        self.inline_block_before(region.blocks[0], anchor, arg_values)


class RewritePattern:
    """Base class of all rewrite patterns."""

    #: Optional operation name this pattern is anchored on (speeds up matching).
    ROOT_OP: Optional[str] = None
    #: Higher benefit patterns are tried first.
    BENEFIT: int = 1

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        raise NotImplementedError


class RewritePatternSet:
    def __init__(self, patterns: Iterable[RewritePattern] = ()):
        self.patterns: List[RewritePattern] = list(patterns)
        self.patterns.sort(key=lambda p: -p.BENEFIT)


def _apply_on_op(op: Operation, patterns: RewritePatternSet,
                 rewriter: PatternRewriter) -> bool:
    """Try every pattern on ``op``; True when one fired (first match wins)."""
    for pattern in patterns.patterns:
        if pattern.ROOT_OP is not None and op.name != pattern.ROOT_OP:
            continue
        rewriter.modified = False
        if pattern.match_and_rewrite(op, rewriter) or rewriter.modified:
            return True
    return False


def apply_patterns_greedily(root: Operation,
                            patterns: "RewritePatternSet | Iterable[RewritePattern]",
                            *, max_iterations: int = 32) -> bool:
    """Apply patterns over ``root`` to a fixpoint (worklist driver).

    Round 1 seeds every op in walk order; each subsequent round revisits
    only ops affected by the previous round's rewrites (created ops and
    their nested ops, users of replaced values, parents).  ``max_iterations``
    bounds the number of rounds — the same guard, with the same observable
    effect, as the historical full-rewalk driver's sweep cap.

    Returns True when at least one rewrite happened.
    """
    if not isinstance(patterns, RewritePatternSet):
        patterns = RewritePatternSet(patterns)
    changed_any = False
    worklist: List[Operation] = list(root.walk())
    for _ in range(max_iterations):
        if not worklist:
            break
        rewriter = PatternRewriter(root)
        changed = False
        next_round: List[Operation] = []
        queued: Set[Operation] = set()

        def enqueue(op: Operation) -> None:
            if op is not None and op not in queued:
                queued.add(op)
                next_round.append(op)

        for op in worklist:
            if op.parent is None and op is not root:
                continue  # already erased/detached by a previous rewrite
            if rewriter.was_erased(op):
                continue
            rewriter.reset_tracking()
            if _apply_on_op(op, patterns, rewriter):
                changed = True
                for created in rewriter._created:
                    for nested in created.walk():
                        enqueue(nested)
                        for result in nested.results:
                            for use in result.uses:
                                enqueue(use.operation)
                for affected in rewriter._affected:
                    enqueue(affected)
                if op.parent is not None or op is root:
                    # still attached: the op itself (and its users) may
                    # match again
                    enqueue(op)
                    for result in op.results:
                        for use in result.uses:
                            enqueue(use.operation)
        if not changed:
            break
        changed_any = True
        worklist = next_round
    return changed_any


def apply_patterns_rewalk(root: Operation,
                          patterns: "RewritePatternSet | Iterable[RewritePattern]",
                          *, max_iterations: int = 32) -> bool:
    """The historical full-rewalk greedy driver (reference implementation).

    Re-walks the whole module every iteration.  Kept for differential
    testing: the worklist driver must produce identical final IR.
    """
    if not isinstance(patterns, RewritePatternSet):
        patterns = RewritePatternSet(patterns)
    changed_any = False
    for _ in range(max_iterations):
        rewriter = PatternRewriter(root)
        changed = False
        # Snapshot the walk: patterns may mutate the IR while we iterate.
        for op in list(root.walk()):
            if op.parent is None and op is not root:
                continue  # already erased/detached by a previous rewrite
            if rewriter.was_erased(op):
                continue
            rewriter.reset_tracking()
            if _apply_on_op(op, patterns, rewriter):
                changed = True
        if not changed:
            break
        changed_any = True
    return changed_any


__all__ = [
    "PatternRewriter",
    "RewritePattern",
    "RewritePatternSet",
    "apply_patterns_greedily",
    "apply_patterns_rewalk",
]
