"""Pickle-based serialization of IR subtrees, safe for reuse in-process.

The function-granular artifact store persists optimised functions in the
content-addressed cache through here:

* :func:`dumps_op` pickles a (possibly attached) operation subtree without
  dragging its parent module along — the ``parent`` back-reference is
  cleared for the duration of the dump.
* :func:`loads_op` unpickles and then **renumbers every op and block uid**
  from this process's live counters.  That step is load-bearing: uids are
  identity (``__hash__``) and key process-level caches (the jit engine's
  translation cache is keyed by block uid), so materialising pickled IR
  with its original uids could alias an unrelated live block and replay the
  wrong compiled code.

Use-chain graphs make pickling recursion-heavy, so both directions run
under a temporarily raised recursion limit.
"""

from __future__ import annotations

import pickle
import sys
from contextlib import contextmanager

from .core import Operation, _block_counter, _op_counter

#: Deep enough for use-chains of the largest conformance/bench modules;
#: only raised temporarily, and never lowered below the caller's limit.
_RECURSION_LIMIT = 200_000


@contextmanager
def _deep_recursion():
    previous = sys.getrecursionlimit()
    if previous < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def renumber_uids(root: Operation) -> Operation:
    """Give every op and block under ``root`` a fresh uid from the live
    counters (see module docstring for why this must happen on load)."""
    for op in root.walk():
        op._uid = next(_op_counter)
        for region in op.regions:
            for block in region.blocks:
                block._uid = next(_block_counter)
    return root


def dumps_op(op: Operation) -> bytes:
    """Pickle an operation subtree.

    The subtree must be *isolated from above* (no operand defined outside
    it — true for ``func.func``); the parent link is detached during the
    dump so an attached op serializes without its surrounding module.
    """
    parent = op.parent
    op.parent = None
    try:
        with _deep_recursion():
            return pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        op.parent = parent


def loads_op(payload: bytes) -> Operation:
    """Unpickle a subtree dumped by :func:`dumps_op`, with fresh uids."""
    with _deep_recursion():
        op = pickle.loads(payload)
    if not isinstance(op, Operation):
        raise TypeError(f"payload does not contain an Operation: "
                        f"{type(op).__name__}")
    return renumber_uids(op)


__all__ = ["dumps_op", "loads_op", "renumber_uids"]
