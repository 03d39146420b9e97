"""Deterministic structural hashing of IR subtrees.

:func:`structural_fingerprint` reduces an operation tree to a SHA-256 hex
digest over everything that determines how passes transform it: operation
names, attributes, operand/result types, the def-use structure (via local
value numbering, exactly like the printer's per-``Printer`` SSA numbers),
successor blocks, and region/block shape.  Object identity, ``_uid``
counters and ``name_hint`` cosmetics are deliberately excluded, so a
``clone()`` — or the same function re-built by a fresh frontend run — hashes
identically.

This is the addressing scheme of function-granular incremental compilation:
a ``func.func`` hashed at pipeline entry, salted with the nested pipeline's
canonical description, keys the per-function stage artifacts in
:mod:`repro.service.incremental`.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from .core import Block, Operation, Value

#: Bump when the token stream below changes meaning: every previously
#: computed fingerprint then stops matching, exactly like the service's
#: ``KEY_SCHEMA_VERSION`` salt.
STRUCTURAL_HASH_VERSION = 1


class _Fingerprinter:
    """Builds a canonical token stream for one op tree, hashed in one shot.

    Tokens accumulate in a list and hit SHA-256 as a single
    ``\\x00``-joined buffer at the end — this sits on the hot path of every
    incremental lookup (one fingerprint per function per nest), and one
    big ``update`` beats a quarter-million small ones by ~2x.  Type
    renderings are memoised by object identity within one fingerprint;
    the IR holds the objects alive, so ids cannot be recycled mid-run.
    """

    def __init__(self, salt: str):
        self._tokens = [f"structural-hash:v{STRUCTURAL_HASH_VERSION}",
                        f"salt:{salt}"]
        #: Local numbering for values defined inside the hashed subtree,
        #: assigned in visit order (the printer's scheme).
        self._values: Dict[int, int] = {}
        #: Values defined *outside* the subtree get stable ``ext`` numbers
        #: in first-encounter order instead, so the hash stays well-defined
        #: even for non-isolated subtrees.
        self._external: Dict[int, int] = {}
        self._blocks: Dict[int, int] = {}
        self._type_mlir: Dict[int, str] = {}

    def _type_token(self, type_) -> str:
        token = self._type_mlir.get(id(type_))
        if token is None:
            token = type_.mlir()
            self._type_mlir[id(type_)] = token
        return token

    def _value_token(self, value: Value) -> str:
        number = self._values.get(id(value))
        if number is not None:
            return f"v{number}"
        number = self._external.setdefault(id(value), len(self._external))
        return f"ext{number}:{self._type_token(value.type)}"

    def _block_token(self, block: Block) -> str:
        number = self._blocks.get(id(block))
        return f"b{number}" if number is not None else "bext"

    def visit(self, op: Operation) -> None:
        self._visit_ops((op,))

    def _visit_ops(self, ops) -> None:
        # Runs once per op of every function of every incremental lookup, so
        # one frame serves a whole block and the common shapes (local
        # operands, no successors, no regions) cost a dict probe and a
        # concatenation each.  The token *stream* is what
        # STRUCTURAL_HASH_VERSION fixes; how it is produced is not ("\x00"
        # inside a token is the separator ``hexdigest`` joins with).
        append = self._tokens.append
        values = self._values
        local = values.get
        types = self._type_mlir
        for op in ops:
            append("op:" + op.name)
            attributes = op.attributes
            if attributes:
                for key in sorted(attributes):
                    attr = attributes[key]
                    append(f"attr:{key}={type(attr).__name__}:{attr.mlir()}")
            operands = []
            for value in op._operands:
                number = local(id(value))
                operands.append(f"v{number}" if number is not None
                                else self._value_token(value))
            append("operands:" + ",".join(operands))
            results = op.results
            result_types = []
            for result in results:
                values[id(result)] = len(values)
                type_ = result.type
                token = types.get(id(type_))
                if token is None:
                    token = types[id(type_)] = type_.mlir()
                result_types.append(token)
            append("results:" + ",".join(result_types))
            regions = op.regions
            if not regions and not op.successors:
                append("successors:\x00regions:0")
                continue
            append("successors:" + ",".join([self._block_token(b)
                                             for b in op.successors]))
            append(f"regions:{len(regions)}")
            for region in regions:
                # number blocks first so successor forward references resolve
                for block in region.blocks:
                    self._blocks[id(block)] = len(self._blocks)
                for block in region.blocks:
                    append("block:" + ",".join([self._type_token(a.type)
                                                for a in block.args]))
                    for arg in block.args:
                        values[id(arg)] = len(values)
                    self._visit_ops(block.ops)
                append("endregion")

    def hexdigest(self) -> str:
        return hashlib.sha256("\x00".join(self._tokens).encode()).hexdigest()


def structural_fingerprint(op: Operation, *, salt: str = "") -> str:
    """SHA-256 hex digest of ``op``'s structure, mixed with ``salt``.

    Two trees fingerprint equal iff a deterministic pass pipeline treats
    them identically: same op names, attributes, types, def-use wiring and
    block structure.  ``salt`` folds in external context — the incremental
    compiler salts with the pipeline description so the same function under
    two pipelines addresses two artifacts.
    """
    fingerprinter = _Fingerprinter(salt)
    fingerprinter.visit(op)
    return fingerprinter.hexdigest()


__all__ = ["structural_fingerprint", "STRUCTURAL_HASH_VERSION"]
