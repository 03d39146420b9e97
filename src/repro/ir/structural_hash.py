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

:func:`fingerprint_block` extends the same scheme to a single *block*, the
unit the jit engine translates.  A block is not an isolated subtree, so two
structurally identical blocks can still require different generated code;
the block fingerprint therefore folds in everything the emitter
specializes on beyond the op stream:

* **external constants** — an operand defined outside the block by
  ``arith.constant`` carries its constant value in the token (the emitter
  bakes e.g. the ``fir.do_loop`` direction from a statically known step,
  even when that step is defined in a dominating block);
* **remote uses** — for every value the block (tree) defines, whether any
  consumer lives *outside* the tree (the emitter keeps such values
  env-resident instead of collapsing them into locals).
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Optional, Sequence

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

    def __init__(self, salt: str,
                 members: Optional[FrozenSet[int]] = None):
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
        #: When hashing a non-isolated block: ``id()`` of every op inside
        #: the hashed tree.  Enables the external-constant and remote-use
        #: tokens of :func:`fingerprint_block`; ``None`` (op-tree hashing)
        #: keeps the token stream byte-identical to version 1.
        self._members = members

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
        token = f"ext{number}:{self._type_token(value.type)}"
        if self._members is not None:
            # a statically known external constant is codegen material: the
            # jit emitter specializes on it (loop direction, bound folding)
            defining = getattr(value, "op", None)
            if defining is not None and defining.name == "arith.constant":
                attr = defining.get_attr("value")
                if attr is not None:
                    token += f"=c:{attr.mlir()}"
        return token

    def _remote_use_token(self, values: Sequence[Value]) -> str:
        """One flag per defined value: consumed outside the hashed tree?"""
        members = self._members
        return "".join(
            "x" if any(id(use.operation) not in members
                       for use in value.uses) else "."
            for value in values)

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
        members = self._members
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
            if members is not None and results:
                append("remote:" + self._remote_use_token(results))
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
                    if members is not None and block.args:
                        append("bremote:"
                               + self._remote_use_token(block.args))
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


def _tree_member_ids(block: Block) -> FrozenSet[int]:
    """``id()`` of every op inside ``block`` and its nested regions."""
    members = set()
    stack = [block]
    while stack:
        current = stack.pop()
        for op in current.ops:
            members.add(id(op))
            for region in op.regions:
                stack.extend(region.blocks)
    return frozenset(members)


def fingerprint_block(block: Block, *, salt: str = "") -> str:
    """SHA-256 hex digest of one block's *translation-relevant* structure.

    Two blocks fingerprint equal iff a deterministic per-block code
    generator (the jit emitter) must treat them identically: the structural
    material of :func:`structural_fingerprint` over the block's ops, plus
    the block argument signature, the constant values of externally defined
    ``arith.constant`` operands, and — for every value the block tree
    defines — whether it has consumers outside the tree.  Object identity,
    ``_uid`` counters and ``name_hint`` cosmetics are excluded, so the same
    block rebuilt by a fresh frontend run in another process fingerprints
    identically; this is the persistent translation cache's address.
    """
    fingerprinter = _Fingerprinter(salt, members=_tree_member_ids(block))
    tokens = fingerprinter._tokens
    tokens.append("block-fingerprint:v1")
    fingerprinter._blocks[id(block)] = len(fingerprinter._blocks)
    tokens.append("args:" + ",".join(fingerprinter._type_token(a.type)
                                     for a in block.args))
    for arg in block.args:
        fingerprinter._values[id(arg)] = len(fingerprinter._values)
    if block.args:
        tokens.append("bremote:"
                      + fingerprinter._remote_use_token(block.args))
    fingerprinter._visit_ops(block.ops)
    return fingerprinter.hexdigest()


__all__ = ["structural_fingerprint", "fingerprint_block",
           "STRUCTURAL_HASH_VERSION"]
