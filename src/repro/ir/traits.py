"""Operation trait names used across the dialects.

Traits are plain strings stored in each operation class's ``TRAITS`` set.
They model the subset of MLIR traits that matter for this reproduction:
terminators, side-effect freedom (for CSE / canonicalisation / LICM),
symbol-table behaviour and the ``AutomaticAllocationScope`` trait discussed
in Section V-B of the paper.
"""

from __future__ import annotations

#: The operation ends its block and may transfer control to successors.
IS_TERMINATOR = "IsTerminator"

#: The operation has no observable side effects (pure); safe to CSE/DCE/hoist.
PURE = "Pure"

#: The operation only reads memory.
READ_ONLY = "ReadOnly"

#: The operation writes memory.
WRITES_MEMORY = "WritesMemory"

#: The operation allocates memory.
ALLOCATES = "Allocates"

#: The operation frees memory.
FREES = "Frees"

#: The operation defines a symbol (e.g. func.func, memref.global).
SYMBOL = "Symbol"

#: The operation holds a symbol table (e.g. builtin.module).
SYMBOL_TABLE = "SymbolTable"

#: Region-holding op whose stack allocations die when the region exits.
AUTOMATIC_ALLOCATION_SCOPE = "AutomaticAllocationScope"

#: Region-holding op with structured, single-entry single-exit control flow.
STRUCTURED_CONTROL_FLOW = "StructuredControlFlow"

#: Loop-like op (scf.for, scf.while, scf.parallel, affine.for, fir.do_loop).
LOOP_LIKE = "LoopLike"

#: Op is commutative in its two operands.
COMMUTATIVE = "Commutative"

#: Constant-like op (single result, value attribute, no operands).
CONSTANT_LIKE = "ConstantLike"

#: Call-like op referencing a callee symbol.
CALL_LIKE = "CallLike"


__all__ = [
    "IS_TERMINATOR",
    "PURE",
    "READ_ONLY",
    "WRITES_MEMORY",
    "ALLOCATES",
    "FREES",
    "SYMBOL",
    "SYMBOL_TABLE",
    "AUTOMATIC_ALLOCATION_SCOPE",
    "STRUCTURED_CONTROL_FLOW",
    "LOOP_LIKE",
    "COMMUTATIVE",
    "CONSTANT_LIKE",
    "CALL_LIKE",
]
