"""The FIR (Fortran IR) dialect of Flang.

Types model Fortran storage concepts (references, heap allocations, boxes /
descriptors, sequences) and operations model Fortran-level memory and control
flow.  This is the dialect the paper's transformation consumes (together with
HLFIR) and that Flang's own code generation lowers directly to LLVM-IR.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..ir.attributes import (Attribute, IntegerAttr, StringAttr, SymbolRefAttr,
                             TypeAttr)
from ..ir.core import Block, Operation, Region, Value, register_op
from ..ir.traits import (ALLOCATES, CALL_LIKE, FREES, IS_TERMINATOR,
                         LOOP_LIKE, PURE, READ_ONLY, STRUCTURED_CONTROL_FLOW,
                         SYMBOL, WRITES_MEMORY)
from ..ir.types import DYNAMIC, IntegerType, Type, i1, index

# ---------------------------------------------------------------------------
# FIR types
# ---------------------------------------------------------------------------


class ReferenceType(Type):
    """``!fir.ref<T>`` — a reference to memory holding a value of type T."""

    __slots__ = ("element_type",)

    def __init__(self, element_type: Type):
        self.element_type = element_type

    def _key(self):
        return (self.element_type,)

    def mlir(self) -> str:
        return f"!fir.ref<{self.element_type.mlir()}>"


class HeapType(Type):
    """``!fir.heap<T>`` — heap-allocated memory (allocatables)."""

    __slots__ = ("element_type",)

    def __init__(self, element_type: Type):
        self.element_type = element_type

    def _key(self):
        return (self.element_type,)

    def mlir(self) -> str:
        return f"!fir.heap<{self.element_type.mlir()}>"


class PointerType(Type):
    """``!fir.ptr<T>`` — Fortran POINTER storage."""

    __slots__ = ("element_type",)

    def __init__(self, element_type: Type):
        self.element_type = element_type

    def _key(self):
        return (self.element_type,)

    def mlir(self) -> str:
        return f"!fir.ptr<{self.element_type.mlir()}>"


class BoxType(Type):
    """``!fir.box<T>`` — a descriptor carrying address, bounds and strides."""

    __slots__ = ("element_type",)

    def __init__(self, element_type: Type):
        self.element_type = element_type

    def _key(self):
        return (self.element_type,)

    def mlir(self) -> str:
        return f"!fir.box<{self.element_type.mlir()}>"


class SequenceType(Type):
    """``!fir.array<e1 x e2 x T>`` — a Fortran array; extents may be dynamic."""

    __slots__ = ("shape", "element_type")

    def __init__(self, shape: Sequence[int], element_type: Type):
        self.shape = tuple(int(d) for d in shape)
        self.element_type = element_type

    def _key(self):
        return (self.shape, self.element_type)

    @property
    def rank(self) -> int:
        return len(self.shape)

    def has_static_shape(self) -> bool:
        return all(d != DYNAMIC for d in self.shape)

    def mlir(self) -> str:
        dims = "x".join("?" if d == DYNAMIC else str(d) for d in self.shape)
        return f"!fir.array<{dims}x{self.element_type.mlir()}>"


class CharType(Type):
    """``!fir.char<kind, len>`` — character storage."""

    __slots__ = ("kind", "length")

    def __init__(self, kind: int = 1, length: int = DYNAMIC):
        self.kind = kind
        self.length = length

    def _key(self):
        return (self.kind, self.length)

    def mlir(self) -> str:
        ln = "?" if self.length == DYNAMIC else str(self.length)
        return f"!fir.char<{self.kind},{ln}>"


class LogicalType(Type):
    """``!fir.logical<kind>`` — Fortran LOGICAL."""

    __slots__ = ("kind",)

    def __init__(self, kind: int = 4):
        self.kind = kind

    def _key(self):
        return (self.kind,)

    def mlir(self) -> str:
        return f"!fir.logical<{self.kind}>"


class ShapeType(Type):
    """``!fir.shape<rank>`` — the result of a fir.shape operation."""

    __slots__ = ("rank",)

    def __init__(self, rank: int):
        self.rank = rank

    def _key(self):
        return (self.rank,)

    def mlir(self) -> str:
        return f"!fir.shape<{self.rank}>"


class RecordType(Type):
    """``!fir.type<name{member: type, ...}>`` — a derived type."""

    __slots__ = ("name", "members")

    def __init__(self, name: str, members: Sequence[Tuple[str, Type]]):
        self.name = name
        self.members = tuple(members)

    def _key(self):
        return (self.name, self.members)

    def member_type(self, member: str) -> Type:
        for m, t in self.members:
            if m == member:
                return t
        raise KeyError(f"derived type {self.name} has no member '{member}'")

    def member_index(self, member: str) -> int:
        for i, (m, _) in enumerate(self.members):
            if m == member:
                return i
        raise KeyError(f"derived type {self.name} has no member '{member}'")

    def mlir(self) -> str:
        inner = ",".join(f"{m}:{t.mlir()}" for m, t in self.members)
        return f"!fir.type<{self.name}{{{inner}}}>"


def dereferenced_type(t: Type) -> Type:
    """The value type behind a ref/heap/ptr/box wrapper (one level)."""
    if isinstance(t, (ReferenceType, HeapType, PointerType, BoxType)):
        return t.element_type
    return t


def element_type_of(t: Type) -> Type:
    """Recursively unwrap references and sequences down to the scalar type."""
    t = dereferenced_type(t)
    if isinstance(t, SequenceType):
        return t.element_type
    return t


# ---------------------------------------------------------------------------
# FIR memory operations
# ---------------------------------------------------------------------------


@register_op
class AllocaOp(Operation):
    """``fir.alloca`` — stack allocation of one value of ``in_type``."""

    OP_NAME = "fir.alloca"
    TRAITS = frozenset({ALLOCATES})

    def __init__(self, in_type: Type, bindc_name: str = "",
                 shape_operands: Sequence[Value] = ()):
        attrs = {"in_type": TypeAttr(in_type)}
        if bindc_name:
            attrs["bindc_name"] = StringAttr(bindc_name)
        super().__init__(operands=list(shape_operands),
                         result_types=[ReferenceType(in_type)], attributes=attrs)

    @property
    def in_type(self) -> Type:
        return self.attributes["in_type"].type


@register_op
class AllocMemOp(Operation):
    """``fir.allocmem`` — heap allocation (used for ALLOCATE)."""

    OP_NAME = "fir.allocmem"
    TRAITS = frozenset({ALLOCATES})

    def __init__(self, in_type: Type, shape_operands: Sequence[Value] = (),
                 bindc_name: str = ""):
        attrs = {"in_type": TypeAttr(in_type)}
        if bindc_name:
            attrs["uniq_name"] = StringAttr(bindc_name)
        super().__init__(operands=list(shape_operands),
                         result_types=[HeapType(in_type)], attributes=attrs)

    @property
    def in_type(self) -> Type:
        return self.attributes["in_type"].type


@register_op
class FreeMemOp(Operation):
    OP_NAME = "fir.freemem"
    TRAITS = frozenset({FREES})

    def __init__(self, heapref: Value):
        super().__init__(operands=[heapref])


@register_op
class LoadOp(Operation):
    OP_NAME = "fir.load"
    TRAITS = frozenset({READ_ONLY})

    def __init__(self, memref: Value, result_type: Optional[Type] = None):
        if result_type is None:
            result_type = dereferenced_type(memref.type)
        super().__init__(operands=[memref], result_types=[result_type])

    @property
    def memref(self) -> Value:
        return self.operands[0]


@register_op
class StoreOp(Operation):
    OP_NAME = "fir.store"
    TRAITS = frozenset({WRITES_MEMORY})

    def __init__(self, value: Value, memref: Value):
        super().__init__(operands=[value, memref])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def memref(self) -> Value:
        return self.operands[1]


@register_op
class ShapeOp(Operation):
    """``fir.shape`` — packages array extents for embox/declare."""

    OP_NAME = "fir.shape"
    TRAITS = frozenset({PURE})

    def __init__(self, extents: Sequence[Value]):
        super().__init__(operands=list(extents),
                         result_types=[ShapeType(len(extents))])

    @property
    def extents(self):
        return self.operands


@register_op
class EmboxOp(Operation):
    """``fir.embox`` — create a descriptor (box) from a memory reference."""

    OP_NAME = "fir.embox"
    TRAITS = frozenset({PURE})

    def __init__(self, memref: Value, shape: Optional[Value] = None,
                 result_type: Optional[Type] = None):
        operands = [memref] + ([shape] if shape is not None else [])
        if result_type is None:
            result_type = BoxType(dereferenced_type(memref.type))
        super().__init__(operands=operands, result_types=[result_type])


@register_op
class BoxAddrOp(Operation):
    """``fir.box_addr`` — extract the base address from a box."""

    OP_NAME = "fir.box_addr"
    TRAITS = frozenset({PURE})

    def __init__(self, box: Value, result_type: Optional[Type] = None):
        if result_type is None:
            result_type = ReferenceType(dereferenced_type(box.type))
        super().__init__(operands=[box], result_types=[result_type])


@register_op
class BoxDimsOp(Operation):
    """``fir.box_dims`` — (lower bound, extent, stride) of one box dimension."""

    OP_NAME = "fir.box_dims"
    TRAITS = frozenset({PURE})

    def __init__(self, box: Value, dim: Value):
        super().__init__(operands=[box, dim], result_types=[index, index, index])


@register_op
class ConvertOp(Operation):
    """``fir.convert`` — FIR's universal value/reference conversion."""

    OP_NAME = "fir.convert"
    TRAITS = frozenset({PURE})

    def __init__(self, value: Value, result_type: Type):
        super().__init__(operands=[value], result_types=[result_type])


@register_op
class CoordinateOfOp(Operation):
    """``fir.coordinate_of`` — address of an element/member of an aggregate."""

    OP_NAME = "fir.coordinate_of"
    TRAITS = frozenset({PURE})

    def __init__(self, ref: Value, coordinates: Sequence[Value],
                 result_type: Type, field: Optional[str] = None):
        attrs = {"field": StringAttr(field)} if field else {}
        super().__init__(operands=[ref, *coordinates], result_types=[result_type],
                         attributes=attrs)

    @property
    def ref(self) -> Value:
        return self.operands[0]

    @property
    def coordinates(self):
        return self.operands[1:]


# ---------------------------------------------------------------------------
# FIR control flow
# ---------------------------------------------------------------------------


@register_op
class ResultOp(Operation):
    """``fir.result`` — terminator of fir.if / fir.do_loop / fir.iterate_while
    regions (required even when the region yields nothing)."""

    OP_NAME = "fir.result"
    TRAITS = frozenset({IS_TERMINATOR})

    def __init__(self, values: Sequence[Value] = ()):
        super().__init__(operands=list(values))


@register_op
class IfOp(Operation):
    """``fir.if`` — Fortran conditional with then/else regions."""

    OP_NAME = "fir.if"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW})

    def __init__(self, condition: Value, result_types: Sequence[Type] = (),
                 then_block: Optional[Block] = None,
                 else_block: Optional[Block] = None):
        super().__init__(operands=[condition], result_types=list(result_types),
                         regions=[Region([then_block or Block()]),
                                  Region([else_block or Block()])])

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def then_block(self) -> Block:
        return self.regions[0].blocks[0]

    @property
    def else_block(self) -> Block:
        return self.regions[1].blocks[0]


@register_op
class DoLoopOp(Operation):
    """``fir.do_loop`` — a Fortran counted do loop.

    Unlike ``scf.for`` the step may be negative (down-counting loops); the
    body block receives the induction value followed by iteration arguments.
    The final value of the induction variable is returned as the first result
    so Flang can store it back to the loop variable after the loop.
    """

    OP_NAME = "fir.do_loop"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW, LOOP_LIKE})

    def __init__(self, lower: Value, upper: Value, step: Value,
                 iter_args: Sequence[Value] = (), body: Optional[Block] = None,
                 unordered: bool = False):
        result_types = [index] + [v.type for v in iter_args]
        if body is None:
            body = Block(arg_types=[index] + [v.type for v in iter_args])
        attrs = {}
        if unordered:
            attrs["unordered"] = IntegerAttr(1)
        super().__init__(operands=[lower, upper, step, *iter_args],
                         result_types=result_types,
                         regions=[Region([body])], attributes=attrs)

    @property
    def lower_bound(self) -> Value:
        return self.operands[0]

    @property
    def upper_bound(self) -> Value:
        return self.operands[1]

    @property
    def step(self) -> Value:
        return self.operands[2]

    @property
    def iter_args(self):
        return self.operands[3:]

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]

    @property
    def induction_variable(self) -> Value:
        return self.body.args[0]


@register_op
class IterateWhileOp(Operation):
    """``fir.iterate_while`` — counted loop that additionally checks a logical
    flag every iteration (supports EXIT / early termination).

    Results: (final induction value, final ok flag, iter args...).  The body
    receives (induction, ok flag, iter args...) and must fir.result the new
    ok flag followed by the iteration arguments.
    """

    OP_NAME = "fir.iterate_while"
    TRAITS = frozenset({STRUCTURED_CONTROL_FLOW, LOOP_LIKE})

    def __init__(self, lower: Value, upper: Value, step: Value, initial_ok: Value,
                 iter_args: Sequence[Value] = (), body: Optional[Block] = None):
        result_types = [index, i1] + [v.type for v in iter_args]
        if body is None:
            body = Block(arg_types=[index, i1] + [v.type for v in iter_args])
        super().__init__(operands=[lower, upper, step, initial_ok, *iter_args],
                         result_types=result_types, regions=[Region([body])])

    @property
    def lower_bound(self) -> Value:
        return self.operands[0]

    @property
    def upper_bound(self) -> Value:
        return self.operands[1]

    @property
    def step(self) -> Value:
        return self.operands[2]

    @property
    def initial_ok(self) -> Value:
        return self.operands[3]

    @property
    def iter_args(self):
        return self.operands[4:]

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]


@register_op
class CallOp(Operation):
    OP_NAME = "fir.call"
    TRAITS = frozenset({CALL_LIKE})

    def __init__(self, callee: str, operands: Sequence[Value],
                 result_types: Sequence[Type] = ()):
        super().__init__(operands=list(operands), result_types=list(result_types),
                         attributes={"callee": SymbolRefAttr(callee)})

    @property
    def callee(self) -> str:
        return self.attributes["callee"].root


# ---------------------------------------------------------------------------
# FIR globals & misc
# ---------------------------------------------------------------------------


@register_op
class GlobalOp(Operation):
    """``fir.global`` — a global variable definition."""

    OP_NAME = "fir.global"
    TRAITS = frozenset({SYMBOL})

    def __init__(self, sym_name: str, global_type: Type,
                 initial_value: Optional[Attribute] = None):
        attrs = {"sym_name": StringAttr(sym_name), "type": TypeAttr(global_type)}
        if initial_value is not None:
            attrs["initial_value"] = initial_value
        super().__init__(attributes=attrs, regions=[Region()])

    @property
    def sym_name(self) -> str:
        return self.attributes["sym_name"].value

    @property
    def type(self) -> Type:
        return self.attributes["type"].type


@register_op
class AddressOfOp(Operation):
    OP_NAME = "fir.address_of"
    TRAITS = frozenset({PURE})

    def __init__(self, sym_name: str, result_type: Type):
        super().__init__(result_types=[result_type],
                         attributes={"symbol": SymbolRefAttr(sym_name)})

    @property
    def symbol(self) -> str:
        return self.attributes["symbol"].root


@register_op
class StringLitOp(Operation):
    OP_NAME = "fir.string_lit"
    TRAITS = frozenset({PURE})

    def __init__(self, value: str):
        super().__init__(result_types=[CharType(1, len(value))],
                         attributes={"value": StringAttr(value)})

    @property
    def value(self) -> str:
        return self.attributes["value"].value


__all__ = [
    # types
    "ReferenceType", "HeapType", "PointerType", "BoxType", "SequenceType",
    "CharType", "LogicalType", "ShapeType", "RecordType",
    "dereferenced_type", "element_type_of",
    # memory ops
    "AllocaOp", "AllocMemOp", "FreeMemOp", "LoadOp", "StoreOp", "ShapeOp",
    "EmboxOp", "BoxAddrOp", "BoxDimsOp", "ConvertOp", "CoordinateOfOp",
    # control flow
    "ResultOp", "IfOp", "DoLoopOp", "IterateWhileOp", "CallOp",
    # globals & misc
    "GlobalOp", "AddressOfOp", "StringLitOp",
]
