"""Builtin type system for the MLIR-like IR.

Types are attributes (as in MLIR).  Dialect-specific types (FIR references,
boxes, LLVM pointers, ...) live with their dialects but derive from
:class:`Type` defined here.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .attributes import Attribute

#: Sentinel used in shaped types for a dynamic dimension (MLIR prints ``?``).
DYNAMIC = -1


class Type(Attribute):
    """Base class of all types."""

    __slots__ = ()


class NoneType(Type):
    __slots__ = ()

    def mlir(self) -> str:
        return "none"


class IndexType(Type):
    """Target-width integer used for loop indices and memory subscripts."""

    __slots__ = ()

    def mlir(self) -> str:
        return "index"


class IntegerType(Type):
    __slots__ = ("width", "signed")

    def __init__(self, width: int, signed: bool = True):
        self.width = int(width)
        self.signed = bool(signed)

    def _key(self):
        return (self.width, self.signed)

    def mlir(self) -> str:
        return f"i{self.width}" if self.signed else f"ui{self.width}"


class FloatType(Type):
    __slots__ = ("width",)

    def __init__(self, width: int):
        if width not in (16, 32, 64, 128):
            raise ValueError(f"unsupported float width {width}")
        self.width = width

    def _key(self):
        return (self.width,)

    def mlir(self) -> str:
        return f"f{self.width}"


class FunctionType(Type):
    __slots__ = ("inputs", "results")

    def __init__(self, inputs: Sequence[Type], results: Sequence[Type]):
        self.inputs = tuple(inputs)
        self.results = tuple(results)

    def _key(self):
        return (self.inputs, self.results)

    def mlir(self) -> str:
        ins = ", ".join(t.mlir() for t in self.inputs)
        if len(self.results) == 1:
            outs = self.results[0].mlir()
        else:
            outs = "(" + ", ".join(t.mlir() for t in self.results) + ")"
        return f"({ins}) -> {outs}"


class ShapedType(Type):
    """Common behaviour for memref / tensor / vector types."""

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

    def num_dynamic_dims(self) -> int:
        return sum(1 for d in self.shape if d == DYNAMIC)

    def num_elements(self) -> Optional[int]:
        if not self.has_static_shape():
            return None
        n = 1
        for d in self.shape:
            n *= d
        return n

    def _shape_str(self) -> str:
        parts = ["?" if d == DYNAMIC else str(d) for d in self.shape]
        return "x".join(parts + [self.element_type.mlir()])


class MemRefType(ShapedType):
    """A reference to a region of memory (MLIR ``memref``).

    ``shape`` may contain :data:`DYNAMIC` entries for dynamically sized
    dimensions.  A rank-0 memref (empty shape) holds a single element; it is
    the representation this reproduction uses for scalar variables and for
    the outer container of allocatable arrays (memref-of-memref).
    """

    __slots__ = ("memory_space",)

    def __init__(self, shape: Sequence[int], element_type: Type,
                 memory_space: str | None = None):
        super().__init__(shape, element_type)
        self.memory_space = memory_space

    def _key(self):
        return (self.shape, self.element_type, self.memory_space)

    def mlir(self) -> str:
        inner = self._shape_str() if self.shape else self.element_type.mlir()
        if self.memory_space:
            return f"memref<{inner}, {self.memory_space}>"
        return f"memref<{inner}>"


class VectorType(ShapedType):
    __slots__ = ()

    def __init__(self, shape: Sequence[int], element_type: Type):
        super().__init__(shape, element_type)
        if any(d == DYNAMIC for d in self.shape):
            raise ValueError("vector types must have a static shape")

    def mlir(self) -> str:
        return f"vector<{self._shape_str()}>"


# ---------------------------------------------------------------------------
# Interned singletons for the common cases.
# ---------------------------------------------------------------------------

i1 = IntegerType(1)
i8 = IntegerType(8)
i16 = IntegerType(16)
i32 = IntegerType(32)
i64 = IntegerType(64)
f32 = FloatType(32)
f64 = FloatType(64)
index = IndexType()
none = NoneType()


__all__ = [
    "DYNAMIC",
    "Type",
    "NoneType",
    "IndexType",
    "IntegerType",
    "FloatType",
    "FunctionType",
    "ShapedType",
    "MemRefType",
    "VectorType",
    "i1",
    "i8",
    "i16",
    "i32",
    "i64",
    "f32",
    "f64",
    "index",
    "none",
]
