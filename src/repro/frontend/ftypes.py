"""Fortran-level type model used by semantic analysis and lowering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..ir import types as ir_types
from ..dialects import fir


@dataclass(frozen=True)
class ArrayDim:
    """One array dimension: constant bounds when known, else dynamic."""

    lower: Optional[int] = 1          # None when not known at compile time
    extent: Optional[int] = None      # None when dynamic / deferred

    @property
    def is_static(self) -> bool:
        return self.extent is not None


@dataclass(frozen=True)
class FType:
    """A resolved Fortran type: base type + kind + optional array shape."""

    base: str = "real"                # integer | real | logical | character | derived
    kind: int = 4
    dims: Tuple[ArrayDim, ...] = ()
    allocatable: bool = False
    pointer: bool = False
    parameter: bool = False
    derived_name: Optional[str] = None
    char_length: Optional[int] = None

    # -- queries -------------------------------------------------------------
    @property
    def is_array(self) -> bool:
        return len(self.dims) > 0

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def has_static_shape(self) -> bool:
        return all(d.is_static for d in self.dims)

    def scalar(self) -> "FType":
        """The element type of an array type."""
        return FType(base=self.base, kind=self.kind, derived_name=self.derived_name,
                     char_length=self.char_length)

    def with_dims(self, dims: Tuple[ArrayDim, ...]) -> "FType":
        return FType(base=self.base, kind=self.kind, dims=dims,
                     allocatable=self.allocatable, pointer=self.pointer,
                     parameter=self.parameter, derived_name=self.derived_name,
                     char_length=self.char_length)

    def shape(self) -> Tuple[int, ...]:
        """Static extents, with DYNAMIC placeholders for unknown dims."""
        return tuple(d.extent if d.extent is not None else ir_types.DYNAMIC
                     for d in self.dims)

    def lower_bounds(self) -> Tuple[Optional[int], ...]:
        return tuple(d.lower for d in self.dims)

    # -- conversions to IR types ------------------------------------------------
    def element_ir_type(self) -> ir_types.Type:
        """The MLIR scalar type of one element."""
        if self.base == "integer":
            return ir_types.IntegerType(self.kind * 8 if self.kind else 32)
        if self.base == "real":
            return ir_types.FloatType(64 if self.kind == 8 else 32)
        if self.base == "logical":
            return ir_types.i1
        if self.base == "character":
            return ir_types.i8
        if self.base == "derived":
            raise TypeError("derived types have no single element IR type")
        raise TypeError(f"unknown Fortran base type {self.base!r}")

    def fir_storage_type(self) -> ir_types.Type:
        """The FIR reference type used for the variable's storage.

        Allocatable / pointer arrays are boxed (ref<box<heap<array<...>>>>),
        mirroring Flang's representation; plain variables are plain
        references.
        """
        elem = self.element_ir_type()
        if self.is_array:
            seq = fir.SequenceType(self.shape(), elem)
            if self.allocatable:
                return fir.ReferenceType(fir.BoxType(fir.HeapType(seq)))
            if self.pointer:
                return fir.ReferenceType(fir.BoxType(fir.PointerType(seq)))
            return fir.ReferenceType(seq)
        if self.allocatable or self.pointer:
            return fir.ReferenceType(fir.BoxType(fir.HeapType(elem)))
        return fir.ReferenceType(elem)


INTEGER = FType(base="integer", kind=4)
INTEGER8 = FType(base="integer", kind=8)
REAL = FType(base="real", kind=4)
DOUBLE = FType(base="real", kind=8)
LOGICAL = FType(base="logical", kind=4)
CHARACTER = FType(base="character", kind=1)


def combine_numeric(a: FType, b: FType) -> FType:
    """Usual Fortran numeric type promotion for binary operations."""
    if a.base == "real" or b.base == "real":
        kind = max(a.kind if a.base == "real" else 0,
                   b.kind if b.base == "real" else 0, 4)
        return FType(base="real", kind=kind)
    kind = max(a.kind, b.kind, 4)
    return FType(base="integer", kind=kind)


__all__ = ["ArrayDim", "FType", "INTEGER", "INTEGER8", "REAL", "DOUBLE",
           "LOGICAL", "CHARACTER", "combine_numeric"]
