"""Runtime value representations used by the IR interpreter.

* scalars are Python ints/floats/bools,
* FIR-level Fortran arrays are :class:`FortranArray` (flat column-major data
  plus the Fortran shape),
* memrefs are NumPy arrays (row-major, matching the reversed-dimension
  mapping of the standard flow) and rank-0 memrefs are :class:`Cell`,
* vector values are small NumPy arrays of the vector width,
* element references (``fir.coordinate_of``) are :class:`ElementPtr`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class Cell:
    """A single mutable storage location (rank-0 memref / scalar fir.ref)."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        self.value = value

    def __repr__(self):  # pragma: no cover
        return f"Cell({self.value!r})"


class FortranArray:
    """Column-major Fortran array storage used at the FIR level."""

    __slots__ = ("data", "shape")

    def __init__(self, shape: Sequence[int], dtype=np.float64):
        self.shape = tuple(int(s) for s in shape)
        size = 1
        for s in self.shape:
            size *= s
        self.data = np.zeros(size, dtype=dtype)

    def as_numpy(self) -> np.ndarray:
        """The array as a NumPy ndarray with its Fortran shape."""
        return self.data.reshape(self.shape, order="F") if self.shape else self.data

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):  # pragma: no cover
        return f"FortranArray(shape={self.shape})"


@dataclass(slots=True)
class ElementPtr:
    """A reference to one element of an array (``fir.coordinate_of``)."""

    array: object                       # FortranArray | np.ndarray | Cell
    flat: int = 0                       # element offset in storage order

    def load(self):
        if isinstance(self.array, Cell):
            return self.array.value
        if isinstance(self.array, FortranArray):
            return self.array.data[self.flat]
        return self.array.reshape(-1)[self.flat]

    def store(self, value) -> None:
        if isinstance(self.array, Cell):
            self.array.value = value
        elif isinstance(self.array, FortranArray):
            self.array.data[self.flat] = value
        else:
            self.array.reshape(-1)[self.flat] = value


def as_ndarray(value) -> np.ndarray:
    """Any array-ish interpreter value as a NumPy ndarray."""
    if isinstance(value, FortranArray):
        return value.as_numpy()
    if isinstance(value, Cell):
        inner = value.value
        return as_ndarray(inner) if not np.isscalar(inner) and inner is not None \
            else np.asarray(inner)
    if isinstance(value, ElementPtr):
        return np.asarray(value.load())
    return np.asarray(value)


def numpy_dtype_for(type_obj) -> np.dtype:
    from ..ir import types as ir_types
    if isinstance(type_obj, ir_types.FloatType):
        return np.dtype(np.float32) if type_obj.width == 32 else np.dtype(np.float64)
    if isinstance(type_obj, ir_types.IntegerType):
        if type_obj.width == 1:
            return np.dtype(bool)
        return np.dtype(np.int32) if type_obj.width <= 32 else np.dtype(np.int64)
    return np.dtype(np.float64)


__all__ = ["Cell", "FortranArray", "ElementPtr", "as_ndarray",
           "numpy_dtype_for"]
