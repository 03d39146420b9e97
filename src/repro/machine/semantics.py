"""Shared numeric semantics for ``arith`` and ``vector`` operations.

Single source of truth for the value-level behaviour of integer division /
remainder, integer / float comparisons and the ``vector`` dialect's memory
and reduction ops, following the LLVM/MLIR reference semantics:

* ``divsi``/``remsi`` truncate toward zero (remainder takes the dividend's
  sign); ``floordivsi``/``ceildivsi`` round toward -inf/+inf.  Division by
  zero — undefined behaviour in LLVM — consistently yields 0 on every path
  (scalar and ndarray).
* unsigned ``cmpi`` predicates compare the two's-complement reinterpretation
  of the operands at the operand type's width.
* ``cmpf`` predicates are NaN-aware: ``o*`` forms are false when either
  operand is NaN, ``u*`` forms are true, ``ord``/``uno`` test for NaN.
  All forms are vectorized (ndarray operands produce boolean ndarrays).

Both the interpreter (:mod:`repro.machine.interpreter`) and the
canonicalizer's constant folder (:mod:`repro.transforms.cleanup`) evaluate
through these kernels, so folded constants can never diverge from
interpreted results.
"""

from __future__ import annotations

import math as pymath

import numpy as np

from ..ir import types as ir_types

#: Version of the numeric semantics every engine evaluates through.  Bump
#: whenever any kernel in this module (or the generated-code emission that
#: calls into it) changes observable behaviour: persisted jit translations
#: are salted with this constant, so a bump retires every stored translation
#: as a clean cache miss — exactly like the service's ``KEY_SCHEMA_VERSION``
#: retires artifacts.
SEMANTICS_VERSION = 1


# ---------------------------------------------------------------------------
# Integer division family (LLVM sdiv/srem + MLIR floordivsi/ceildivsi)
# ---------------------------------------------------------------------------

def int_div(a, b):
    """``arith.divsi``: truncate toward zero; division by zero yields 0."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        safe = np.where(b_arr == 0, 1, b_arr)
        q = np.abs(a_arr) // np.abs(safe)
        q = np.where((a_arr < 0) != (safe < 0), -q, q)
        return np.where(b_arr == 0, 0, q)
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def int_rem(a, b):
    """``arith.remsi``: truncated remainder (sign of the dividend);
    remainder by zero yields 0, matching :func:`int_div`."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        b_arr = np.asarray(b)
        r = np.fmod(a, np.where(b_arr == 0, 1, b_arr))
        return np.where(b_arr == 0, 0, r)
    if b == 0:
        return 0
    return a - int_div(a, b) * b


def int_floordiv(a, b):
    """``arith.floordivsi``: round toward negative infinity; b == 0 -> 0."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        b_arr = np.asarray(b)
        q = np.asarray(a) // np.where(b_arr == 0, 1, b_arr)
        return np.where(b_arr == 0, 0, q)
    return a // b if b else 0


def int_ceildiv(a, b):
    """``arith.ceildivsi``: round toward positive infinity; b == 0 -> 0."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return -int_floordiv(-np.asarray(a), b)
    return -((-a) // b) if b else 0


# ---------------------------------------------------------------------------
# Integer comparisons
# ---------------------------------------------------------------------------
#
# Signed predicates map directly onto Python/NumPy comparisons.  Unsigned
# predicates compare the two's-complement reinterpretation at the operand
# type's width, so e.g. ``-1 ugt 1`` is true for every width.

CMPI_SIGNED = {"eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
               "slt": lambda a, b: a < b, "sle": lambda a, b: a <= b,
               "sgt": lambda a, b: a > b, "sge": lambda a, b: a >= b}
CMPI_UNSIGNED = {"ult": lambda a, b: a < b, "ule": lambda a, b: a <= b,
                 "ugt": lambda a, b: a > b, "uge": lambda a, b: a >= b}

_UNSIGNED_NP_DTYPE = ((8, np.uint8), (16, np.uint16), (32, np.uint32),
                      (64, np.uint64))


def int_width(type_obj) -> int:
    """Bit width of an integer-like IR type (index counts as word-sized)."""
    if isinstance(type_obj, ir_types.IntegerType):
        return type_obj.width
    if isinstance(type_obj, ir_types.VectorType):
        return int_width(type_obj.element_type)
    return 64  # index and anything else: target word size


def as_unsigned(value, width: int):
    """Two's-complement reinterpretation of ``value`` at ``width`` bits."""
    if isinstance(value, np.ndarray):
        for w, dtype in _UNSIGNED_NP_DTYPE:
            if width <= w:
                converted = value.astype(dtype)
                # sub-dtype widths (e.g. i1 vectors) still mask at `width`
                return converted if width == w \
                    else converted & dtype((1 << width) - 1)
        return value.astype(np.uint64)
    return int(value) & ((1 << width) - 1)


def cmpi_eval(predicate: str, width: int, a, b):
    """Evaluate an ``arith.cmpi`` predicate on scalars or ndarrays."""
    fn = CMPI_SIGNED.get(predicate)
    if fn is not None:
        return fn(a, b)
    return CMPI_UNSIGNED[predicate](as_unsigned(a, width),
                                    as_unsigned(b, width))


# ---------------------------------------------------------------------------
# Float comparisons (IEEE-754 / LLVM fcmp)
# ---------------------------------------------------------------------------
#
# Python and NumPy comparisons are already NaN-correct for every ordered
# predicate except ``one`` (``!=`` is an *unordered* inequality), so only
# ``one`` and the ``u*`` family need an explicit NaN term.

def _scalar_isnan(value) -> bool:
    try:
        return pymath.isnan(value)
    except TypeError:
        return False


def either_nan(a, b):
    """NaN test on either operand: bool for scalars, mask for ndarrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.isnan(a) | np.isnan(b)
    return _scalar_isnan(a) or _scalar_isnan(b)


def _ordered_and(base):
    def pred(a, b):
        nan = either_nan(a, b)
        if isinstance(nan, np.ndarray):
            return ~nan & base(a, b)
        return False if nan else base(a, b)
    return pred


def _unordered_or(base):
    def pred(a, b):
        nan = either_nan(a, b)
        if isinstance(nan, np.ndarray):
            return nan | base(a, b)
        return True if nan else base(a, b)
    return pred


def _ord(a, b):
    nan = either_nan(a, b)
    return ~nan if isinstance(nan, np.ndarray) else not nan


CMPF = {
    # NaN-correct as plain comparisons (both Python and NumPy)
    "oeq": lambda a, b: a == b, "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b, "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
    "one": _ordered_and(lambda a, b: a != b),
    "ord": _ord,
    "uno": either_nan,
    # ``!=`` is already the unordered inequality
    "une": lambda a, b: a != b,
    "ueq": _unordered_or(lambda a, b: a == b),
    "ult": _unordered_or(lambda a, b: a < b),
    "ule": _unordered_or(lambda a, b: a <= b),
    "ugt": _unordered_or(lambda a, b: a > b),
    "uge": _unordered_or(lambda a, b: a >= b),
}


# ---------------------------------------------------------------------------
# Vector dialect (the output of affine-super-vectorize)
# ---------------------------------------------------------------------------
#
# ``indices`` is the already-mapped subscript tuple: leading entries select a
# row, the last is the start of the lane window along the innermost axis.

VECTOR_REDUCTIONS = {"add": np.sum, "mul": np.prod, "minf": np.min,
                     "maxf": np.max, "minsi": np.min, "maxsi": np.max}


def vector_load(memref_value, indices, width: int):
    """``vector.load``: ``width`` lanes from ``indices``; lanes past the end
    of the row (a ragged last vector) read as zero."""
    lead, last = indices[:-1], indices[-1]
    row = memref_value[lead] if lead else memref_value
    chunk = np.array(row[last:min(last + width, row.shape[-1])], dtype=float)
    if chunk.size < width:
        chunk = np.pad(chunk, (0, width - chunk.size))
    return chunk


def vector_store(memref_value, indices, value) -> None:
    """``vector.store``: lanes past the end of the row are dropped."""
    lead, last = indices[:-1], indices[-1]
    row = memref_value[lead] if lead else memref_value
    end = min(last + len(value), row.shape[-1])
    row[last:end] = value[:end - last]


def vector_broadcast(scalar, width: int):
    """``vector.broadcast`` / ``vector.splat`` of one scalar."""
    return np.full(width, float(scalar))


__all__ = ["int_div", "int_rem", "int_floordiv", "int_ceildiv",
           "CMPI_SIGNED", "CMPI_UNSIGNED", "CMPF",
           "int_width", "as_unsigned", "cmpi_eval", "either_nan",
           "VECTOR_REDUCTIONS", "vector_load", "vector_store",
           "vector_broadcast", "SEMANTICS_VERSION"]
