"""Shared numeric semantics: one row per pure value op.

:data:`VALUE_OPS` is the only place the pure ``arith`` / ``math`` value ops
(float and integer binops, ``math`` unaries, pow, fma, ``atan2``, ``cmpi``,
``cmpf``, ``select``, ``negf`` and the casts) are spelled.  **Adding or
changing a value op is one row**; every consumer is a derivation of it:

* the ``reference`` engine runs one op at a time through the row's kernel —
  it stays an independent path, the oracle the other forms are checked
  against (``tests/machine/test_op_table.py``);
* the ``compiled`` engine builds one thunk per op from the row's template
  (or a kernel call), arity and stats rule;
* the ``jit`` emits the template as source (fallback: a bound kernel call);
* the ``vector`` engine aligns the operands and calls the whole-array kernel;
* the nest matcher reads membership and the stats category off the table;
* the canonicalizer's constant folder evaluates ``foldable`` rows through
  the same kernel, so folded constants can never diverge from interpreted
  results.

Columns of a row (:class:`ValueOp`):

``arity``
    operand count; the kernel takes the operands in op order.
``kernel``
    the scalar *and* ndarray semantics.  With ``per_op`` it is instead a
    resolver ``op -> kernel`` (``cmpi`` / ``cmpf`` predicate, cast target).
``array_kernel``
    the whole-array form, only where it differs from ``kernel`` (it may
    raise :class:`Declined` when it cannot be bit-identical per element).
``template``
    a Python expression over ``{0}``, ``{1}``, ... equal to the kernel on
    every operand the engines produce, or ``None`` (call the kernel).
    ``guarded`` marks a template that raises ``ArithmeticError`` where the
    kernel returns the IEEE value: generated code keeps the raw operator in
    a ``try`` whose ``except`` arm calls the kernel.
``category`` / ``index_rule`` / ``vector_category`` / ``probe``
    the statistics rule: one execution bumps ``vector_category`` when the
    probed value (the ``"result"``, or ``"operand"`` 0) is an ndarray of
    more than one element, else ``category`` — ``"index_arith"`` instead
    when ``index_rule`` is set and operand 0 is index-typed.  ``probe`` is
    ``None`` for ops that always bump ``category``.
``foldable`` / ``right_identity``
    what the canonicalizer may do with constant operands.

The numeric conventions follow the LLVM/MLIR reference semantics:

* ``divsi``/``remsi`` truncate toward zero (remainder takes the dividend's
  sign); ``floordivsi``/``ceildivsi`` round toward -inf/+inf.  Division by
  zero — undefined behaviour in LLVM — consistently yields 0 on every path
  (scalar and ndarray).
* ``divf`` and the pow family are IEEE-754 on Python floats as on ndarrays:
  ``x / 0.0`` is ``±inf`` or NaN, a negative base to a fractional exponent
  is NaN (never a ``complex``), overflow is ``±inf``.
* unsigned ``cmpi`` predicates compare the two's-complement reinterpretation
  of the operands at the operand type's width.
* ``cmpf`` predicates are NaN-aware: ``o*`` forms are false when either
  operand is NaN, ``u*`` forms are true, ``ord``/``uno`` test for NaN.
  All forms are vectorized (ndarray operands produce boolean ndarrays).

The ``vector`` dialect's memory and reduction ops are defined here too.
"""

from __future__ import annotations

import math as pymath
import operator
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..ir import types as ir_types

#: Version of the numeric semantics every engine evaluates through.  Bump
#: whenever a row's kernel or template (or any other kernel in this module)
#: changes observable behaviour: persisted jit translations are salted with
#: this constant, so a bump retires every stored translation as a clean
#: cache miss — exactly like the service's ``KEY_SCHEMA_VERSION`` retires
#: artifacts.
#: v2: IEEE ``divf`` / pow on Python floats (was ``ZeroDivisionError``,
#: ``OverflowError`` or a ``complex``).
SEMANTICS_VERSION = 2


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


def cmpi_kernel(predicate: str, width: int):
    """The ``arith.cmpi`` kernel for one predicate at one operand width."""
    fn = CMPI_SIGNED.get(predicate)
    if fn is not None:
        return fn
    fn = CMPI_UNSIGNED[predicate]
    return lambda a, b: fn(as_unsigned(a, width), as_unsigned(b, width))


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
# Float division and pow (IEEE-754 / LLVM fdiv, llvm.pow)
# ---------------------------------------------------------------------------
#
# NumPy scalars and ndarrays already follow IEEE-754; only Python floats
# raise (or, for a negative base, silently go complex).  The raw operator
# stays the fast path and the exceptional cases are recomputed by NumPy.

def _ieee(ufunc, a, b) -> float:
    with np.errstate(all="ignore"):
        return float(ufunc(np.float64(a), np.float64(b)))


def float_div(a, b):
    """``arith.divf``: ``x / 0.0`` is ``±inf`` (NaN for ``0.0 / 0.0``)."""
    try:
        return a / b
    except ZeroDivisionError:
        return _ieee(np.divide, a, b)


def float_pow(a, b):
    """``math.powf`` / ``fpowi`` / ``ipowi``: a negative base to a
    fractional exponent is NaN, ``0.0 ** -1.0`` and overflow are ``±inf``."""
    try:
        result = a ** b
    except ArithmeticError:
        return _ieee(np.power, a, b)
    return _ieee(np.power, a, b) if type(result) is complex else result


# ---------------------------------------------------------------------------
# Whole-array forms that differ from the per-element kernel
# ---------------------------------------------------------------------------

class Declined(Exception):
    """A whole-array kernel cannot prove itself bit-identical to the
    per-element one on these operands; the caller evaluates per element."""


def select_where(cond, a, b):
    """``arith.select`` over a condition grid: ``np.where`` guarded so dtype
    promotion cannot change values."""
    if not isinstance(cond, np.ndarray):
        return a if cond else b
    a_arr = isinstance(a, np.ndarray)
    b_arr = isinstance(b, np.ndarray)
    if a_arr and b_arr:
        if a.dtype != b.dtype:
            raise Declined
        return np.where(cond, a, b)
    # a mixed (array, Python scalar) pair is only promotion-safe when
    # everything is already IEEE double
    f64a = a.dtype == np.float64 if a_arr else type(a) is float
    f64b = b.dtype == np.float64 if b_arr else type(b) is float
    if f64a and f64b:
        return np.where(cond, a, b)
    raise Declined


def int_grid(x: np.ndarray) -> np.ndarray:
    """Grid equivalent of per-element ``int(...)`` (trunc, guarded)."""
    if x.dtype.kind == "f" and (not np.all(np.isfinite(x))
                                or np.any(np.abs(x) >= 2 ** 63)):
        raise Declined      # per-element int() would raise
    return x.astype(np.int64)


def _i1_aware(bitwise):
    """``andi`` / ``ori`` / ``xori``: logical on i1 (both operands taken as
    Python bools when the first is one), bitwise on everything else."""
    def kernel(a, b):
        if isinstance(a, (bool, np.bool_)):
            return bitwise(bool(a), bool(b))
        return bitwise(a, b)
    return kernel


def _identity(value):
    return value


def _cast_kernel(op):
    """``float`` / ``bool`` / ``int`` for a scalar cast target; any other
    target type passes the value through."""
    target = op.results[0].type
    if isinstance(target, ir_types.FloatType):
        return float
    if isinstance(target, ir_types.IntegerType) and target.width == 1:
        return bool
    if isinstance(target, (ir_types.IntegerType, ir_types.IndexType)):
        return int
    return _identity


_ARRAY_CASTS = {float: lambda x: x.astype(np.float64),
                bool: lambda x: x.astype(bool), int: int_grid}


def _cast_array_kernel(op):
    return _ARRAY_CASTS.get(_cast_kernel(op), _identity)


# ---------------------------------------------------------------------------
# The value-op table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ValueOp:
    """One row of :data:`VALUE_OPS`; the module docstring explains the
    columns."""

    name: str
    arity: int
    kernel: Callable
    category: str
    _: KW_ONLY
    array_kernel: Optional[Callable] = None
    per_op: bool = False
    template: Optional[str] = None
    guarded: bool = False
    index_rule: bool = False
    vector_category: Optional[str] = None
    probe: Optional[str] = None
    foldable: bool = False
    right_identity: Union[int, float, None] = None

    def bind(self, op):
        """The scalar/ndarray kernel for ``op``."""
        return self.kernel(op) if self.per_op else self.kernel

    def bind_array(self, op):
        """The whole-array kernel for ``op``."""
        if self.array_kernel is None:
            return self.bind(op)
        return self.array_kernel(op) if self.per_op else self.array_kernel

    def scalar_category(self, op) -> str:
        """The statistics category ``op`` bumps on non-ndarray values."""
        if self.index_rule \
                and isinstance(op.operands[0].type, ir_types.IndexType):
            return "index_arith"
        return self.category


def _float_binop(name, kernel, **columns):
    return ValueOp(name, 2, kernel, "float_arith",
                   vector_category="vector_float", probe="result", **columns)


def _int_binop(name, kernel, **columns):
    return ValueOp(name, 2, kernel, "int_arith", index_rule=True,
                   vector_category="vector_int", probe="result", **columns)


def _float_fn(name, arity, kernel, category="float_math", **columns):
    return ValueOp(name, arity, kernel, category,
                   vector_category="vector_float", probe="operand", **columns)


def _cast(name, **columns):
    return ValueOp(name, 1, _cast_kernel, "cast", per_op=True,
                   array_kernel=_cast_array_kernel, **columns)


def _fma(a, b, c):
    return a * b + c


#: op name -> :class:`ValueOp`, for every pure value op the engines execute.
VALUE_OPS = {row.name: row for row in (
    _float_binop("arith.addf", operator.add, template="{0} + {1}",
                 foldable=True, right_identity=0.0),
    _float_binop("arith.subf", operator.sub, template="{0} - {1}",
                 foldable=True, right_identity=0.0),
    _float_binop("arith.mulf", operator.mul, template="{0} * {1}",
                 foldable=True, right_identity=1.0),
    _float_binop("arith.divf", float_div, template="{0} / {1}", guarded=True,
                 foldable=True, right_identity=1.0),
    _float_binop("arith.remf", np.fmod),
    _float_binop("arith.maximumf", np.maximum, foldable=True),
    _float_binop("arith.minimumf", np.minimum, foldable=True),
    _int_binop("arith.addi", operator.add, template="{0} + {1}",
               foldable=True, right_identity=0),
    _int_binop("arith.subi", operator.sub, template="{0} - {1}",
               foldable=True, right_identity=0),
    _int_binop("arith.muli", operator.mul, template="{0} * {1}",
               foldable=True, right_identity=1),
    _int_binop("arith.divsi", int_div, foldable=True, right_identity=1),
    _int_binop("arith.floordivsi", int_floordiv, foldable=True),
    _int_binop("arith.ceildivsi", int_ceildiv, foldable=True),
    _int_binop("arith.remsi", int_rem, foldable=True),
    _int_binop("arith.andi", _i1_aware(operator.and_),
               array_kernel=operator.and_, foldable=True),
    _int_binop("arith.ori", _i1_aware(operator.or_),
               array_kernel=operator.or_, foldable=True),
    _int_binop("arith.xori", _i1_aware(operator.xor),
               array_kernel=operator.xor, foldable=True),
    _int_binop("arith.maxsi", max, array_kernel=np.maximum, foldable=True),
    _int_binop("arith.minsi", min, array_kernel=np.minimum, foldable=True),
    _int_binop("arith.shli", operator.lshift, template="{0} << {1}"),
    _int_binop("arith.shrsi", operator.rshift, template="{0} >> {1}"),
    _float_fn("math.sqrt", 1, np.sqrt), _float_fn("math.exp", 1, np.exp),
    _float_fn("math.log", 1, np.log), _float_fn("math.log10", 1, np.log10),
    _float_fn("math.sin", 1, np.sin), _float_fn("math.cos", 1, np.cos),
    _float_fn("math.tan", 1, np.tan), _float_fn("math.tanh", 1, np.tanh),
    _float_fn("math.atan", 1, np.arctan), _float_fn("math.absf", 1, np.abs),
    _float_fn("math.absi", 1, abs),
    _float_fn("math.atan2", 2, np.arctan2),
    *(_float_fn(name, 2, float_pow)
      for name in ("math.powf", "math.fpowi", "math.ipowi")),
    _float_fn("math.fma", 3, _fma, "float_fma", template="{0} * {1} + {2}"),
    _float_fn("arith.negf", 1, operator.neg, "float_arith",
              template="-{0}"),
    ValueOp("arith.cmpi", 2,
            lambda op: cmpi_kernel(op.get_attr("predicate").value,
                                   int_width(op.operands[0].type)),
            "cmp", per_op=True, foldable=True),
    ValueOp("arith.cmpf", 2, lambda op: CMPF[op.get_attr("predicate").value],
            "cmp", per_op=True),
    ValueOp("arith.select", 3, lambda cond, a, b: a if cond else b,
            "int_arith", array_kernel=select_where,
            template="{1} if {0} else {2}"),
    _cast("arith.index_cast", foldable=True), _cast("arith.sitofp"),
    _cast("arith.fptosi"), _cast("arith.extf"), _cast("arith.truncf"),
    _cast("arith.extsi"), _cast("arith.extui"), _cast("arith.trunci"),
    _cast("arith.bitcast"),
)}


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
    """``vector.broadcast`` of one scalar."""
    return np.full(width, float(scalar))


__all__ = ["int_div", "int_rem", "int_floordiv", "int_ceildiv",
           "float_div", "float_pow", "CMPI_SIGNED", "CMPI_UNSIGNED", "CMPF",
           "int_width", "as_unsigned", "cmpi_kernel", "either_nan",
           "Declined", "select_where", "int_grid", "ValueOp", "VALUE_OPS",
           "VECTOR_REDUCTIONS", "vector_load", "vector_store",
           "vector_broadcast", "SEMANTICS_VERSION"]
