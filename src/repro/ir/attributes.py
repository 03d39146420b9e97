"""Attribute hierarchy for the MLIR-like IR.

Attributes are immutable, hashable compile-time values attached to
operations (and, following MLIR, types are themselves attributes).  Only the
attribute kinds actually used by the dialects in this reproduction are
provided, but the base classes mirror MLIR closely enough that new kinds can
be added by subclassing :class:`Attribute`.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator, Sequence, Tuple


class Attribute:
    """Base class of all attributes (and, transitively, all types)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> Tuple[Any, ...]:
        """Structural identity key; subclasses must override."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._key()})"

    # Pretty, MLIR-ish syntax used by the printer.
    def mlir(self) -> str:
        return repr(self)


class BoolAttr(Attribute):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = bool(value)

    def _key(self):
        return (self.value,)

    def mlir(self) -> str:
        return "true" if self.value else "false"


class IntegerAttr(Attribute):
    """An integer constant, optionally carrying its type."""

    __slots__ = ("value", "type")

    def __init__(self, value: int, type: "Attribute | None" = None):
        self.value = int(value)
        self.type = type

    def _key(self):
        return (self.value, self.type)

    def mlir(self) -> str:
        if self.type is not None:
            return f"{self.value} : {self.type.mlir()}"
        return str(self.value)


class FloatAttr(Attribute):
    __slots__ = ("value", "type")

    def __init__(self, value: float, type: "Attribute | None" = None):
        self.value = float(value)
        self.type = type

    def _key(self):
        return (self.value, self.type)

    def mlir(self) -> str:
        if self.type is not None:
            return f"{self.value} : {self.type.mlir()}"
        return str(self.value)


class StringAttr(Attribute):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = str(value)

    def _key(self):
        return (self.value,)

    def mlir(self) -> str:
        return f'"{self.value}"'


class SymbolRefAttr(Attribute):
    """Reference to a symbol (e.g. a function) by name."""

    __slots__ = ("root", "nested")

    def __init__(self, root: str, nested: Sequence[str] = ()):
        self.root = root
        self.nested = tuple(nested)

    def _key(self):
        return (self.root, self.nested)

    def mlir(self) -> str:
        out = f"@{self.root}"
        for n in self.nested:
            out += f"::@{n}"
        return out


class TypeAttr(Attribute):
    """Wraps a type so it can be stored in an attribute dictionary."""

    __slots__ = ("type",)

    def __init__(self, type: Attribute):
        self.type = type

    def _key(self):
        return (self.type,)

    def mlir(self) -> str:
        return self.type.mlir()


class ArrayAttr(Attribute):
    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[Attribute]):
        self.elements = tuple(elements)

    def _key(self):
        return (self.elements,)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, idx: int) -> Attribute:
        return self.elements[idx]

    def mlir(self) -> str:
        return "[" + ", ".join(e.mlir() for e in self.elements) + "]"


class DenseIntElementsAttr(Attribute):
    """Small dense integer element attribute (e.g. ``array<i64: 1, 2>``)."""

    __slots__ = ("values", "element_type")

    def __init__(self, values: Iterable[int], element_type: "Attribute | None" = None):
        self.values = tuple(int(v) for v in values)
        self.element_type = element_type

    def _key(self):
        return (self.values, self.element_type)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def mlir(self) -> str:
        et = self.element_type.mlir() if self.element_type is not None else "i64"
        return f"array<{et}: " + ", ".join(str(v) for v in self.values) + ">"


class AffineExpr:
    """A tiny affine-expression tree used by :class:`AffineMapAttr`.

    Supported node kinds: dimension (``d<i>``), symbol (``s<i>``), constant,
    add, mul, floordiv, ceildiv and mod with affine restrictions left to the
    verifier of the affine dialect.
    """

    __slots__ = ("kind", "value", "lhs", "rhs")

    def __init__(self, kind: str, value: int = 0, lhs: "AffineExpr | None" = None,
                 rhs: "AffineExpr | None" = None):
        self.kind = kind
        self.value = value
        self.lhs = lhs
        self.rhs = rhs

    # -- constructors ------------------------------------------------------
    @staticmethod
    def dim(position: int) -> "AffineExpr":
        return AffineExpr("dim", position)

    @staticmethod
    def symbol(position: int) -> "AffineExpr":
        return AffineExpr("sym", position)

    @staticmethod
    def constant(value: int) -> "AffineExpr":
        return AffineExpr("const", value)

    def _binop(self, kind: str, other: "AffineExpr | int") -> "AffineExpr":
        if isinstance(other, int):
            other = AffineExpr.constant(other)
        return AffineExpr(kind, 0, self, other)

    def __add__(self, other):
        return self._binop("add", other)

    def __mul__(self, other):
        return self._binop("mul", other)

    def __mod__(self, other):
        return self._binop("mod", other)

    def floordiv(self, other):
        return self._binop("floordiv", other)

    def ceildiv(self, other):
        return self._binop("ceildiv", other)

    # -- evaluation --------------------------------------------------------
    def evaluate(self, dims: Sequence[int], syms: Sequence[int] = ()) -> int:
        if self.kind == "dim":
            return dims[self.value]
        if self.kind == "sym":
            return syms[self.value]
        if self.kind == "const":
            return self.value
        lhs = self.lhs.evaluate(dims, syms)
        rhs = self.rhs.evaluate(dims, syms)
        if self.kind == "add":
            return lhs + rhs
        if self.kind == "mul":
            return lhs * rhs
        if self.kind == "mod":
            return lhs % rhs
        if self.kind == "floordiv":
            return lhs // rhs
        if self.kind == "ceildiv":
            return -((-lhs) // rhs)
        raise ValueError(f"unknown affine expr kind {self.kind}")

    def __str__(self) -> str:
        if self.kind == "dim":
            return f"d{self.value}"
        if self.kind == "sym":
            return f"s{self.value}"
        if self.kind == "const":
            return str(self.value)
        ops = {"add": "+", "mul": "*", "mod": "mod", "floordiv": "floordiv",
               "ceildiv": "ceildiv"}
        return f"({self.lhs} {ops[self.kind]} {self.rhs})"

    def __eq__(self, other):
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return str(self) == str(other)

    def __hash__(self):
        return hash(str(self))


class AffineMapAttr(Attribute):
    """An affine map ``(d0, .., dn)[s0, .., sm] -> (expr, ...)``."""

    __slots__ = ("num_dims", "num_symbols", "results")

    def __init__(self, num_dims: int, num_symbols: int,
                 results: Sequence[AffineExpr]):
        self.num_dims = num_dims
        self.num_symbols = num_symbols
        self.results = tuple(results)

    @staticmethod
    def identity(rank: int) -> "AffineMapAttr":
        return AffineMapAttr(rank, 0, [AffineExpr.dim(i) for i in range(rank)])

    @staticmethod
    def constant_map(value: int) -> "AffineMapAttr":
        return AffineMapAttr(0, 0, [AffineExpr.constant(value)])

    def evaluate(self, dims: Sequence[int], syms: Sequence[int] = ()) -> Tuple[int, ...]:
        return tuple(r.evaluate(dims, syms) for r in self.results)

    def compiled(self) -> "CompiledAffineMap":
        """The straight-line form of this map, built once per map
        *structure* and shared by every structurally equal attribute."""
        key = self._key()
        form = _COMPILED_MAPS.get(key)
        if form is None:
            with _COMPILED_MAPS_LOCK:
                if len(_COMPILED_MAPS) >= _COMPILED_MAPS_MAX:
                    del _COMPILED_MAPS[next(iter(_COMPILED_MAPS))]
                form = _COMPILED_MAPS[key] = CompiledAffineMap(self)
        return form

    def _key(self):
        return (self.num_dims, self.num_symbols,
                tuple(str(r) for r in self.results))

    def mlir(self) -> str:
        dims = ", ".join(f"d{i}" for i in range(self.num_dims))
        syms = ", ".join(f"s{i}" for i in range(self.num_symbols))
        res = ", ".join(str(r) for r in self.results)
        sym_part = f"[{syms}]" if self.num_symbols else ""
        return f"affine_map<({dims}){sym_part} -> ({res})>"


#: ``(x + c1) + c2`` becomes ``x + (c1 + c2)`` only for index-sized
#: constants: on an int64 ndarray the two-step sum wraps where the folded
#: constant would no longer convert.
_REASSOCIATE_BELOW = 2 ** 31


def _simplify(expr: AffineExpr) -> AffineExpr:
    """Fold what is exact on Python ints and on integer ndarrays alike:
    constant subtrees, ``x + 0``, ``x * 1`` and ``(x + c1) + c2``.

    Division or remainder by a constant zero is left in place so it still
    raises where the tree-walk raises: when the map is evaluated.
    """
    if expr.kind in ("dim", "sym", "const"):
        return expr
    kind, lhs, rhs = expr.kind, _simplify(expr.lhs), _simplify(expr.rhs)
    if kind in ("add", "mul") and lhs.kind == "const" and rhs.kind != "const":
        lhs, rhs = rhs, lhs                 # commutative: constant on the right
    if rhs.kind == "const":
        c = rhs.value
        if lhs.kind == "const" and (c != 0 or kind in ("add", "mul")):
            return AffineExpr.constant(
                AffineExpr(kind, 0, lhs, rhs).evaluate((), ()))
        if (kind == "add" and c == 0) or (kind == "mul" and c == 1):
            return lhs
        if kind == "add" and lhs.kind == "add" and lhs.rhs.kind == "const" \
                and abs(lhs.rhs.value) + abs(c) < _REASSOCIATE_BELOW:
            return _simplify(AffineExpr(
                "add", 0, lhs.lhs, AffineExpr.constant(lhs.rhs.value + c)))
    return AffineExpr(kind, 0, lhs, rhs)


def _render(expr: AffineExpr, names: Sequence[str], num_dims: int,
            nested: bool = True) -> str:
    """Python source of an expression over ``names`` (one per map operand:
    dims first, then symbols), with exactly the tree-walk's operators."""
    kind = expr.kind
    if kind == "dim":
        return names[expr.value]
    if kind == "sym":
        return names[num_dims + expr.value]
    if kind == "const":
        return repr(expr.value)
    lhs = _render(expr.lhs, names, num_dims)
    rhs = _render(expr.rhs, names, num_dims)
    if kind == "add":
        negative = expr.rhs.kind == "const" and expr.rhs.value < 0
        text = f"{lhs} - {-expr.rhs.value!r}" if negative else f"{lhs} + {rhs}"
    elif kind == "mul":
        text = f"{lhs} * {rhs}"
    elif kind == "mod":
        text = f"{lhs} % {rhs}"
    elif kind == "floordiv":
        text = f"{lhs} // {rhs}"
    elif kind == "ceildiv":
        text = f"-((-{lhs}) // {rhs})"
    else:
        raise ValueError(f"unknown affine expr kind {kind}")
    return f"({text})" if nested else text


class CompiledAffineMap:
    """An affine map as straight-line Python over its positional operands
    (dims first, then symbols — the order of the operands on the op).

    ``call(*operands)`` returns the result tuple and ``scalar(*operands)``
    the bare first result; both accept ints or integer ndarrays and equal
    :meth:`AffineMapAttr.evaluate` exactly.  ``identity`` marks a map that
    returns its operands unchanged, ``constants`` holds the results of a map
    that ignores them (``None`` otherwise), and :meth:`sources` renders the
    results over caller-chosen operand names for code generators.
    """

    __slots__ = ("num_dims", "exprs", "call", "scalar", "identity",
                 "constants")

    def __init__(self, amap: AffineMapAttr):
        self.num_dims = amap.num_dims
        arity = amap.num_dims + amap.num_symbols
        self.exprs = tuple(_simplify(r) for r in amap.results)
        self.identity = amap.num_symbols == 0 \
            and len(self.exprs) == arity \
            and all(e.kind == "dim" and e.value == i
                    for i, e in enumerate(self.exprs))
        self.constants = tuple(e.value for e in self.exprs) \
            if all(e.kind == "const" for e in self.exprs) else None
        params = [f"o{i}" for i in range(arity)]
        sources = self.sources(params)
        head = f"lambda {', '.join(params)}: "
        self.call = eval(head + "(" + "".join(s + ", " for s in sources) + ")")
        self.scalar = eval(head + sources[0]) if sources else None

    def sources(self, names: Sequence[str]) -> Tuple[str, ...]:
        """One Python expression per map result over operand ``names``."""
        return tuple(_render(e, names, self.num_dims, nested=False)
                     for e in self.exprs)


#: ``AffineMapAttr._key()`` -> compiled form.  Keyed on structure and kept
#: off the attribute, so attributes stay plain data for ``clone``.  Holds
#: no IR; bounded, oldest entry out first.
_COMPILED_MAPS: dict = {}
_COMPILED_MAPS_MAX = 4096
_COMPILED_MAPS_LOCK = threading.Lock()


__all__ = [
    "Attribute",
    "BoolAttr",
    "IntegerAttr",
    "FloatAttr",
    "StringAttr",
    "SymbolRefAttr",
    "TypeAttr",
    "ArrayAttr",
    "DenseIntElementsAttr",
    "AffineExpr",
    "AffineMapAttr",
    "CompiledAffineMap",
]
