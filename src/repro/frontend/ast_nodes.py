"""Abstract syntax tree for the Fortran 90 subset handled by the frontend.

Nodes are small dataclasses; the parser produces them and the semantic
analyser annotates expressions with resolved :class:`~repro.frontend.ftypes`
types before lowering to HLFIR/FIR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


@dataclass
class SourceLocation:
    line: int
    column: int = 0

    def __str__(self):
        return f"line {self.line}"


# ---------------------------------------------------------------------------
# Types as written in declarations (pre-semantic)
# ---------------------------------------------------------------------------


@dataclass
class TypeSpec:
    """A declared type: base name plus kind, e.g. real(kind=8)."""

    name: str                      # integer | real | logical | character | type
    kind: int = 0                  # 0 = default kind
    derived_name: Optional[str] = None  # for type(name)
    char_length: Optional[int] = None


@dataclass
class DimSpec:
    """One dimension of an array declaration.

    ``lower``/``upper`` are expressions or None; a deferred shape (``:``)
    has both None and ``deferred=True``; an assumed shape dummy argument has
    ``assumed=True``.
    """

    lower: Optional["Expr"] = None
    upper: Optional["Expr"] = None
    deferred: bool = False
    assumed: bool = False


@dataclass
class EntityDecl:
    """A single declared entity within a declaration statement."""

    name: str
    dims: List[DimSpec] = field(default_factory=list)
    init: Optional["Expr"] = None
    char_length: Optional[int] = None


@dataclass
class Declaration:
    """``integer, dimension(10), intent(in) :: a, b(5)``"""

    type_spec: TypeSpec
    entities: List[EntityDecl]
    attributes: List[str] = field(default_factory=list)  # allocatable, parameter, ...
    intent: Optional[str] = None
    default_dims: List[DimSpec] = field(default_factory=list)
    loc: Optional[SourceLocation] = None


@dataclass
class DerivedTypeDef:
    name: str
    components: List[Declaration]
    loc: Optional[SourceLocation] = None


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class of expressions; ``ftype`` is filled in by semantics."""

    ftype = None
    loc: Optional[SourceLocation] = None


@dataclass
class IntLiteral(Expr):
    value: int
    kind: int = 4
    ftype: object = None
    loc: Optional[SourceLocation] = None


@dataclass
class RealLiteral(Expr):
    value: float
    kind: int = 4
    ftype: object = None
    loc: Optional[SourceLocation] = None


@dataclass
class LogicalLiteral(Expr):
    value: bool
    ftype: object = None
    loc: Optional[SourceLocation] = None


@dataclass
class CharLiteral(Expr):
    value: str
    ftype: object = None
    loc: Optional[SourceLocation] = None


@dataclass
class Identifier(Expr):
    name: str
    ftype: object = None
    loc: Optional[SourceLocation] = None


@dataclass
class BinaryOp(Expr):
    op: str            # + - * / ** == /= < <= > >= .and. .or. .eqv. .neqv. //
    lhs: Expr = None
    rhs: Expr = None
    ftype: object = None
    loc: Optional[SourceLocation] = None


@dataclass
class UnaryOp(Expr):
    op: str            # - + .not.
    operand: Expr = None
    ftype: object = None
    loc: Optional[SourceLocation] = None


@dataclass
class SliceTriplet(Expr):
    """An array-section subscript ``lo:hi:stride`` (all parts optional)."""

    lower: Optional[Expr] = None
    upper: Optional[Expr] = None
    stride: Optional[Expr] = None
    ftype: object = None
    loc: Optional[SourceLocation] = None


@dataclass
class CallOrIndex(Expr):
    """``name(args...)`` — resolved by semantics into ArrayRef / FunctionCall
    / IntrinsicCall."""

    name: str
    args: List[Expr] = field(default_factory=list)
    ftype: object = None
    loc: Optional[SourceLocation] = None


@dataclass
class ArrayRef(Expr):
    name: str
    indices: List[Expr] = field(default_factory=list)
    ftype: object = None
    loc: Optional[SourceLocation] = None


@dataclass
class FunctionCall(Expr):
    name: str
    args: List[Expr] = field(default_factory=list)
    ftype: object = None
    loc: Optional[SourceLocation] = None


@dataclass
class IntrinsicCall(Expr):
    name: str
    args: List[Expr] = field(default_factory=list)
    ftype: object = None
    loc: Optional[SourceLocation] = None


@dataclass
class ComponentRef(Expr):
    """Derived-type component access ``base%component``."""

    base: Expr = None
    component: str = ""
    ftype: object = None
    loc: Optional[SourceLocation] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class Assignment(Stmt):
    target: Expr = None
    value: Expr = None
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class PointerAssignment(Stmt):
    target: Expr = None
    value: Expr = None
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class IfBlock(Stmt):
    """if/else if/else chain: conditions[i] guards bodies[i]; the optional
    trailing else body is ``else_body``."""

    conditions: List[Expr] = field(default_factory=list)
    bodies: List[List[Stmt]] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class CaseRange:
    """One item of a CASE value list: a single value or an inclusive range.

    A single value has ``lower is upper`` semantics via ``is_range=False``;
    open-ended ranges (``:hi`` / ``lo:``) leave the missing bound ``None``.
    """

    lower: Optional[Expr] = None
    upper: Optional[Expr] = None
    is_range: bool = False


@dataclass
class CaseBlock:
    """One ``case (items)`` alternative of a SELECT CASE construct."""

    items: List[CaseRange] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)


@dataclass
class SelectCase(Stmt):
    """``select case (selector)`` ... ``end select``.

    The shared frontend desugars this into an :class:`IfBlock` chain during
    semantic analysis, so every compilation flow supports it uniformly.
    """

    selector: Expr = None
    cases: List[CaseBlock] = field(default_factory=list)
    default_body: List[Stmt] = field(default_factory=list)
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class DoLoop(Stmt):
    var: str = ""
    start: Expr = None
    end: Expr = None
    step: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None
    directives: List[str] = field(default_factory=list)  # e.g. ["omp parallel do"]


@dataclass
class DoWhile(Stmt):
    condition: Expr = None
    body: List[Stmt] = field(default_factory=list)
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class ExitStmt(Stmt):
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class CycleStmt(Stmt):
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class GotoStmt(Stmt):
    target_label: int = 0
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class ContinueStmt(Stmt):
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class CallStmt(Stmt):
    name: str = ""
    args: List[Expr] = field(default_factory=list)
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class AllocateStmt(Stmt):
    """``allocate(a(n), b(m, k))`` — allocations maps name -> dim exprs."""

    allocations: List[Tuple[str, List[Expr]]] = field(default_factory=list)
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class DeallocateStmt(Stmt):
    names: List[str] = field(default_factory=list)
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class ReturnStmt(Stmt):
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class StopStmt(Stmt):
    code: Optional[Expr] = None
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class PrintStmt(Stmt):
    items: List[Expr] = field(default_factory=list)
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


@dataclass
class DirectiveRegion(Stmt):
    """A region delimited by a directive pair, e.g. ``!$acc kernels`` ...
    ``!$acc end kernels`` or ``!$omp parallel`` ... ``!$omp end parallel``."""

    directive: str = ""
    clauses: str = ""
    body: List[Stmt] = field(default_factory=list)
    loc: Optional[SourceLocation] = None
    label: Optional[int] = None


# ---------------------------------------------------------------------------
# Program units
# ---------------------------------------------------------------------------


@dataclass
class Subprogram:
    """A subroutine or function."""

    kind: str                              # "subroutine" | "function" | "program"
    name: str
    args: List[str] = field(default_factory=list)
    result_name: Optional[str] = None      # for functions
    result_type: Optional[TypeSpec] = None
    declarations: List[Declaration] = field(default_factory=list)
    derived_types: List[DerivedTypeDef] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    contains: List["Subprogram"] = field(default_factory=list)
    loc: Optional[SourceLocation] = None


@dataclass
class ModuleUnit:
    name: str
    declarations: List[Declaration] = field(default_factory=list)
    derived_types: List[DerivedTypeDef] = field(default_factory=list)
    subprograms: List[Subprogram] = field(default_factory=list)
    loc: Optional[SourceLocation] = None


@dataclass
class CompilationUnit:
    """A whole source file."""

    modules: List[ModuleUnit] = field(default_factory=list)
    subprograms: List[Subprogram] = field(default_factory=list)
    #: every top-level unit in source order, with the first and the last
    #: source line the parser consumed for it (filled in by the parser)
    spans: List[Tuple[Union[ModuleUnit, Subprogram], int, int]] = field(
        default_factory=list)

    def all_subprograms(self) -> List[Subprogram]:
        out: List[Subprogram] = []
        for m in self.modules:
            out.extend(m.subprograms)
        out.extend(self.subprograms)
        # include nested (contains) subprograms
        nested: List[Subprogram] = []
        for sp in out:
            nested.extend(sp.contains)
        return out + nested

    def find_subprogram(self, name: str) -> Optional[Subprogram]:
        for sp in self.all_subprograms():
            if sp.name == name:
                return sp
        return None

    def main_program(self) -> Optional[Subprogram]:
        for sp in self.all_subprograms():
            if sp.kind == "program":
                return sp
        return None


__all__ = [name for name in dir() if not name.startswith("_")]
