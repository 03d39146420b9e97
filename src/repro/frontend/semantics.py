"""Semantic analysis: symbol tables, name resolution and expression typing.

The analyser resolves every ``CallOrIndex`` into an array reference,
intrinsic call or function call, annotates every expression with its resolved
:class:`~repro.frontend.ftypes.FType`, and records per-subprogram symbol
tables used by the HLFIR/FIR lowering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import ast_nodes as ast
from . import ftypes, intrinsics
from .ftypes import ArrayDim, FType


class SemanticError(Exception):
    pass


@dataclass
class Symbol:
    name: str
    ftype: FType
    is_argument: bool = False
    intent: Optional[str] = None
    is_parameter: bool = False
    parameter_value: Optional[object] = None
    #: folded ``integer :: k = 3`` initialiser of a non-parameter entity
    initial_value: Optional[object] = None
    is_function_result: bool = False
    is_global: bool = False
    #: dimension bound expressions that could not be folded to constants
    dynamic_bounds: List[Tuple[Optional[ast.Expr], Optional[ast.Expr]]] = field(
        default_factory=list)


@dataclass
class DerivedType:
    name: str
    components: List[Tuple[str, FType]]

    def component_type(self, name: str) -> FType:
        for comp, t in self.components:
            if comp == name:
                return t
        raise SemanticError(f"derived type {self.name} has no component {name}")


class SymbolTable:
    def __init__(self, parent: Optional["SymbolTable"] = None):
        self.symbols: Dict[str, Symbol] = {}
        self.parent = parent

    def define(self, symbol: Symbol) -> Symbol:
        self.symbols[symbol.name] = symbol
        return symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        if name in self.symbols:
            return self.symbols[name]
        if self.parent is not None:
            return self.parent.lookup(name)
        return None

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def values(self):
        return self.symbols.values()


@dataclass
class SubprogramInfo:
    """Analysis results for one subprogram."""

    subprogram: ast.Subprogram
    symbols: SymbolTable
    result_symbol: Optional[Symbol] = None


@dataclass
class AnalysisResult:
    unit: ast.CompilationUnit
    subprograms: Dict[str, SubprogramInfo] = field(default_factory=dict)
    derived_types: Dict[str, DerivedType] = field(default_factory=dict)
    globals: SymbolTable = field(default_factory=SymbolTable)
    #: function name -> result FType, for typing calls
    function_results: Dict[str, FType] = field(default_factory=dict)

    def info(self, name: str) -> SubprogramInfo:
        return self.subprograms[name]


class SemanticAnalyzer:
    def __init__(self, unit: ast.CompilationUnit):
        self.unit = unit
        self.result = AnalysisResult(unit=unit)
        self.function_results = self.result.function_results
        #: the last statement of the main program being analysed (None in
        #: any other subprogram): the one place a STOP may stand
        self._final_stop: Optional[ast.Stmt] = None

    # -------------------------------------------------------------- driver
    def analyze(self) -> AnalysisResult:
        # module-level declarations become globals; derived types are global
        for module in self.unit.modules:
            for dt in module.derived_types:
                self._register_derived_type(dt)
            for decl in module.declarations:
                for sym in self._declaration_symbols(decl, is_argument=False,
                                                     saves=True):
                    sym.is_global = True
                    self.result.globals.define(sym)
        # first pass: function result types so calls can be typed
        for sp in self.unit.all_subprograms():
            for dt in sp.derived_types:
                self._register_derived_type(dt)
            if sp.kind == "function":
                self.function_results[sp.name] = self._function_result_type(sp)
        # second pass: per-subprogram analysis
        for sp in self.unit.all_subprograms():
            self.result.subprograms[sp.name] = self._analyze_subprogram(sp)
        return self.result

    # ---------------------------------------------------------- declarations
    def _register_derived_type(self, dt: ast.DerivedTypeDef) -> None:
        components: List[Tuple[str, FType]] = []
        for decl in dt.components:
            base = self._base_ftype(decl.type_spec)
            for entity in decl.entities:
                if entity.init is not None:
                    raise SemanticError(
                        f"default initialisation of component "
                        f"'{dt.name}%{entity.name}' ({decl.loc}) is not "
                        f"supported")
                dims = self._resolve_dims(entity.dims or decl.default_dims, None)
                components.append((entity.name, base.with_dims(dims)))
        self.result.derived_types[dt.name] = DerivedType(dt.name, components)

    def _base_ftype(self, spec: ast.TypeSpec) -> FType:
        if spec.name == "integer":
            return FType(base="integer", kind=spec.kind or 4)
        if spec.name == "real":
            return FType(base="real", kind=spec.kind or 4)
        if spec.name == "logical":
            return FType(base="logical", kind=spec.kind or 4)
        if spec.name == "character":
            return FType(base="character", kind=1, char_length=spec.char_length)
        if spec.name == "complex":
            # complex is outside the evaluated subset; treat as a 2-element real
            return FType(base="real", kind=spec.kind or 4)
        if spec.name == "type":
            return FType(base="derived", derived_name=spec.derived_name)
        raise SemanticError(f"unsupported type spec {spec.name}")

    def _function_result_type(self, sp: ast.Subprogram) -> FType:
        if sp.result_type is not None:
            return self._base_ftype(sp.result_type)
        result_name = sp.result_name or sp.name
        for decl in sp.declarations:
            for entity in decl.entities:
                if entity.name == result_name:
                    base = self._base_ftype(decl.type_spec)
                    dims = self._resolve_dims(entity.dims or decl.default_dims, None)
                    return base.with_dims(dims)
        return self._implicit_type(result_name)

    @staticmethod
    def _implicit_type(name: str) -> FType:
        """Default implicit typing: i-n integer, otherwise real."""
        return ftypes.INTEGER if name[0] in "ijklmn" else ftypes.REAL

    def _declaration_symbols(self, decl: ast.Declaration,
                             is_argument: bool,
                             symbols: Optional[SymbolTable] = None, *,
                             saves: bool = False) -> List[Symbol]:
        """Symbols of one declaration.  ``saves``: the scope's variables
        live for the whole run (a module, the main program), which is what
        an initialiser on a non-``parameter`` entity asks for."""
        base = self._base_ftype(decl.type_spec)
        allocatable = "allocatable" in decl.attributes
        pointer = "pointer" in decl.attributes
        parameter = "parameter" in decl.attributes
        out: List[Symbol] = []
        for entity in decl.entities:
            dim_specs = entity.dims or decl.default_dims
            dims = self._resolve_dims(dim_specs, symbols)
            ft = FType(base=base.base, kind=base.kind, dims=dims,
                       allocatable=allocatable, pointer=pointer,
                       parameter=parameter, derived_name=base.derived_name,
                       char_length=entity.char_length or base.char_length)
            sym = Symbol(name=entity.name, ftype=ft, is_argument=is_argument,
                         intent=decl.intent, is_parameter=parameter)
            if parameter and entity.init is not None:
                sym.parameter_value = self._fold_constant(entity.init, symbols)
            elif entity.init is not None:
                sym.initial_value = self._initial_value(
                    entity, decl, ft, symbols, saves)
            sym.dynamic_bounds = [
                (d.lower, d.upper) for d in dim_specs
            ]
            out.append(sym)
        return out

    def _initial_value(self, entity: ast.EntityDecl, decl: ast.Declaration,
                       ft: FType, symbols: Optional[SymbolTable],
                       saves: bool):
        """The folded initialiser of a variable, or a diagnostic: one that
        cannot be honoured exactly is rejected, never dropped."""
        where = f"'{entity.name}' ({decl.loc})"
        if not saves:
            raise SemanticError(
                f"initialiser on {where}: an initialised local of a "
                f"subprogram is SAVEd, which is not supported")
        value = self._fold_constant(entity.init, symbols)
        if value is None or ft.is_array or ft.base not in ("integer", "real"):
            raise SemanticError(
                f"initialiser on {where}: only constant integer and real "
                f"scalar initialisers are supported")
        return value

    def _resolve_dims(self, dim_specs: List[ast.DimSpec],
                      symbols: Optional[SymbolTable]) -> Tuple[ArrayDim, ...]:
        dims: List[ArrayDim] = []
        for d in dim_specs:
            if d.deferred or d.assumed:
                dims.append(ArrayDim(lower=1 if not d.deferred else None, extent=None))
                continue
            lower = 1
            if d.lower is not None:
                folded = self._fold_constant(d.lower, symbols)
                lower = folded if isinstance(folded, int) else None
            extent = None
            if d.upper is not None:
                upper = self._fold_constant(d.upper, symbols)
                if isinstance(upper, int) and isinstance(lower, int):
                    extent = upper - lower + 1
            dims.append(ArrayDim(lower=lower, extent=extent))
        return tuple(dims)

    def _fold_constant(self, expr: ast.Expr, symbols: Optional[SymbolTable]):
        """Best-effort constant folding of specification expressions."""
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.RealLiteral):
            return expr.value
        if isinstance(expr, ast.LogicalLiteral):
            return expr.value
        if isinstance(expr, ast.UnaryOp):
            val = self._fold_constant(expr.operand, symbols)
            if val is None:
                return None
            return -val if expr.op == "-" else val
        if isinstance(expr, ast.BinaryOp):
            lhs = self._fold_constant(expr.lhs, symbols)
            rhs = self._fold_constant(expr.rhs, symbols)
            if lhs is None or rhs is None:
                return None
            try:
                if expr.op == "+":
                    return lhs + rhs
                if expr.op == "-":
                    return lhs - rhs
                if expr.op == "*":
                    return lhs * rhs
                if expr.op == "/":
                    return lhs // rhs if isinstance(lhs, int) and isinstance(rhs, int) else lhs / rhs
                if expr.op == "**":
                    return lhs ** rhs
            except (ZeroDivisionError, OverflowError):
                return None
            return None
        if isinstance(expr, ast.Identifier):
            table = symbols or self.result.globals
            sym = table.lookup(expr.name) if table else None
            if sym is None:
                sym = self.result.globals.lookup(expr.name)
            if sym is not None and sym.is_parameter:
                return sym.parameter_value
            return None
        return None

    # ------------------------------------------------------------ subprograms
    def _analyze_subprogram(self, sp: ast.Subprogram) -> SubprogramInfo:
        symbols = SymbolTable(parent=self.result.globals)
        # declared entities
        for decl in sp.declarations:
            is_arg_decl = any(e.name in sp.args for e in decl.entities)
            for sym in self._declaration_symbols(
                    decl, is_arg_decl, symbols, saves=sp.kind == "program"):
                sym.is_argument = sym.name in sp.args
                symbols.define(sym)
        # undeclared dummy arguments get implicit types
        for arg in sp.args:
            if symbols.lookup(arg) is None:
                symbols.define(Symbol(name=arg, ftype=self._implicit_type(arg),
                                      is_argument=True))
        result_symbol = None
        if sp.kind == "function":
            result_name = sp.result_name or sp.name
            result_symbol = symbols.lookup(result_name)
            if result_symbol is None:
                result_symbol = symbols.define(
                    Symbol(name=result_name,
                           ftype=self.function_results.get(sp.name, ftypes.REAL)))
            result_symbol.is_function_result = True
        info = SubprogramInfo(subprogram=sp, symbols=symbols,
                              result_symbol=result_symbol)
        self._final_stop = sp.body[-1] if sp.kind == "program" and sp.body \
            else None
        self._desugar_exits(sp.body, symbols)
        self._analyze_statements(sp.body, symbols)
        return info

    # ------------------------------------------------------- EXIT desugaring
    def _desugar_exits(self, stmts: List[ast.Stmt], symbols: SymbolTable) -> None:
        """Rewrite loops containing EXIT into flag-guarded loops.

        ``exit`` sets an integer flag to 0; every statement that could
        execute after the exit point is wrapped in ``if (flag == 1)`` and a
        counted loop's whole body is guarded so remaining iterations are
        no-ops (a do-while additionally folds the flag into its condition).
        This gives exact Fortran EXIT semantics through the ordinary
        if/loop lowering, shared by every compilation flow.
        """
        index = 0
        while index < len(stmts):
            stmt = stmts[index]
            if isinstance(stmt, (ast.DoLoop, ast.DoWhile)):
                self._desugar_exits(stmt.body, symbols)
                if self._has_exit(stmt.body):
                    index += self._rewrite_exit_loop(stmts, index, stmt,
                                                     symbols)
                    continue
            elif isinstance(stmt, ast.IfBlock):
                for body in stmt.bodies:
                    self._desugar_exits(body, symbols)
                self._desugar_exits(stmt.else_body, symbols)
            elif isinstance(stmt, ast.SelectCase):
                for case in stmt.cases:
                    self._desugar_exits(case.body, symbols)
                self._desugar_exits(stmt.default_body, symbols)
            elif isinstance(stmt, ast.DirectiveRegion):
                self._desugar_exits(stmt.body, symbols)
            index += 1

    def _rewrite_exit_loop(self, stmts: List[ast.Stmt], index: int, stmt,
                           symbols: SymbolTable) -> int:
        """Flag-guard one loop containing EXIT; returns how many statements
        the caller must now skip (the loop plus everything inserted)."""
        flag = self._fresh_int(symbols, "iexit")
        on_exit: List[ast.Stmt] = []
        restore: Optional[ast.Stmt] = None
        if isinstance(stmt, ast.DoLoop):
            # F2018 11.1.7.4.3: the do-variable keeps its value at the
            # moment of EXIT — snapshot it when the exit fires, restore it
            # after the loop (the guarded remaining iterations still step it)
            save = self._fresh_int(symbols, "isave")
            on_exit.append(ast.Assignment(target=ast.Identifier(name=save),
                                          value=ast.Identifier(name=stmt.var)))
        stmt.body[:] = self._guard_exits(stmt.body, flag, on_exit=on_exit)
        if isinstance(stmt, ast.DoLoop):
            stmt.body[:] = [ast.IfBlock(conditions=[self._flag_live(flag)],
                                        bodies=[list(stmt.body)])]
            restore = ast.IfBlock(
                conditions=[ast.BinaryOp(op="==",
                                         lhs=ast.Identifier(name=flag),
                                         rhs=ast.IntLiteral(value=0))],
                bodies=[[ast.Assignment(target=ast.Identifier(name=stmt.var),
                                        value=ast.Identifier(name=save))]])
        else:
            stmt.condition = ast.BinaryOp(op=".and.", lhs=stmt.condition,
                                          rhs=self._flag_live(flag))
        stmts.insert(index, ast.Assignment(target=ast.Identifier(name=flag),
                                           value=ast.IntLiteral(value=1)))
        if restore is not None:
            stmts.insert(index + 2, restore)
            return 3   # flag init, the loop, the do-variable restore
        return 2       # flag init, the loop

    def _fresh_int(self, symbols: SymbolTable, prefix: str) -> str:
        """A fresh implicitly-integer helper variable (prefix starts i-n)."""
        counter = 0
        while symbols.lookup(f"{prefix}{counter}") is not None:
            counter += 1
        name = f"{prefix}{counter}"
        symbols.define(Symbol(name=name, ftype=ftypes.INTEGER))
        return name

    @staticmethod
    def _flag_live(flag: str) -> ast.Expr:
        return ast.BinaryOp(op="==", lhs=ast.Identifier(name=flag),
                            rhs=ast.IntLiteral(value=1))

    @classmethod
    def _has_exit(cls, stmts: List[ast.Stmt]) -> bool:
        """EXIT at this loop's level (nested loops consume their own exits)."""
        for stmt in stmts:
            if isinstance(stmt, ast.ExitStmt):
                return True
            if isinstance(stmt, ast.IfBlock):
                if any(cls._has_exit(b) for b in stmt.bodies) or \
                        cls._has_exit(stmt.else_body):
                    return True
            elif isinstance(stmt, ast.SelectCase):
                if any(cls._has_exit(c.body) for c in stmt.cases) or \
                        cls._has_exit(stmt.default_body):
                    return True
            elif isinstance(stmt, ast.DirectiveRegion):
                if cls._has_exit(stmt.body):
                    return True
        return False

    @classmethod
    def _guard_exits(cls, stmts: List[ast.Stmt], flag: str, *,
                     on_exit: List[ast.Stmt] = ()) -> List[ast.Stmt]:
        """Replace EXITs with ``flag = 0`` (plus the ``on_exit`` snapshot
        statements) and guard everything downstream of a possible exit."""
        import copy

        def exit_replacement() -> List[ast.Stmt]:
            return [ast.Assignment(target=ast.Identifier(name=flag),
                                   value=ast.IntLiteral(value=0)),
                    *copy.deepcopy(list(on_exit))]

        out: List[ast.Stmt] = []
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, ast.ExitStmt):
                out.extend(exit_replacement())
                return out  # statements after an unconditional EXIT are dead
            contains = False
            if isinstance(stmt, ast.IfBlock):
                contains = any(cls._has_exit(b) for b in stmt.bodies) or \
                    cls._has_exit(stmt.else_body)
                if contains:
                    stmt.bodies = [cls._guard_exits(b, flag, on_exit=on_exit)
                                   for b in stmt.bodies]
                    stmt.else_body = cls._guard_exits(stmt.else_body, flag,
                                                      on_exit=on_exit)
            elif isinstance(stmt, ast.SelectCase):
                contains = any(cls._has_exit(c.body) for c in stmt.cases) or \
                    cls._has_exit(stmt.default_body)
                if contains:
                    for case in stmt.cases:
                        case.body = cls._guard_exits(case.body, flag,
                                                     on_exit=on_exit)
                    stmt.default_body = cls._guard_exits(stmt.default_body,
                                                         flag,
                                                         on_exit=on_exit)
            elif isinstance(stmt, ast.DirectiveRegion):
                contains = cls._has_exit(stmt.body)
                if contains:
                    stmt.body = cls._guard_exits(stmt.body, flag,
                                                 on_exit=on_exit)
            out.append(stmt)
            if contains:
                rest = cls._guard_exits(list(stmts[index + 1:]), flag,
                                        on_exit=on_exit)
                if rest:
                    out.append(ast.IfBlock(conditions=[cls._flag_live(flag)],
                                           bodies=[rest]))
                return out
        return out

    def _analyze_statements(self, stmts: List[ast.Stmt], symbols: SymbolTable) -> None:
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, ast.SelectCase):
                stmts[i] = stmt = self._desugar_select(stmt)
            self._analyze_statement(stmt, symbols)

    def _desugar_select(self, stmt: ast.SelectCase) -> ast.IfBlock:
        """Rewrite SELECT CASE into the equivalent IF/ELSE IF chain.

        Each case's value list becomes a disjunction of equality / range
        tests against (a fresh copy of) the selector expression, so every
        compilation flow supports the construct through the ordinary IfBlock
        lowering.
        """
        import copy

        def selector() -> ast.Expr:
            return copy.deepcopy(stmt.selector)

        def item_condition(item: ast.CaseRange) -> ast.Expr:
            if not item.is_range:
                return ast.BinaryOp(op="==", lhs=selector(), rhs=item.lower)
            if item.lower is not None and item.upper is not None:
                return ast.BinaryOp(
                    op=".and.",
                    lhs=ast.BinaryOp(op=">=", lhs=selector(), rhs=item.lower),
                    rhs=ast.BinaryOp(op="<=", lhs=selector(), rhs=item.upper))
            if item.lower is not None:
                return ast.BinaryOp(op=">=", lhs=selector(), rhs=item.lower)
            return ast.BinaryOp(op="<=", lhs=selector(), rhs=item.upper)

        node = ast.IfBlock(loc=stmt.loc, label=stmt.label)
        for case in stmt.cases:
            condition: Optional[ast.Expr] = None
            for item in case.items:
                test = item_condition(item)
                condition = test if condition is None else \
                    ast.BinaryOp(op=".or.", lhs=condition, rhs=test)
            if condition is None:     # `case ()` — can never be selected
                condition = ast.LogicalLiteral(value=False)
            node.conditions.append(condition)
            node.bodies.append(case.body)
        node.else_body = stmt.default_body
        if not node.conditions:
            # degenerate select with only a default: guard with .true.
            node.conditions.append(ast.LogicalLiteral(value=True))
            node.bodies.append(node.else_body)
            node.else_body = []
        return node

    def _analyze_statement(self, stmt: ast.Stmt, symbols: SymbolTable) -> None:
        if isinstance(stmt, (ast.Assignment, ast.PointerAssignment)):
            stmt.target = self._resolve_expr(stmt.target, symbols)
            stmt.value = self._resolve_expr(stmt.value, symbols)
            self._define_implicit(stmt.target, symbols)
        elif isinstance(stmt, ast.IfBlock):
            stmt.conditions = [self._resolve_expr(c, symbols) for c in stmt.conditions]
            for body in stmt.bodies:
                self._analyze_statements(body, symbols)
            self._analyze_statements(stmt.else_body, symbols)
        elif isinstance(stmt, ast.DoLoop):
            if symbols.lookup(stmt.var) is None:
                symbols.define(Symbol(name=stmt.var, ftype=self._implicit_type(stmt.var)))
            stmt.start = self._resolve_expr(stmt.start, symbols)
            stmt.end = self._resolve_expr(stmt.end, symbols)
            if stmt.step is not None:
                stmt.step = self._resolve_expr(stmt.step, symbols)
            self._analyze_statements(stmt.body, symbols)
        elif isinstance(stmt, ast.DoWhile):
            stmt.condition = self._resolve_expr(stmt.condition, symbols)
            self._analyze_statements(stmt.body, symbols)
        elif isinstance(stmt, ast.DirectiveRegion):
            self._analyze_statements(stmt.body, symbols)
        elif isinstance(stmt, ast.CallStmt):
            stmt.args = [self._resolve_expr(a, symbols) for a in stmt.args]
        elif isinstance(stmt, ast.AllocateStmt):
            stmt.allocations = [
                (name, [self._resolve_expr(d, symbols) for d in dims])
                for name, dims in stmt.allocations
            ]
        elif isinstance(stmt, ast.PrintStmt):
            stmt.items = [self._resolve_expr(i, symbols) for i in stmt.items]
        elif isinstance(stmt, ast.StopStmt):
            # STOP lowers to a runtime call that returns: exact only where
            # nothing can run after it
            if stmt is not self._final_stop:
                raise SemanticError(
                    f"STOP at {stmt.loc}: only a STOP that ends the main "
                    f"program is supported")
            if stmt.code is not None:
                stmt.code = self._resolve_expr(stmt.code, symbols)
        elif isinstance(stmt, (ast.CycleStmt, ast.GotoStmt)):
            # no branch out of a structured region is modelled
            keyword = "CYCLE" if isinstance(stmt, ast.CycleStmt) else "GOTO"
            raise SemanticError(f"{keyword} at {stmt.loc}: the "
                                f"{keyword.lower()} statement is not supported")
        # Exit/Continue/Return/Deallocate need no resolution

    def _define_implicit(self, target: ast.Expr, symbols: SymbolTable) -> None:
        """Implicitly declare a scalar assigned to without a declaration."""
        if isinstance(target, ast.Identifier) and symbols.lookup(target.name) is None:
            symbols.define(Symbol(name=target.name,
                                  ftype=self._implicit_type(target.name)))

    # ------------------------------------------------------------- expressions
    def _resolve_expr(self, expr: ast.Expr, symbols: SymbolTable) -> ast.Expr:
        if expr is None:
            return None
        if isinstance(expr, ast.IntLiteral):
            expr.ftype = ftypes.INTEGER if expr.kind != 8 else ftypes.INTEGER8
        elif isinstance(expr, ast.RealLiteral):
            expr.ftype = ftypes.DOUBLE if expr.kind == 8 else ftypes.REAL
        elif isinstance(expr, ast.LogicalLiteral):
            expr.ftype = ftypes.LOGICAL
        elif isinstance(expr, ast.CharLiteral):
            expr.ftype = FType(base="character", kind=1, char_length=len(expr.value))
        elif isinstance(expr, ast.Identifier):
            sym = symbols.lookup(expr.name)
            if sym is None:
                sym = Symbol(name=expr.name, ftype=self._implicit_type(expr.name))
                symbols.define(sym)
            expr.ftype = sym.ftype
        elif isinstance(expr, ast.CallOrIndex):
            return self._resolve_call_or_index(expr, symbols)
        elif isinstance(expr, ast.BinaryOp):
            expr.lhs = self._resolve_expr(expr.lhs, symbols)
            expr.rhs = self._resolve_expr(expr.rhs, symbols)
            expr.ftype = self._binary_type(expr)
        elif isinstance(expr, ast.UnaryOp):
            expr.operand = self._resolve_expr(expr.operand, symbols)
            expr.ftype = ftypes.LOGICAL if expr.op == ".not." else expr.operand.ftype
        elif isinstance(expr, ast.ComponentRef):
            expr.base = self._resolve_expr(expr.base, symbols)
            base_t = expr.base.ftype
            if base_t is None or base_t.base != "derived":
                raise SemanticError(f"component access on non-derived type: %{expr.component}")
            dt = self.result.derived_types.get(base_t.derived_name)
            if dt is None:
                raise SemanticError(f"unknown derived type {base_t.derived_name}")
            expr.ftype = dt.component_type(expr.component)
        elif isinstance(expr, ast.SliceTriplet):
            if expr.lower is not None:
                expr.lower = self._resolve_expr(expr.lower, symbols)
            if expr.upper is not None:
                expr.upper = self._resolve_expr(expr.upper, symbols)
            if expr.stride is not None:
                expr.stride = self._resolve_expr(expr.stride, symbols)
            expr.ftype = ftypes.INTEGER
        elif isinstance(expr, (ast.ArrayRef, ast.FunctionCall, ast.IntrinsicCall)):
            pass  # already resolved
        else:
            raise SemanticError(f"cannot resolve expression {expr!r}")
        return expr

    def _resolve_call_or_index(self, expr: ast.CallOrIndex,
                               symbols: SymbolTable) -> ast.Expr:
        args = [self._resolve_expr(a, symbols) for a in expr.args]
        sym = symbols.lookup(expr.name)
        if sym is not None and sym.ftype.is_array and not sym.is_function_result:
            has_slice = any(isinstance(a, ast.SliceTriplet) for a in args)
            node = ast.ArrayRef(name=expr.name, indices=args, loc=expr.loc)
            if has_slice or len(args) < sym.ftype.rank:
                # an array section keeps the array's element type + dynamic dims
                section_rank = sum(1 for a in args if isinstance(a, ast.SliceTriplet))
                node.ftype = sym.ftype.scalar().with_dims(
                    tuple(ArrayDim(1, None) for _ in range(max(section_rank, 1))))
            else:
                node.ftype = sym.ftype.scalar()
            return node
        if intrinsics.is_intrinsic(expr.name) and (sym is None or not sym.ftype.is_array):
            if expr.name.lower() == "allocated":
                # a descriptor's allocation status is not modelled
                raise SemanticError(
                    f"ALLOCATED at {expr.loc}: the allocated() inquiry is "
                    f"not supported")
            node = ast.IntrinsicCall(name=expr.name, args=args, loc=expr.loc)
            node.ftype = intrinsics.result_type(expr.name, [a.ftype for a in args])
            return node
        # user function call
        node = ast.FunctionCall(name=expr.name, args=args, loc=expr.loc)
        node.ftype = self.function_results.get(expr.name)
        if node.ftype is None:
            node.ftype = self._implicit_type(expr.name)
        return node

    def _binary_type(self, expr: ast.BinaryOp) -> FType:
        op = expr.op
        lt, rt = expr.lhs.ftype, expr.rhs.ftype
        if op in ("==", "/=", "<", "<=", ">", ">=", ".and.", ".or.", ".eqv.", ".neqv."):
            return ftypes.LOGICAL
        if op == "//":
            return FType(base="character", kind=1)
        result = ftypes.combine_numeric(lt.scalar(), rt.scalar())
        # elemental operation on arrays keeps the array shape
        if lt.is_array:
            return result.with_dims(lt.dims)
        if rt.is_array:
            return result.with_dims(rt.dims)
        return result


def analyze(unit: ast.CompilationUnit) -> AnalysisResult:
    return SemanticAnalyzer(unit).analyze()


__all__ = ["Symbol", "SymbolTable", "DerivedType", "SubprogramInfo",
           "AnalysisResult", "SemanticAnalyzer", "SemanticError", "analyze"]
