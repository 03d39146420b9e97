"""Lowering from the analysed Fortran AST to HLFIR + FIR (Flang's IR).

This reproduces the *output* of Flang's bridge stage (Figure 1 of the paper):
a ``builtin.module`` holding one ``func.func`` per program unit whose body
mixes the ``hlfir``/``fir`` dialects with a handful of standard dialects
(``arith``, ``func``, ``math``, ``omp``, ``acc``), e.g.

* variables are declared with ``hlfir.declare`` over ``fir.alloca`` /
  dummy-argument references,
* assignments use ``hlfir.assign``; array elements are addressed with
  ``hlfir.designate`` using 1-based Fortran indices,
* do loops become ``fir.do_loop`` (storing the index into the loop variable
  at the top of each body, as Flang does), do-while loops become
  ``fir.iterate_while`` (semantics has rewritten every EXIT into a
  flag-guarded loop by then),
* allocatable arrays are boxed (``!fir.ref<!fir.box<!fir.heap<...>>>``),
* transformational intrinsics stay abstract as ``hlfir.sum`` etc.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from ..dialects import acc as acc_d
from ..dialects import arith, fir, hlfir
from ..dialects import func as func_d
from ..dialects import math as math_d
from ..dialects import omp as omp_d
from ..dialects.builtin import ModuleOp
from ..ir import types as ir_types
from ..ir.builder import Builder, InsertPoint
from ..ir.core import Block, Operation, Value
from . import ast_nodes as ast
from . import ftypes, intrinsics
from .ftypes import FType
from .semantics import AnalysisResult, SemanticError, Symbol, analyze
from .parser import parse_source


class LoweringError(Exception):
    pass


@dataclass
class VariableInfo:
    """Lowering-time information about one Fortran variable."""

    symbol: Symbol
    address: Value                 # result of hlfir.declare (a reference/box ref)
    ftype: FType
    extents: List[Value]           # SSA extents for dynamic explicit-shape arrays
    is_boxed: bool = False         # allocatable / pointer (address is a ref to a box)
    by_value: bool = False         # scalar parameter folded to a constant


def _typed_constant(value, ft: FType) -> arith.ConstantOp:
    """A folded scalar as an ``arith.constant`` of ``ft``'s element type."""
    cast = int if ft.base == "integer" else float
    return arith.ConstantOp(cast(value), ft.element_ir_type())


class FortranLowering:
    """Lowers one compilation unit into a HLFIR/FIR module."""

    def __init__(self, analysis: AnalysisResult):
        self.analysis = analysis
        self.module = ModuleOp(name="fortran_module")
        self.builder = Builder()
        self.variables: Dict[str, VariableInfo] = {}
        self.current_info = None
        self.globals_emitted: Dict[str, FType] = {}

    # ------------------------------------------------------------------ driver
    def lower(self, declare_only: Collection[str] = ()) -> ModuleOp:
        """The module: globals, then one function per subprogram.  A
        subprogram named in ``declare_only`` gets its declaration alone
        (signature and argument attributes, no body)."""
        for module_unit in self.analysis.unit.modules:
            for sym in self.analysis.globals.values():
                if sym.name not in self.globals_emitted:
                    self._emit_global(sym)
        for name, info in self.analysis.subprograms.items():
            if name in declare_only:
                self.declare_subprogram(info, body=False)
            else:
                self.lower_subprogram(info)
        return self.module

    # ------------------------------------------------------------- subprograms
    def _mangled_name(self, sp: ast.Subprogram) -> str:
        if sp.kind == "program":
            return "_QQmain"
        return f"_QP{sp.name}"

    def _argument_fir_type(self, sym: Symbol) -> ir_types.Type:
        ft = sym.ftype
        if ft.base == "derived":
            record = self._record_type(ft)
            return fir.ReferenceType(record)
        return ft.fir_storage_type()

    def _record_type(self, ft: FType) -> fir.RecordType:
        dt = self.analysis.derived_types[ft.derived_name]
        members = []
        for name, comp_t in dt.components:
            if comp_t.is_array:
                members.append((name, fir.SequenceType(comp_t.shape(),
                                                       comp_t.element_ir_type())))
            else:
                members.append((name, comp_t.element_ir_type()))
        return fir.RecordType(ft.derived_name, members)

    def signature(self, info) -> Tuple[ir_types.FunctionType, List[str]]:
        """A subprogram's FIR function type and its dummies' intents."""
        sp = info.subprogram
        arg_syms = [info.symbols.lookup(a) for a in sp.args]
        arg_types = [self._argument_fir_type(s) for s in arg_syms]
        result_types: List[ir_types.Type] = []
        if sp.kind == "function" and info.result_symbol is not None:
            result_types = [info.result_symbol.ftype.element_ir_type()]
        return (ir_types.FunctionType(arg_types, result_types),
                [s.intent or "" for s in arg_syms])

    def declare_subprogram(self, info, *, body: bool = True) -> func_d.FuncOp:
        """Add the subprogram's ``func.func`` (with an empty entry block
        when ``body``) to the module."""
        sp = info.subprogram
        func_type, intents = self.signature(info)
        func_op = func_d.FuncOp(self._mangled_name(sp), func_type,
                                create_entry_block=body)
        # record argument names and intents so later conversions (our standard
        # MLIR mapping) can pick by-value vs by-reference representations
        from ..ir.attributes import ArrayAttr, StringAttr
        func_op.set_attr("arg_names", ArrayAttr([StringAttr(a) for a in sp.args]))
        func_op.set_attr("arg_intents", ArrayAttr(
            [StringAttr(intent) for intent in intents]))
        self.module.add(func_op)
        return func_op

    def lower_subprogram(self, info) -> func_d.FuncOp:
        sp = info.subprogram
        self.current_info = info
        self.variables = {}
        arg_syms = [info.symbols.lookup(a) for a in sp.args]
        func_op = self.declare_subprogram(info)
        entry = func_op.entry_block
        self.builder.set_insertion_point_to_end(entry)

        # declare dummy arguments
        for sym, block_arg in zip(arg_syms, entry.args):
            block_arg.name_hint = sym.name
            self._declare_argument(sym, block_arg)
        # declare locals (everything else in the symbol table)
        for sym in info.symbols.values():
            if sym.name in self.variables or sym.is_global:
                continue
            if sym.is_parameter and not sym.ftype.is_array:
                continue  # folded into constants at use sites
            self._declare_local(sym)
        # globals referenced by this subprogram
        for sym in self.analysis.globals.values():
            if sym.name not in self.variables:
                self._declare_global_use(sym)

        self._lower_statements(sp.body)

        # implicit return
        block = self.builder.insertion_point.block
        if block.terminator is None:
            self._emit_return(info)
        self.current_info = None
        return func_op

    def _emit_return(self, info) -> None:
        sp = info.subprogram
        if sp.kind == "function" and info.result_symbol is not None:
            var = self.variables[info.result_symbol.name]
            value = self._insert(fir.LoadOp(var.address)).result
            self._insert(func_d.ReturnOp([value]))
        else:
            self._insert(func_d.ReturnOp())

    # -------------------------------------------------------------- declarations
    def _insert(self, op: Operation) -> Operation:
        return self.builder.insert(op)

    def _declare_argument(self, sym: Symbol, block_arg: Value) -> None:
        ft = sym.ftype
        attrs = []
        if sym.intent:
            attrs.append(f"intent_{sym.intent}")
        if ft.allocatable:
            attrs.append("allocatable")
        shape_val = None
        extents: List[Value] = []
        if ft.is_array and not ft.allocatable and not ft.pointer:
            extents = self._explicit_shape_extents(sym)
            if extents:
                shape_val = self._insert(fir.ShapeOp(extents)).result
        declare = self._insert(hlfir.DeclareOp(block_arg, uniq_name=sym.name,
                                               shape=shape_val, fortran_attrs=attrs))
        self.variables[sym.name] = VariableInfo(
            symbol=sym, address=declare.results[0], ftype=ft, extents=extents,
            is_boxed=ft.allocatable or ft.pointer)

    def _explicit_shape_extents(self, sym: Symbol) -> List[Value]:
        """SSA extent values for an explicit-shape array (may read other dummies)."""
        extents: List[Value] = []
        for dim, (lower_e, upper_e) in zip(sym.ftype.dims, sym.dynamic_bounds):
            if dim.extent is not None:
                extents.append(self._index_constant(dim.extent))
            elif upper_e is not None:
                upper_v = self._to_index(self._lower_expr(upper_e))
                if lower_e is not None:
                    lower_v = self._to_index(self._lower_expr(lower_e))
                    diff = self._insert(arith.SubIOp(upper_v, lower_v)).result
                    extents.append(self._insert(
                        arith.AddIOp(diff, self._index_constant(1))).result)
                else:
                    extents.append(upper_v)
            else:
                extents.append(self._index_constant(0))
        return extents

    def _declare_local(self, sym: Symbol) -> None:
        ft = sym.ftype
        if ft.base == "derived":
            self._declare_derived_local(sym)
            return
        elem = ft.element_ir_type()
        extents: List[Value] = []
        shape_val = None
        if ft.allocatable or ft.pointer:
            box_type = fir.BoxType(fir.HeapType(
                fir.SequenceType(ft.shape(), elem) if ft.is_array else elem))
            alloca = self._insert(fir.AllocaOp(box_type, bindc_name=sym.name))
            storage: Value = alloca.result
            attrs = ["allocatable" if ft.allocatable else "pointer"]
            declare = self._insert(hlfir.DeclareOp(storage, uniq_name=sym.name,
                                                   fortran_attrs=attrs))
            self.variables[sym.name] = VariableInfo(
                symbol=sym, address=declare.results[0], ftype=ft, extents=[],
                is_boxed=True)
            return
        if ft.is_array:
            in_type = fir.SequenceType(ft.shape(), elem)
            dynamic_extents = []
            for dim, (lower_e, upper_e) in zip(ft.dims, sym.dynamic_bounds):
                if dim.extent is not None:
                    extents.append(self._index_constant(dim.extent))
                elif upper_e is not None:
                    val = self._to_index(self._lower_expr(upper_e))
                    extents.append(val)
                    dynamic_extents.append(val)
                else:
                    extents.append(self._index_constant(1))
            alloca = self._insert(fir.AllocaOp(in_type, bindc_name=sym.name,
                                               shape_operands=dynamic_extents))
            shape_val = self._insert(fir.ShapeOp(extents)).result
            declare = self._insert(hlfir.DeclareOp(alloca.result, uniq_name=sym.name,
                                                   shape=shape_val))
        else:
            alloca = self._insert(fir.AllocaOp(elem, bindc_name=sym.name))
            declare = self._insert(hlfir.DeclareOp(alloca.result, uniq_name=sym.name))
            if sym.initial_value is not None:
                init = self._insert(_typed_constant(sym.initial_value, ft))
                self._insert(hlfir.AssignOp(init.result, declare.results[0]))
        self.variables[sym.name] = VariableInfo(
            symbol=sym, address=declare.results[0], ftype=ft, extents=extents)

    def _declare_derived_local(self, sym: Symbol) -> None:
        record = self._record_type(sym.ftype)
        alloca = self._insert(fir.AllocaOp(record, bindc_name=sym.name))
        declare = self._insert(hlfir.DeclareOp(alloca.result, uniq_name=sym.name))
        self.variables[sym.name] = VariableInfo(
            symbol=sym, address=declare.results[0], ftype=sym.ftype, extents=[])

    def _emit_global(self, sym: Symbol) -> None:
        ft = sym.ftype
        elem = ft.element_ir_type()
        if ft.is_array:
            gtype: ir_types.Type = fir.SequenceType(ft.shape(), elem)
        else:
            gtype = elem
        init = None
        value = sym.parameter_value if sym.is_parameter else sym.initial_value
        if value is not None and not ft.is_array \
                and ft.base in ("integer", "real"):
            init = _typed_constant(value, ft).attributes["value"]
        self.module.add(fir.GlobalOp(f"_QM{sym.name}", gtype, initial_value=init))
        self.globals_emitted[sym.name] = ft

    def _declare_global_use(self, sym: Symbol) -> None:
        if sym.name not in self.globals_emitted:
            return
        ft = sym.ftype
        elem = ft.element_ir_type()
        gtype = fir.SequenceType(ft.shape(), elem) if ft.is_array else elem
        addr = self._insert(fir.AddressOfOp(f"_QM{sym.name}", fir.ReferenceType(gtype)))
        declare = self._insert(hlfir.DeclareOp(addr.result, uniq_name=sym.name))
        self.variables[sym.name] = VariableInfo(
            symbol=sym, address=declare.results[0], ftype=ft, extents=[])

    # ---------------------------------------------------------------- statements
    def _lower_statements(self, stmts: Sequence[ast.Stmt]) -> None:
        for stmt in stmts:
            self._lower_statement(stmt)

    def _lower_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assignment):
            self._lower_assignment(stmt)
        elif isinstance(stmt, ast.IfBlock):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.DoLoop):
            self._lower_do(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.CallStmt):
            self._lower_call_stmt(stmt)
        elif isinstance(stmt, ast.AllocateStmt):
            self._lower_allocate(stmt)
        elif isinstance(stmt, ast.DeallocateStmt):
            self._lower_deallocate(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            self._emit_return(self.current_info)
            # continue lowering into a fresh block-less position is not needed:
            # statements after RETURN in the supported subset are dead code.
        elif isinstance(stmt, ast.StopStmt):
            self._insert(fir.CallOp("_FortranAStopStatement", []))
        elif isinstance(stmt, ast.PrintStmt):
            values = [self._lower_expr(item) for item in stmt.items]
            self._insert(fir.CallOp("_FortranAioOutput", values))
        elif isinstance(stmt, ast.ContinueStmt):
            pass
        elif isinstance(stmt, ast.ExitStmt):
            # semantics desugars every EXIT that is inside a loop
            raise LoweringError("EXIT outside of a loop")
        elif isinstance(stmt, ast.DirectiveRegion):
            self._lower_directive_region(stmt)
        elif isinstance(stmt, ast.PointerAssignment):
            self._lower_pointer_assignment(stmt)
        else:
            raise LoweringError(f"cannot lower statement {type(stmt).__name__}")

    # -- assignment -----------------------------------------------------------
    def _lower_assignment(self, stmt: ast.Assignment) -> None:
        value = self._lower_expr(stmt.value)
        target_t = stmt.target.ftype
        address = self._lower_address(stmt.target)
        if target_t is not None and not target_t.is_array:
            value = self._convert(value, target_t.element_ir_type())
        self._insert(hlfir.AssignOp(value, address))

    def _lower_pointer_assignment(self, stmt: ast.PointerAssignment) -> None:
        # p => target : store an embox of the target into the pointer's box
        target_addr = self._lower_address(stmt.value)
        pointer_addr = self._lower_address(stmt.target)
        box = self._insert(fir.EmboxOp(target_addr)).result
        self._insert(fir.StoreOp(box, pointer_addr))

    # -- control flow -----------------------------------------------------------
    def _lower_if(self, stmt: ast.IfBlock) -> None:
        self._lower_if_chain(stmt.conditions, stmt.bodies, stmt.else_body)

    def _lower_if_chain(self, conditions, bodies, else_body) -> None:
        condition = self._to_i1(self._lower_expr(conditions[0]))
        if_op = self._insert(fir.IfOp(condition))
        saved = self.builder.insertion_point
        # then region
        self.builder.set_insertion_point_to_end(if_op.then_block)
        self._lower_statements(bodies[0])
        if if_op.then_block.terminator is None:
            self._insert(fir.ResultOp())
        # else region
        self.builder.set_insertion_point_to_end(if_op.else_block)
        if len(conditions) > 1:
            self._lower_if_chain(conditions[1:], bodies[1:], else_body)
        elif else_body:
            self._lower_statements(else_body)
        if if_op.else_block.terminator is None:
            self._insert(fir.ResultOp())
        self.builder.set_insertion_point(saved)

    def _lower_do(self, stmt: ast.DoLoop) -> None:
        if stmt.directives and any(d.startswith("omp") for d in stmt.directives):
            self._lower_omp_do(stmt)
            return
        lower = self._to_index(self._lower_expr(stmt.start))
        upper = self._to_index(self._lower_expr(stmt.end))
        if stmt.step is not None:
            step = self._to_index(self._lower_expr(stmt.step))
        else:
            step = self._index_constant(1)
        loop = self._insert(fir.DoLoopOp(lower, upper, step))
        var = self.variables[stmt.var]
        saved = self.builder.insertion_point
        self.builder.set_insertion_point_to_end(loop.body)
        # Flang stores the loop index into the iteration variable first
        iv_cast = self._convert(loop.induction_variable, var.ftype.element_ir_type())
        self._insert(fir.StoreOp(iv_cast, var.address))
        self._lower_statements(stmt.body)
        if loop.body.terminator is None:
            self._insert(fir.ResultOp())
        self.builder.set_insertion_point(saved)

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        """do while(cond) lowers to fir.iterate_while with a huge trip bound."""
        lower = self._index_constant(1)
        upper = self._index_constant(2 ** 31 - 1)
        step = self._index_constant(1)
        # evaluate the condition once for the initial flag
        initial = self._to_i1(self._lower_expr(stmt.condition))
        loop = self._insert(fir.IterateWhileOp(lower, upper, step, initial))
        saved = self.builder.insertion_point
        self.builder.set_insertion_point_to_end(loop.body)
        self._lower_statements(stmt.body)
        cond = self._to_i1(self._lower_expr(stmt.condition))
        self._insert(fir.ResultOp([cond]))
        self.builder.set_insertion_point(saved)

    # -- OpenMP / OpenACC ---------------------------------------------------------
    def _lower_omp_do(self, stmt: ast.DoLoop) -> None:
        parallel = self._insert(omp_d.ParallelOp())
        saved = self.builder.insertion_point
        self.builder.set_insertion_point_to_end(parallel.body)
        lower = self._to_index(self._lower_expr(stmt.start))
        upper = self._to_index(self._lower_expr(stmt.end))
        step = (self._to_index(self._lower_expr(stmt.step))
                if stmt.step is not None else self._index_constant(1))
        wsloop = self._insert(omp_d.WsLoopOp([lower], [upper], [step]))
        # Fortran do-loop bounds are inclusive; record that for consumers
        from ..ir.attributes import IntegerAttr
        wsloop.set_attr("inclusive_ub", IntegerAttr(1))
        self.builder.set_insertion_point_to_end(wsloop.body)
        var = self.variables[stmt.var]
        iv_cast = self._convert(wsloop.body.args[0], var.ftype.element_ir_type())
        self._insert(fir.StoreOp(iv_cast, var.address))
        self._lower_statements(stmt.body)
        if wsloop.body.terminator is None:
            self._insert(omp_d.YieldOp())
        self.builder.set_insertion_point_to_end(parallel.body)
        if parallel.body.terminator is None:
            self._insert(omp_d.TerminatorOp())
        self.builder.set_insertion_point(saved)

    _CLAUSE_RE = re.compile(r"(\w+)\s*\(([^)]*)\)")

    def _lower_directive_region(self, stmt: ast.DirectiveRegion) -> None:
        directive = stmt.directive
        if directive.startswith("acc"):
            self._lower_acc_region(stmt)
        elif directive.startswith("omp"):
            parallel = self._insert(omp_d.ParallelOp())
            saved = self.builder.insertion_point
            self.builder.set_insertion_point_to_end(parallel.body)
            self._lower_statements(stmt.body)
            if parallel.body.terminator is None:
                self._insert(omp_d.TerminatorOp())
            self.builder.set_insertion_point(saved)
        else:
            self._lower_statements(stmt.body)

    def _lower_acc_region(self, stmt: ast.DirectiveRegion) -> None:
        kind = stmt.directive.split()[-1]
        data_operands: List[Value] = []
        created: List[Tuple[str, Value]] = []
        for clause, names in self._CLAUSE_RE.findall(stmt.clauses):
            for raw in names.split(","):
                name = raw.strip().split("(")[0]
                if not name or name not in self.variables:
                    continue
                var = self.variables[name]
                if clause in ("create", "copyin", "copy", "present"):
                    op_cls = acc_d.CreateOp if clause == "create" else acc_d.CopyinOp
                    op = self._insert(op_cls(var.address, name=name))
                    data_operands.append(op.results[0])
                    created.append((clause, var.address))
        if kind == "data":
            region_op = self._insert(acc_d.DataOp(data_operands))
        else:
            region_op = self._insert(acc_d.KernelsOp(data_operands))
        saved = self.builder.insertion_point
        self.builder.set_insertion_point_to_end(region_op.body)
        self._lower_statements(stmt.body)
        if region_op.body.terminator is None:
            self._insert(acc_d.TerminatorOp())
        self.builder.set_insertion_point(saved)
        for clause, address in created:
            if clause in ("create", "copy"):
                self._insert(acc_d.DeleteOp(address))

    # -- calls & allocation ----------------------------------------------------------
    def _lower_call_stmt(self, stmt: ast.CallStmt) -> None:
        args = [self._lower_actual_argument(a) for a in stmt.args]
        self._insert(fir.CallOp(f"_QP{stmt.name}", args))

    def _lower_actual_argument(self, expr: ast.Expr) -> Value:
        """Fortran passes arguments by reference: produce an address."""
        is_named = isinstance(expr, (ast.Identifier, ast.ArrayRef, ast.ComponentRef))
        is_parameter = isinstance(expr, ast.Identifier) and (
            expr.name not in self.variables
            or self.variables[expr.name].symbol.is_parameter)
        if is_named and not is_parameter:
            return self._lower_address(expr)
        # expression argument: evaluate into a temporary
        value = self._lower_expr(expr)
        temp = self._insert(fir.AllocaOp(value.type, bindc_name="tmp_arg"))
        self._insert(fir.StoreOp(value, temp.result))
        return temp.result

    def _lower_allocate(self, stmt: ast.AllocateStmt) -> None:
        for name, dim_exprs in stmt.allocations:
            var = self.variables[name]
            elem = var.ftype.element_ir_type()
            extents = [self._to_index(self._lower_expr(d)) for d in dim_exprs]
            seq = fir.SequenceType([ir_types.DYNAMIC] * len(extents), elem) \
                if extents else elem
            heap = self._insert(fir.AllocMemOp(seq, shape_operands=extents,
                                               bindc_name=name))
            shape = self._insert(fir.ShapeOp(extents)).result if extents else None
            box = self._insert(fir.EmboxOp(heap.result, shape=shape,
                                           result_type=fir.BoxType(fir.HeapType(seq))))
            self._insert(fir.StoreOp(box.result, var.address))

    def _lower_deallocate(self, stmt: ast.DeallocateStmt) -> None:
        for name in stmt.names:
            var = self.variables[name]
            box = self._insert(fir.LoadOp(var.address)).result
            addr = self._insert(fir.BoxAddrOp(box)).result
            self._insert(fir.FreeMemOp(addr))

    # ------------------------------------------------------------------ expressions
    def _lower_expr(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLiteral):
            t = ir_types.IntegerType(expr.kind * 8) if expr.kind != 4 else ir_types.i32
            return self._insert(arith.ConstantOp(expr.value, t)).result
        if isinstance(expr, ast.RealLiteral):
            t = ir_types.f64 if (expr.ftype and expr.ftype.kind == 8) else ir_types.f32
            return self._insert(arith.ConstantOp(expr.value, t)).result
        if isinstance(expr, ast.LogicalLiteral):
            return self._insert(arith.ConstantOp(expr.value, ir_types.i1)).result
        if isinstance(expr, ast.CharLiteral):
            return self._insert(fir.StringLitOp(expr.value)).result
        if isinstance(expr, ast.Identifier):
            return self._load_variable(expr.name)
        if isinstance(expr, ast.ArrayRef):
            if any(isinstance(i, ast.SliceTriplet) for i in expr.indices):
                return self._lower_address(expr)
            address = self._lower_address(expr)
            return self._insert(fir.LoadOp(address)).result
        if isinstance(expr, ast.ComponentRef):
            address = self._lower_address(expr)
            if expr.ftype is not None and expr.ftype.is_array:
                return address
            return self._insert(fir.LoadOp(address)).result
        if isinstance(expr, ast.BinaryOp):
            return self._lower_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._lower_unary(expr)
        if isinstance(expr, ast.IntrinsicCall):
            return self._lower_intrinsic(expr)
        if isinstance(expr, ast.FunctionCall):
            args = [self._lower_actual_argument(a) for a in expr.args]
            result_type = expr.ftype.element_ir_type()
            call = self._insert(fir.CallOp(f"_QP{expr.name}", args, [result_type]))
            return call.results[0]
        raise LoweringError(f"cannot lower expression {type(expr).__name__}")

    def _load_variable(self, name: str) -> Value:
        var = self.variables.get(name)
        if var is None:
            sym = self.current_info.symbols.lookup(name)
            if sym is not None and sym.is_parameter:
                value = sym.parameter_value
                if sym.ftype.base == "integer":
                    return self._insert(arith.ConstantOp(int(value), ir_types.i32)).result
                return self._insert(arith.ConstantOp(float(value), ir_types.f64 if sym.ftype.kind == 8 else ir_types.f32)).result
            raise LoweringError(f"unknown variable {name}")
        sym = var.symbol
        if sym.is_parameter and sym.parameter_value is not None and not sym.ftype.is_array:
            return self._insert(
                _typed_constant(sym.parameter_value, sym.ftype)).result
        if var.ftype.is_array:
            # whole-array reference: yield the variable address (or its box)
            return var.address
        value = self._insert(fir.LoadOp(var.address)).result
        return value

    def _lower_address(self, expr: ast.Expr) -> Value:
        """Lower an lvalue to a FIR reference."""
        if isinstance(expr, ast.Identifier):
            return self.variables[expr.name].address
        if isinstance(expr, ast.ArrayRef):
            var = self.variables[expr.name]
            if any(isinstance(i, ast.SliceTriplet) for i in expr.indices):
                return self._lower_section(var, expr)
            indices = [self._to_index(self._lower_expr(i)) for i in expr.indices]
            base = var.address
            elem_ref = fir.ReferenceType(var.ftype.element_ir_type())
            designate = self._insert(hlfir.DesignateOp(base, indices,
                                                       result_type=elem_ref))
            return designate.results[0]
        if isinstance(expr, ast.ComponentRef):
            base_addr = self._lower_address(expr.base)
            comp_t = expr.ftype
            if comp_t.is_array:
                result_type = fir.ReferenceType(
                    fir.SequenceType(comp_t.shape(), comp_t.element_ir_type()))
            else:
                result_type = fir.ReferenceType(comp_t.element_ir_type())
            designate = self._insert(hlfir.DesignateOp(base_addr, [],
                                                       component=expr.component,
                                                       result_type=result_type))
            return designate.results[0]
        raise LoweringError(f"cannot take the address of {type(expr).__name__}")

    def _lower_section(self, var: VariableInfo, expr: ast.ArrayRef) -> Value:
        """An array section a(lo:hi, j) lowers to hlfir.designate with triplets."""
        triplet_vals: List[Value] = []
        for idx in expr.indices:
            if isinstance(idx, ast.SliceTriplet):
                lo = self._to_index(self._lower_expr(idx.lower)) if idx.lower is not None \
                    else self._index_constant(1)
                hi = self._to_index(self._lower_expr(idx.upper)) if idx.upper is not None \
                    else self._index_constant(0)
                stride = self._to_index(self._lower_expr(idx.stride)) if idx.stride is not None \
                    else self._index_constant(1)
                triplet_vals.extend([lo, hi, stride])
            else:
                v = self._to_index(self._lower_expr(idx))
                triplet_vals.extend([v, v, self._index_constant(1)])
        section_type = fir.ReferenceType(
            fir.SequenceType([ir_types.DYNAMIC] * var.ftype.rank,
                             var.ftype.element_ir_type()))
        designate = self._insert(hlfir.DesignateOp(var.address, [],
                                                   result_type=section_type,
                                                   triplets=triplet_vals))
        return designate.results[0]

    # -- operators --------------------------------------------------------------
    def _lower_binary(self, expr: ast.BinaryOp) -> Value:
        op = expr.op
        if op in (".and.", ".or.", ".eqv.", ".neqv."):
            lhs = self._to_i1(self._lower_expr(expr.lhs))
            rhs = self._to_i1(self._lower_expr(expr.rhs))
            if op == ".and.":
                return self._insert(arith.AndIOp(lhs, rhs)).result
            if op == ".or.":
                return self._insert(arith.OrIOp(lhs, rhs)).result
            eq = self._insert(arith.CmpIOp("eq", lhs, rhs)).result
            if op == ".eqv.":
                return eq
            true_c = self._insert(arith.ConstantOp(True, ir_types.i1)).result
            return self._insert(arith.XOrIOp(eq, true_c)).result
        lhs = self._lower_expr(expr.lhs)
        rhs = self._lower_expr(expr.rhs)
        if op in ("==", "/=", "<", "<=", ">", ">="):
            return self._lower_comparison(op, lhs, rhs)
        if op == "**":
            return self._lower_power(lhs, rhs)
        # numeric promotion
        lhs, rhs = self._promote(lhs, rhs)
        return self._insert(arith.make_arith_binop(op, lhs, rhs)).result

    _CMPI = {"==": "eq", "/=": "ne", "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge"}
    _CMPF = {"==": "oeq", "/=": "one", "<": "olt", "<=": "ole", ">": "ogt", ">=": "oge"}

    def _lower_comparison(self, op: str, lhs: Value, rhs: Value) -> Value:
        lhs, rhs = self._promote(lhs, rhs)
        if isinstance(lhs.type, ir_types.FloatType):
            return self._insert(arith.CmpFOp(self._CMPF[op], lhs, rhs)).result
        return self._insert(arith.CmpIOp(self._CMPI[op], lhs, rhs)).result

    def _lower_power(self, base: Value, exponent: Value) -> Value:
        if isinstance(base.type, ir_types.FloatType):
            if isinstance(exponent.type, ir_types.FloatType):
                exponent = self._convert(exponent, base.type)
                return self._insert(math_d.PowFOp(base, exponent)).result
            return self._insert(math_d.FPowIOp(base, exponent)).result
        return self._insert(math_d.IPowIOp(base, exponent)).result

    def _lower_unary(self, expr: ast.UnaryOp) -> Value:
        operand = self._lower_expr(expr.operand)
        if expr.op == "-":
            if isinstance(operand.type, ir_types.FloatType):
                return self._insert(arith.NegFOp(operand)).result
            zero = self._insert(arith.ConstantOp(0, operand.type)).result
            return self._insert(arith.SubIOp(zero, operand)).result
        if expr.op == ".not.":
            operand = self._to_i1(operand)
            true_c = self._insert(arith.ConstantOp(True, ir_types.i1)).result
            return self._insert(arith.XOrIOp(operand, true_c)).result
        return operand

    # -- intrinsics --------------------------------------------------------------
    def _lower_intrinsic(self, expr: ast.IntrinsicCall) -> Value:
        name = expr.name.lower()
        if name in intrinsics.TRANSFORMATIONAL:
            return self._lower_transformational(expr)
        if name in ("size",):
            return self._lower_size(expr)
        if name in ("lbound", "ubound"):
            return self._lower_bound_inquiry(expr)
        args = [self._lower_expr(a) for a in expr.args]
        if name in intrinsics.ELEMENTAL_MATH:
            args = [self._ensure_float(a) for a in args]
            if name in math_d.UNARY_INTRINSIC_OPS:
                return self._insert(math_d.UNARY_INTRINSIC_OPS[name](args[0])).result
            if name in math_d.BINARY_INTRINSIC_OPS:
                return self._insert(math_d.BINARY_INTRINSIC_OPS[name](args[0], args[1])).result
            if name == "asin" or name == "acos" or name == "sinh" or name == "cosh":
                # not present as dedicated math ops: call the runtime
                return self._insert(fir.CallOp(f"_Fortran{name.capitalize()}", args,
                                               [args[0].type])).results[0]
        if name == "abs":
            if isinstance(args[0].type, ir_types.FloatType):
                return self._insert(math_d.AbsFOp(args[0])).result
            return self._insert(math_d.AbsIOp(args[0])).result
        if name == "mod":
            lhs, rhs = self._promote(args[0], args[1])
            kind = "mod"
            return self._insert(arith.make_arith_binop(kind, lhs, rhs)).result
        if name in ("min", "max"):
            result = args[0]
            for other in args[1:]:
                lhs, rhs = self._promote(result, other)
                result = self._insert(arith.make_arith_binop(name, lhs, rhs)).result
            return result
        if name == "sign":
            lhs, rhs = self._promote(args[0], args[1])
            zero = self._insert(arith.ConstantOp(0.0 if isinstance(lhs.type, ir_types.FloatType) else 0, lhs.type)).result
            absval = self._insert(math_d.AbsFOp(lhs)).result \
                if isinstance(lhs.type, ir_types.FloatType) \
                else self._insert(math_d.AbsIOp(lhs)).result
            negval = self._insert(arith.NegFOp(absval)).result \
                if isinstance(lhs.type, ir_types.FloatType) \
                else self._insert(arith.SubIOp(zero, absval)).result
            is_neg = self._lower_comparison("<", rhs, zero)
            return self._insert(arith.SelectOp(is_neg, negval, absval)).result
        if name in ("int", "nint", "floor", "ceiling"):
            return self._convert(args[0], ir_types.i32)
        if name in ("real", "float"):
            kind = 4
            if len(expr.args) > 1 and isinstance(expr.args[1], ast.IntLiteral):
                kind = expr.args[1].value
            return self._convert(args[0], ir_types.f64 if kind == 8 else ir_types.f32)
        if name == "dble":
            return self._convert(args[0], ir_types.f64)
        if name in ("epsilon", "huge", "tiny"):
            t = expr.args[0].ftype
            elem = t.element_ir_type()
            values = {"epsilon": 2.220446049250313e-16 if t.kind == 8 else 1.1920929e-07,
                      "huge": 1.7976931348623157e+308 if t.kind == 8 else 3.4028235e+38,
                      "tiny": 2.2250738585072014e-308 if t.kind == 8 else 1.1754944e-38}
            if t.base == "integer":
                return self._insert(arith.ConstantOp(2 ** 31 - 1, elem)).result
            return self._insert(arith.ConstantOp(values[name], elem)).result
        if name in ("aint", "anint"):
            as_int = self._convert(args[0], ir_types.i64)
            return self._convert(as_int, args[0].type)
        if name == "merge":
            cond = self._to_i1(args[2])
            return self._insert(arith.SelectOp(cond, args[0], args[1])).result
        raise LoweringError(f"intrinsic {name} is not supported")

    def _lower_transformational(self, expr: ast.IntrinsicCall) -> Value:
        name = expr.name.lower()
        arrays = [self._lower_expr(a) for a in expr.args]
        elem = expr.args[0].ftype.element_ir_type()
        if name == "sum":
            return self._insert(hlfir.SumOp(arrays[0], elem)).result
        if name == "product":
            return self._insert(hlfir.ProductOp(arrays[0], elem)).result
        if name == "maxval":
            return self._insert(hlfir.MaxvalOp(arrays[0], elem)).result
        if name == "minval":
            return self._insert(hlfir.MinvalOp(arrays[0], elem)).result
        if name == "count":
            return self._insert(hlfir.CountOp(arrays[0], ir_types.i32)).result
        if name == "dot_product":
            return self._insert(hlfir.DotProductOp(arrays[0], arrays[1], elem)).result
        if name == "matmul":
            result_t = hlfir.ExprType(expr.ftype.shape(), elem)
            return self._insert(hlfir.MatmulOp(arrays[0], arrays[1], result_t)).result
        if name == "transpose":
            result_t = hlfir.ExprType(expr.ftype.shape(), elem)
            return self._insert(hlfir.TransposeOp(arrays[0], result_t)).result
        raise LoweringError(f"transformational intrinsic {name} not supported")

    def _lower_size(self, expr: ast.IntrinsicCall) -> Value:
        array_expr = expr.args[0]
        var = self.variables.get(getattr(array_expr, "name", ""))
        dim: Optional[int] = None
        if len(expr.args) > 1 and isinstance(expr.args[1], ast.IntLiteral):
            dim = expr.args[1].value
        if var is not None and var.ftype.has_static_shape and var.ftype.is_array:
            shape = var.ftype.shape()
            value = shape[dim - 1] if dim else int(_product(shape))
            return self._insert(arith.ConstantOp(value, ir_types.i32)).result
        if var is not None and var.extents:
            if dim:
                return self._convert(var.extents[dim - 1], ir_types.i32)
            total = var.extents[0]
            for e in var.extents[1:]:
                total = self._insert(arith.MulIOp(total, e)).result
            return self._convert(total, ir_types.i32)
        # fall back to querying the box descriptor
        base = self._lower_expr(array_expr)
        box = base
        if isinstance(base.type, fir.ReferenceType) and isinstance(base.type.element_type, fir.BoxType):
            box = self._insert(fir.LoadOp(base)).result
        dim_index = self._insert(arith.ConstantOp((dim or 1) - 1, ir_types.index)).result
        dims = self._insert(fir.BoxDimsOp(box, dim_index))
        return self._convert(dims.results[1], ir_types.i32)

    def _lower_bound_inquiry(self, expr: ast.IntrinsicCall) -> Value:
        name = expr.name.lower()
        var = self.variables.get(getattr(expr.args[0], "name", ""))
        dim = expr.args[1].value if len(expr.args) > 1 and isinstance(expr.args[1], ast.IntLiteral) else 1
        if var is not None and var.ftype.is_array:
            d = var.ftype.dims[dim - 1]
            if name == "lbound":
                return self._insert(arith.ConstantOp(d.lower or 1, ir_types.i32)).result
            if d.extent is not None and d.lower is not None:
                return self._insert(arith.ConstantOp(d.lower + d.extent - 1,
                                                     ir_types.i32)).result
        # dynamic: ubound = lbound + extent - 1 from the descriptor
        return self._lower_size(ast.IntrinsicCall(name="size", args=expr.args,
                                                  ftype=ftypes.INTEGER))

    # -- type utilities --------------------------------------------------------------
    def _index_constant(self, value: int) -> Value:
        return self._insert(arith.ConstantOp(value, ir_types.index)).result

    def _to_index(self, value: Value) -> Value:
        if isinstance(value.type, ir_types.IndexType):
            return value
        return self._insert(fir.ConvertOp(value, ir_types.index)).result

    def _to_i1(self, value: Value) -> Value:
        if isinstance(value.type, ir_types.IntegerType) and value.type.width == 1:
            return value
        if isinstance(value.type, fir.LogicalType):
            return self._insert(fir.ConvertOp(value, ir_types.i1)).result
        zero = self._insert(arith.ConstantOp(0, value.type)).result
        return self._insert(arith.CmpIOp("ne", value, zero)).result

    def _ensure_float(self, value: Value) -> Value:
        if isinstance(value.type, ir_types.FloatType):
            return value
        return self._convert(value, ir_types.f64)

    def _convert(self, value: Value, target: ir_types.Type) -> Value:
        if value.type == target:
            return value
        return self._insert(fir.ConvertOp(value, target)).result

    def _promote(self, lhs: Value, rhs: Value) -> Tuple[Value, Value]:
        lt, rt = lhs.type, rhs.type
        if lt == rt:
            return lhs, rhs
        lf = isinstance(lt, ir_types.FloatType)
        rf = isinstance(rt, ir_types.FloatType)
        if lf and rf:
            target = lt if lt.width >= rt.width else rt
            return self._convert(lhs, target), self._convert(rhs, target)
        if lf:
            return lhs, self._convert(rhs, lt)
        if rf:
            return self._convert(lhs, rt), rhs
        # both integer-ish
        if isinstance(lt, ir_types.IndexType) or isinstance(rt, ir_types.IndexType):
            return self._convert(lhs, ir_types.index), self._convert(rhs, ir_types.index)
        target = lt if lt.width >= rt.width else rt
        return self._convert(lhs, target), self._convert(rhs, target)


def _product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def lower_to_hlfir(source: str) -> ModuleOp:
    """Front-door helper: Fortran source text -> HLFIR/FIR module."""
    unit = parse_source(source)
    analysis = analyze(unit)
    return FortranLowering(analysis).lower()


__all__ = ["FortranLowering", "LoweringError", "lower_to_hlfir",
           "VariableInfo"]
