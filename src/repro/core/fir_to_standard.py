"""The paper's core contribution: lowering Flang's HLFIR/FIR IR to the
standard MLIR dialects (Section V).

The transformation intercepts the combined HLFIR + FIR IR produced by Flang's
frontend and rebuilds it using only standard dialects:

* **control structures** (V-A): ``fir.if`` -> ``scf.if``, ``fir.do_loop`` ->
  ``scf.for`` (reversing bounds for negative steps, inserting a runtime
  ``scf.if`` when the step sign is unknown), ``fir.iterate_while`` ->
  ``scf.while`` with an explicit loop counter and ``arith.andi`` of the exit
  flag, unstructured branches via the intermediate ``tmpbr`` dialect fixed up
  afterwards;
* **memory** (V-B): variables become ``memref``s — scalars are rank-0
  memrefs, intent(in) scalar arguments are passed by value, explicit-shape
  arrays are (possibly dynamically sized) memrefs, allocatable arrays become
  memref-of-memref with ``memref.alloc``/``memref.dealloc``; Fortran 1-based
  indices are rebased with an ``arith.subi``; slices become
  ``memref.subview``; globals use ``memref.global`` / ``llvm.mlir.global``;
* **other constructs** (V-C): transformational intrinsics lower to ``linalg``
  operations (Listing 8), derived-type variables are split into one memref
  per member.

The pass is written in the builder/translation style of the xDSL prototype:
a fresh module is produced rather than rewriting in place, because almost
every type in the function signatures changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dialects import acc as acc_d
from ..dialects import arith, cf, fir, hlfir, linalg
from ..dialects import func as func_d
from ..dialects import llvm
from ..dialects import math as math_d
from ..dialects import memref as memref_d
from ..dialects import omp as omp_d
from ..dialects import scf, tmpbr
from ..dialects.builtin import ModuleOp
from ..ir import types as ir_types
from ..ir.attributes import FloatAttr, IntegerAttr
from ..ir.builder import Builder, InsertPoint
from ..ir.core import Block, IRError, Operation, Region, Value
from ..ir.pass_manager import Pass, register_pass


class ConversionError(Exception):
    pass


# ---------------------------------------------------------------------------
# Bindings: how a Fortran variable is represented in the standard dialects
# ---------------------------------------------------------------------------


@dataclass
class VarBinding:
    """Standard-MLIR representation of one Fortran variable."""

    kind: str                  # "ssa" | "memref" | "boxed"
    value: Value               # the scalar value / memref / outer memref
    element_type: ir_types.Type
    rank: int = 0
    name: str = ""
    #: lower bound per dimension (Fortran default 1)
    lower_bounds: Tuple[int, ...] = ()


@dataclass
class ElementRef:
    """A pending array-element (or component/section) reference produced by
    ``hlfir.designate`` — materialised lazily at the load/store site."""

    binding: VarBinding
    indices: List[Value] = field(default_factory=list)   # already zero-based
    is_section: bool = False
    section_value: Optional[Value] = None                # memref.subview result


# ---------------------------------------------------------------------------
# Type conversion helpers
# ---------------------------------------------------------------------------


def scalar_type(t: ir_types.Type) -> ir_types.Type:
    if isinstance(t, fir.LogicalType):
        return ir_types.i1
    return t


def sequence_to_memref(seq: fir.SequenceType) -> ir_types.MemRefType:
    # Fortran arrays are column-major; memrefs are row-major.  The mapping
    # reverses the dimension order so the contiguous (first) Fortran dimension
    # remains the contiguous (last) memref dimension.
    return ir_types.MemRefType(list(reversed(seq.shape)), scalar_type(seq.element_type))


def convert_argument_type(t: ir_types.Type, intent: str = "") -> ir_types.Type:
    """Converted type of a function argument (Section V-B)."""
    if isinstance(t, fir.ReferenceType):
        inner = t.element_type
        if isinstance(inner, fir.BoxType):
            heap = fir.dereferenced_type(inner)
            seq = fir.dereferenced_type(heap)
            if isinstance(seq, fir.SequenceType):
                return ir_types.MemRefType([], sequence_to_memref(seq))
            return ir_types.MemRefType([], ir_types.MemRefType([], scalar_type(seq)))
        if isinstance(inner, fir.SequenceType):
            return sequence_to_memref(inner)
        if intent == "in":
            return scalar_type(inner)
        return ir_types.MemRefType([], scalar_type(inner))
    if isinstance(t, fir.BoxType):
        seq = fir.dereferenced_type(t)
        if isinstance(seq, fir.SequenceType):
            return sequence_to_memref(seq)
        return ir_types.MemRefType([], scalar_type(seq))
    return scalar_type(t)


def convert_value_type(t: ir_types.Type) -> ir_types.Type:
    if isinstance(t, fir.LogicalType):
        return ir_types.i1
    if isinstance(t, fir.SequenceType):
        return sequence_to_memref(t)
    if isinstance(t, (fir.ReferenceType, fir.HeapType, fir.PointerType, fir.BoxType)):
        return convert_argument_type(t if isinstance(t, fir.ReferenceType)
                                     else fir.ReferenceType(fir.dereferenced_type(t)))
    return t


# ---------------------------------------------------------------------------
# The translator
# ---------------------------------------------------------------------------


class FirToStandardLowering:
    """Translates one HLFIR/FIR module into a standard-dialect module."""

    def __init__(self, source_module: ModuleOp):
        self.source = source_module
        self.target = ModuleOp(name="standard_module")
        self.builder = Builder()
        # per-function state
        self.value_map: Dict[Value, Value] = {}
        self.bindings: Dict[Value, VarBinding] = {}
        self.element_refs: Dict[Value, ElementRef] = {}
        self.block_index_map: Dict[Block, int] = {}
        self.function_signatures: Dict[str, ir_types.FunctionType] = {}
        self.function_arg_kinds: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------ driver
    def run(self) -> ModuleOp:
        self._collect_signatures()
        for op in self.source.body.ops:
            if op.name == "func.func":
                self._translate_function(op)
            elif op.name == "fir.global":
                self._translate_global(op)
            else:
                self.target.add(op.clone())
        return self.target

    # --------------------------------------------------------------- signatures
    def _arg_intents(self, func: Operation) -> List[str]:
        attr = func.get_attr("arg_intents")
        if attr is None:
            return []
        return [a.value for a in attr]

    def _collect_signatures(self) -> None:
        for op in self.source.body.ops:
            if op.name != "func.func":
                continue
            name = op.get_attr("sym_name").value
            ftype = op.get_attr("function_type").type
            intents = self._arg_intents(op)
            new_inputs = []
            kinds = []
            for i, t in enumerate(ftype.inputs):
                intent = intents[i] if i < len(intents) else ""
                new_t = convert_argument_type(t, intent)
                new_inputs.append(new_t)
                if isinstance(new_t, ir_types.MemRefType):
                    if new_t.rank == 0 and isinstance(new_t.element_type, ir_types.MemRefType):
                        kinds.append("boxed")
                    else:
                        kinds.append("memref")
                else:
                    kinds.append("ssa")
            new_results = [scalar_type(t) for t in ftype.results]
            self.function_signatures[name] = ir_types.FunctionType(new_inputs, new_results)
            self.function_arg_kinds[name] = kinds

    # ----------------------------------------------------------------- functions
    def _translate_function(self, func: Operation) -> None:
        name = func.get_attr("sym_name").value
        new_type = self.function_signatures[name]
        new_func = func_d.FuncOp(name, new_type,
                                 create_entry_block=not func.regions[0].is_empty()
                                 or bool(func.regions[0].blocks))
        for key in ("arg_names", "arg_intents"):
            if func.has_attr(key):
                new_func.set_attr(key, func.get_attr(key))
        self.target.add(new_func)
        if not func.regions[0].blocks:
            return

        self.value_map = {}
        self.bindings = {}
        self.element_refs = {}
        self.block_index_map = {}

        src_region = func.regions[0]
        dst_region = new_func.regions[0]
        # create all destination blocks up-front (branches may be forward)
        dst_blocks: List[Block] = [new_func.entry_block]
        for extra in src_region.blocks[1:]:
            block = Block(arg_types=[convert_value_type(a.type) for a in extra.args])
            dst_region.add_block(block)
            dst_blocks.append(block)
        for i, src_block in enumerate(src_region.blocks):
            self.block_index_map[src_block] = i
        # entry block arguments
        entry_src = src_region.blocks[0]
        kinds = self.function_arg_kinds[name]
        for src_arg, dst_arg, kind in zip(entry_src.args, new_func.entry_block.args, kinds):
            self.value_map[src_arg] = dst_arg
        for src_block, dst_block in zip(src_region.blocks[1:], dst_blocks[1:]):
            for src_arg, dst_arg in zip(src_block.args, dst_block.args):
                self.value_map[src_arg] = dst_arg
        # translate block by block
        for src_block, dst_block in zip(src_region.blocks, dst_blocks):
            self.builder.set_insertion_point_to_end(dst_block)
            for op in src_block.ops:
                self._translate_op(op)
        # fix up tmpbr branches into real cf branches
        from .branch_fixup import fixup_branches
        fixup_branches(new_func)

    def _translate_global(self, op: Operation) -> None:
        sym = op.get_attr("sym_name").value
        gtype = op.get_attr("type").type
        if isinstance(gtype, fir.SequenceType):
            self.target.add(memref_d.GlobalOp(sym, sequence_to_memref(gtype),
                                              initial_value=op.get_attr("initial_value")))
        else:
            self.target.add(llvm.GlobalOp(sym, scalar_type(gtype),
                                          value=op.get_attr("initial_value")))

    # ------------------------------------------------------------------ utilities
    def _insert(self, op: Operation) -> Operation:
        return self.builder.insert(op)

    def _map(self, value: Value) -> Value:
        if value in self.value_map:
            return self.value_map[value]
        raise ConversionError(f"value {value!r} has no translation")

    def _constant_index(self, value: int) -> Value:
        return self._insert(arith.ConstantOp(value, ir_types.index)).result

    def _to_index(self, value: Value) -> Value:
        if isinstance(value.type, ir_types.IndexType):
            return value
        return self._insert(arith.IndexCastOp(value, ir_types.index)).result

    def _cast(self, value: Value, target: ir_types.Type) -> Value:
        src = value.type
        if src == target:
            return value
        if isinstance(src, ir_types.IndexType) or isinstance(target, ir_types.IndexType):
            if isinstance(src, ir_types.FloatType):
                as_int = self._insert(arith.FPToSIOp(value, ir_types.i64)).result
                return self._insert(arith.IndexCastOp(as_int, target)).result
            if isinstance(target, ir_types.FloatType):
                as_int = self._insert(arith.IndexCastOp(value, ir_types.i64)).result
                return self._insert(arith.SIToFPOp(as_int, target)).result
            return self._insert(arith.IndexCastOp(value, target)).result
        src_f = isinstance(src, ir_types.FloatType)
        dst_f = isinstance(target, ir_types.FloatType)
        if src_f and dst_f:
            cls = arith.ExtFOp if target.width > src.width else arith.TruncFOp
            return self._insert(cls(value, target)).result
        if src_f and not dst_f:
            return self._insert(arith.FPToSIOp(value, target)).result
        if not src_f and dst_f:
            return self._insert(arith.SIToFPOp(value, target)).result
        if src.width == target.width:
            return value
        cls = arith.ExtSIOp if target.width > src.width else arith.TruncIOp
        if src.width == 1:
            cls = arith.ExtUIOp
        return self._insert(cls(value, target)).result

    # -- binding helpers ----------------------------------------------------------
    def _binding_for(self, old_value: Value) -> Optional[VarBinding]:
        return self.bindings.get(old_value)

    def _array_memref(self, old_value: Value) -> Value:
        """The memref holding the array data behind an HLFIR/FIR array value
        (loading the outer memref of an allocatable when necessary)."""
        binding = self._binding_for(old_value)
        if binding is not None:
            if binding.kind == "boxed":
                return self._insert(memref_d.LoadOp(binding.value, [])).result
            return binding.value
        if old_value in self.element_refs:
            ref = self.element_refs[old_value]
            if ref.is_section and ref.section_value is not None:
                return ref.section_value
        mapped = self.value_map.get(old_value)
        if mapped is not None and isinstance(mapped.type, ir_types.MemRefType):
            return mapped
        raise ConversionError("cannot find array storage for value")

    # =====================================================================
    # Operation dispatch
    # =====================================================================
    def _translate_op(self, op: Operation) -> None:
        handler = getattr(self, "_op_" + op.name.replace(".", "_"), None)
        if handler is not None:
            handler(op)
            return
        dialect = op.dialect
        if dialect in ("arith", "math"):
            self._clone_simple(op)
            return
        if dialect == "omp":
            self._translate_region_op(op, omp_d)
            return
        if dialect == "acc":
            self._translate_region_op(op, acc_d)
            return
        raise ConversionError(f"no translation for operation {op.name}")

    def _clone_simple(self, op: Operation) -> None:
        """Clone an op whose semantics carry over unchanged (arith/math)."""
        new_operands = [self._map(v) for v in op.operands]
        new = Operation.__new__(type(op))
        Operation.__init__(new, operands=new_operands,
                           result_types=[convert_value_type(r.type) for r in op.results],
                           attributes=dict(op.attributes), name=op.name)
        self._insert(new)
        for old, newr in zip(op.results, new.results):
            self.value_map[old] = newr

    def _translate_region_op(self, op: Operation, dialect_module) -> None:
        """Translate an omp/acc region op, keeping its structure (the paper
        conserves the omp and acc dialects) while converting its contents."""
        new_operands = []
        for v in op.operands:
            binding = self._binding_for(v)
            if binding is not None:
                new_operands.append(binding.value if binding.kind != "boxed"
                                    else self._insert(memref_d.LoadOp(binding.value, [])).result)
            else:
                new_operands.append(self._map(v))
        new = Operation.__new__(type(op))
        Operation.__init__(new, operands=new_operands,
                           result_types=[convert_value_type(r.type) for r in op.results],
                           attributes=dict(op.attributes),
                           regions=len(op.regions), name=op.name)
        self._insert(new)
        for old, newr in zip(op.results, new.results):
            self.value_map[old] = newr
        for old_region, new_region in zip(op.regions, new.regions):
            for old_block in old_region.blocks:
                new_block = Block(arg_types=[convert_value_type(a.type)
                                             for a in old_block.args])
                new_region.add_block(new_block)
                for oa, na in zip(old_block.args, new_block.args):
                    self.value_map[oa] = na
                with self.builder.at(InsertPoint.at_end(new_block)):
                    for inner in old_block.ops:
                        self._translate_op(inner)

    # ---------------------------------------------------------------- declarations
    def _op_hlfir_declare(self, op: hlfir.DeclareOp) -> None:
        memref_value = op.memref
        name = op.uniq_name
        storage_type = memref_value.type
        inner = fir.dereferenced_type(storage_type)
        fortran_attrs = op.fortran_attrs

        source = getattr(memref_value, "op", None)
        mapped = self.value_map.get(memref_value)
        if isinstance(source, fir.AddressOfOp):
            # a module variable: the global itself, not a local copy
            binding = self.bindings[memref_value]
        elif mapped is not None and not isinstance(source, fir.AllocaOp):
            # dummy argument
            binding = self._bind_existing(mapped, inner, name)
        elif isinstance(inner, fir.BoxType):
            # allocatable / pointer local: outer memref on the stack
            heap = fir.dereferenced_type(inner)
            seq = fir.dereferenced_type(heap)
            inner_memref = sequence_to_memref(seq) if isinstance(seq, fir.SequenceType) \
                else ir_types.MemRefType([], scalar_type(seq))
            outer = self._insert(memref_d.AllocaOp(
                ir_types.MemRefType([], inner_memref)))
            binding = VarBinding(kind="boxed", value=outer.results[0],
                                 element_type=inner_memref.element_type
                                 if isinstance(inner_memref, ir_types.MemRefType)
                                 else inner_memref,
                                 rank=inner_memref.rank, name=name)
        elif isinstance(inner, fir.SequenceType):
            memref_type = sequence_to_memref(inner)
            dynamic_sizes = []
            alloca_src = getattr(memref_value, "op", None)
            if isinstance(alloca_src, fir.AllocaOp) and alloca_src.operands:
                # dynamic extents in Fortran order -> reversed for the memref
                dynamic_sizes = [self._to_index(self._map(v))
                                 for v in reversed(alloca_src.operands)]
            alloca = self._insert(memref_d.AllocaOp(memref_type, dynamic_sizes))
            binding = VarBinding(kind="memref", value=alloca.results[0],
                                 element_type=memref_type.element_type,
                                 rank=memref_type.rank, name=name)
        elif isinstance(inner, fir.RecordType):
            self._declare_derived(op, inner, name)
            return
        else:
            elem = scalar_type(inner)
            alloca = self._insert(memref_d.AllocaOp(ir_types.MemRefType([], elem)))
            binding = VarBinding(kind="memref", value=alloca.results[0],
                                 element_type=elem, rank=0, name=name)
        for res in op.results:
            self.bindings[res] = binding
            self.value_map[res] = binding.value

    def _bind_existing(self, mapped: Value, inner, name: str) -> VarBinding:
        """Bind a declare whose storage is a function argument."""
        t = mapped.type
        if isinstance(t, ir_types.MemRefType):
            if t.rank == 0 and isinstance(t.element_type, ir_types.MemRefType):
                return VarBinding(kind="boxed", value=mapped,
                                  element_type=t.element_type.element_type,
                                  rank=t.element_type.rank, name=name)
            if t.rank == 0:
                return VarBinding(kind="memref", value=mapped,
                                  element_type=t.element_type, rank=0, name=name)
            return VarBinding(kind="memref", value=mapped,
                              element_type=t.element_type, rank=t.rank, name=name)
        return VarBinding(kind="ssa", value=mapped, element_type=t, rank=0, name=name)

    def _declare_derived(self, op: hlfir.DeclareOp, record: fir.RecordType,
                         name: str) -> None:
        """Derived-type variables get one memref per member (Section V-C)."""
        member_bindings: Dict[str, VarBinding] = {}
        for member, mtype in record.members:
            if isinstance(mtype, fir.SequenceType):
                memref_type = sequence_to_memref(mtype)
            else:
                memref_type = ir_types.MemRefType([], scalar_type(mtype))
            alloca = self._insert(memref_d.AllocaOp(memref_type))
            member_bindings[member] = VarBinding(
                kind="memref", value=alloca.results[0],
                element_type=memref_type.element_type, rank=memref_type.rank,
                name=f"{name}%{member}")
        binding = VarBinding(kind="memref", value=list(member_bindings.values())[0].value
                             if member_bindings else None,
                             element_type=ir_types.f64, rank=0, name=name)
        binding.members = member_bindings  # type: ignore[attr-defined]
        for res in op.results:
            self.bindings[res] = binding
            self.value_map[res] = binding.value

    def _op_fir_alloca(self, op: fir.AllocaOp) -> None:
        # handled when the corresponding hlfir.declare is translated; an
        # alloca without a declare (compiler temporary) becomes a 0-d memref
        uses = op.results[0].users()
        if any(isinstance(u, hlfir.DeclareOp) for u in uses):
            self.value_map[op.results[0]] = op.results[0]  # placeholder
            return
        elem = scalar_type(fir.element_type_of(op.results[0].type))
        alloca = self._insert(memref_d.AllocaOp(ir_types.MemRefType([], elem)))
        self.bindings[op.results[0]] = VarBinding(kind="memref", value=alloca.results[0],
                                                  element_type=elem, rank=0,
                                                  name=op.get_attr("bindc_name").value
                                                  if op.get_attr("bindc_name") else "tmp")
        self.value_map[op.results[0]] = alloca.results[0]

    def _op_fir_shape(self, op: fir.ShapeOp) -> None:
        # shapes are consumed structurally (by declares/emboxes); nothing to emit
        self.value_map[op.results[0]] = self._map(op.operands[0]) if op.operands else None

    def _op_fir_address_of(self, op: fir.AddressOfOp) -> None:
        gtype = op.results[0].type
        inner = fir.dereferenced_type(gtype)
        if isinstance(inner, fir.SequenceType):
            new = self._insert(memref_d.GetGlobalOp(op.symbol, sequence_to_memref(inner)))
            self.value_map[op.results[0]] = new.results[0]
            self.bindings[op.results[0]] = VarBinding(
                kind="memref", value=new.results[0],
                element_type=scalar_type(inner.element_type), rank=inner.rank,
                name=op.symbol)
        else:
            addr = self._insert(llvm.AddressOfOp(op.symbol))
            self.value_map[op.results[0]] = addr.results[0]
            self.bindings[op.results[0]] = VarBinding(
                kind="global_scalar", value=addr.results[0],
                element_type=scalar_type(inner), rank=0, name=op.symbol)

    # ------------------------------------------------------------------ memory ops
    def _op_fir_load(self, op: fir.LoadOp) -> None:
        src = op.memref
        binding = self._binding_for(src)
        if binding is not None:
            if binding.kind == "ssa":
                self.value_map[op.results[0]] = binding.value
                return
            if binding.kind == "boxed":
                loaded = self._insert(memref_d.LoadOp(binding.value, []))
                self.value_map[op.results[0]] = loaded.results[0]
                return
            if binding.kind == "global_scalar":
                loaded = self._insert(llvm.LoadOp(binding.value, binding.element_type))
                self.value_map[op.results[0]] = loaded.results[0]
                return
            if binding.rank == 0:
                loaded = self._insert(memref_d.LoadOp(binding.value, []))
                self.value_map[op.results[0]] = loaded.results[0]
                return
            # loading a whole array value: the memref itself represents it
            self.value_map[op.results[0]] = binding.value
            return
        if src in self.element_refs:
            ref = self.element_refs[src]
            value = self._load_element(ref)
            self.value_map[op.results[0]] = value
            return
        mapped = self._map(src)
        if isinstance(mapped.type, ir_types.MemRefType):
            loaded = self._insert(memref_d.LoadOp(mapped, []))
            self.value_map[op.results[0]] = loaded.results[0]
        else:
            self.value_map[op.results[0]] = mapped

    def _op_fir_store(self, op: fir.StoreOp) -> None:
        value = self._map(op.value)
        dest = op.memref
        self._store_to(dest, value)

    def _store_to(self, dest: Value, value: Value) -> None:
        binding = self._binding_for(dest)
        if binding is not None:
            if binding.kind == "ssa":
                raise ConversionError(
                    f"store to an intent(in) by-value argument '{binding.name}'")
            if binding.kind == "boxed" and isinstance(value.type, ir_types.MemRefType):
                self._insert(memref_d.StoreOp(value, binding.value, []))
                return
            if binding.kind == "global_scalar":
                self._insert(llvm.StoreOp(value, binding.value))
                return
            if binding.rank == 0:
                value = self._cast(value, binding.element_type)
                self._insert(memref_d.StoreOp(value, binding.value, []))
                return
            raise ConversionError("whole-array store requires hlfir.assign")
        if dest in self.element_refs:
            ref = self.element_refs[dest]
            self._store_element(ref, value)
            return
        mapped = self._map(dest)
        if isinstance(mapped.type, ir_types.MemRefType):
            value = self._cast(value, mapped.type.element_type)
            self._insert(memref_d.StoreOp(value, mapped, []))
            return
        raise ConversionError("cannot translate store destination")

    def _load_element(self, ref: ElementRef) -> Value:
        memref_val = self._element_base(ref)
        return self._insert(memref_d.LoadOp(memref_val, ref.indices)).results[0]

    def _store_element(self, ref: ElementRef, value: Value) -> None:
        memref_val = self._element_base(ref)
        value = self._cast(value, memref_val.type.element_type)
        self._insert(memref_d.StoreOp(value, memref_val, ref.indices))

    def _element_base(self, ref: ElementRef) -> Value:
        binding = ref.binding
        if binding.kind == "boxed":
            return self._insert(memref_d.LoadOp(binding.value, [])).results[0]
        return binding.value

    # ----------------------------------------------------------------- designate
    def _op_hlfir_designate(self, op: hlfir.DesignateOp) -> None:
        base = op.memref
        binding = self._binding_for(base)
        if binding is None:
            raise ConversionError("designate on a value without a variable binding")
        if op.component is not None:
            members = getattr(binding, "members", None)
            if members is None or op.component not in members:
                raise ConversionError(
                    f"unknown derived-type component {op.component}")
            member_binding = members[op.component]
            self.bindings[op.results[0]] = member_binding
            self.value_map[op.results[0]] = member_binding.value
            return
        if op.triplets:
            self._designate_section(op, binding)
            return
        # element access: Fortran (column-major, 1-based) indices become
        # reversed, zero-based memref indices
        one = self._constant_index(1)
        zero_based = []
        for idx in op.indices:
            v = self._to_index(self._map(idx))
            zero_based.append(self._insert(arith.SubIOp(v, one)).result)
        zero_based.reverse()
        self.element_refs[op.results[0]] = ElementRef(binding=binding,
                                                      indices=zero_based)
        self.value_map[op.results[0]] = binding.value

    def _designate_section(self, op: hlfir.DesignateOp, binding: VarBinding) -> None:
        """Array sections become memref.subview (shared storage, no copy)."""
        base = self._element_base(ElementRef(binding=binding))
        rank = binding.rank
        one = self._constant_index(1)
        offsets: List[Value] = []
        sizes: List[Value] = []
        strides: List[Value] = []
        triplets = list(op.triplets)
        for d in range(rank):
            lo, hi, st = triplets[3 * d: 3 * d + 3]
            lo_v = self._to_index(self._map(lo))
            hi_v = self._to_index(self._map(hi))
            st_v = self._to_index(self._map(st))
            offsets.append(self._insert(arith.SubIOp(lo_v, one)).result)
            span = self._insert(arith.SubIOp(hi_v, lo_v)).result
            span1 = self._insert(arith.AddIOp(span, one)).result
            sizes.append(self._insert(arith.MaxSIOp(
                span1, self._constant_index(0))).result)
            strides.append(st_v)
        offsets.reverse()
        sizes.reverse()
        strides.reverse()
        subview = self._insert(memref_d.SubViewOp(base, offsets, sizes, strides))
        self.element_refs[op.results[0]] = ElementRef(binding=binding, is_section=True,
                                                      section_value=subview.results[0])
        self.value_map[op.results[0]] = subview.results[0]

    # -------------------------------------------------------------------- assign
    def _op_hlfir_assign(self, op: hlfir.AssignOp) -> None:
        rhs_old, lhs_old = op.rhs, op.lhs
        lhs_binding = self._binding_for(lhs_old)
        lhs_ref = self.element_refs.get(lhs_old)
        rhs = self.value_map.get(rhs_old)
        # whole-array targets
        if lhs_ref is None and lhs_binding is not None and lhs_binding.rank > 0:
            target = self._element_base(ElementRef(binding=lhs_binding))
            if rhs is not None and isinstance(rhs.type, ir_types.MemRefType):
                self._insert(linalg.CopyOp(rhs, target))
                return
            value = self._cast(self._map(rhs_old), lhs_binding.element_type)
            self._insert(linalg.FillOp(value, target))
            return
        # element or scalar target
        value = self._map(rhs_old)
        if lhs_ref is not None:
            self._store_element(lhs_ref, value)
            return
        self._store_to(lhs_old, value)

    # ------------------------------------------------------------ allocatables
    def _op_fir_allocmem(self, op: fir.AllocMemOp) -> None:
        in_type = op.in_type
        if isinstance(in_type, fir.SequenceType):
            memref_type = ir_types.MemRefType([ir_types.DYNAMIC] * in_type.rank,
                                              scalar_type(in_type.element_type))
            sizes = [self._to_index(self._map(v)) for v in reversed(op.operands)]
        else:
            memref_type = ir_types.MemRefType([], scalar_type(in_type))
            sizes = []
        alloc = self._insert(memref_d.AllocOp(memref_type, sizes))
        self.value_map[op.results[0]] = alloc.results[0]

    def _op_fir_embox(self, op: fir.EmboxOp) -> None:
        self.value_map[op.results[0]] = self._map(op.operands[0])

    def _op_fir_box_addr(self, op: fir.BoxAddrOp) -> None:
        self.value_map[op.results[0]] = self._map(op.operands[0])

    def _op_fir_box_dims(self, op: fir.BoxDimsOp) -> None:
        box = self._map(op.operands[0])
        dim = self._map(op.operands[1])
        # Fortran dimension d corresponds to memref dimension rank-1-d
        rank = box.type.rank if isinstance(box.type, ir_types.MemRefType) else 1
        rank_c = self._constant_index(rank - 1)
        rev = self._insert(arith.SubIOp(rank_c, self._to_index(dim))).result
        size = self._insert(memref_d.DimOp(box, rev))
        one = self._constant_index(1)
        self.value_map[op.results[0]] = one
        self.value_map[op.results[1]] = size.results[0]
        self.value_map[op.results[2]] = one

    def _op_fir_freemem(self, op: fir.FreeMemOp) -> None:
        value = op.operands[0]
        binding = self._binding_for(value)
        if binding is not None and binding.kind == "boxed":
            inner = self._insert(memref_d.LoadOp(binding.value, [])).results[0]
            self._insert(memref_d.DeallocOp(inner))
            return
        self._insert(memref_d.DeallocOp(self._map(value)))

    # --------------------------------------------------------------- conversions
    def _op_fir_convert(self, op: fir.ConvertOp) -> None:
        value = self._map(op.operands[0])
        target = convert_value_type(op.results[0].type)
        if isinstance(value.type, ir_types.MemRefType) or \
                isinstance(target, ir_types.MemRefType):
            self.value_map[op.results[0]] = value
            return
        self.value_map[op.results[0]] = self._cast(value, target)

    # ------------------------------------------------------------- control flow
    def _op_fir_result(self, op: fir.ResultOp) -> None:
        self._insert(scf.YieldOp([self._map(v) for v in op.operands]))

    def _op_fir_if(self, op: fir.IfOp) -> None:
        condition = self._map(op.condition)
        new_if = self._insert(scf.IfOp(condition,
                                       [convert_value_type(r.type) for r in op.results]))
        for old, new in zip(op.results, new_if.results):
            self.value_map[old] = new
        for old_block, new_block in ((op.then_block, new_if.then_block),
                                     (op.else_block, new_if.else_block)):
            with self.builder.at(InsertPoint.at_end(new_block)):
                for inner in old_block.ops:
                    self._translate_op(inner)
                if new_block.terminator is None:
                    self._insert(scf.YieldOp())

    def _positive_range(self, lower: Value, upper: Value, step: Value):
        """Exclusive upper bound for an inclusive Fortran range with positive step."""
        diff = self._insert(arith.SubIOp(upper, lower)).result
        trips = self._insert(arith.FloorDivSIOp(diff, step)).result
        one = self._constant_index(1)
        trips1 = self._insert(arith.AddIOp(trips, one)).result
        span = self._insert(arith.MulIOp(trips1, step)).result
        return self._insert(arith.AddIOp(lower, span)).result

    def _op_fir_do_loop(self, op: fir.DoLoopOp) -> None:
        lower = self._to_index(self._map(op.lower_bound))
        upper = self._to_index(self._map(op.upper_bound))
        step = self._to_index(self._map(op.step))
        step_const = self._constant_of(op.step)
        iter_inits = [self._map(v) for v in op.iter_args]

        if step_const is not None and step_const < 0:
            self._emit_reversed_for(op, lower, upper, step, iter_inits)
            return
        if step_const is None:
            # unknown sign: runtime check (scf.if) choosing between the two forms
            zero = self._constant_index(0)
            is_positive = self._insert(arith.CmpIOp("sgt", step, zero)).result
            outer_if = self._insert(scf.IfOp(is_positive,
                                             [ir_types.index] * len(op.results)))
            with self.builder.at(InsertPoint.at_end(outer_if.then_block)):
                results = self._emit_forward_for(op, lower, upper, step, iter_inits)
                self._insert(scf.YieldOp(results))
            with self.builder.at(InsertPoint.at_end(outer_if.else_block)):
                results = self._emit_reversed_for(op, lower, upper, step, iter_inits,
                                                  yield_results=True)
                self._insert(scf.YieldOp(results))
            for old, new in zip(op.results, outer_if.results):
                self.value_map[old] = new
            return
        results = self._emit_forward_for(op, lower, upper, step, iter_inits)
        for old, new in zip(op.results, results):
            self.value_map[old] = new

    def _constant_of(self, value: Value) -> Optional[int]:
        op = getattr(value, "op", None)
        if op is not None and op.name == "arith.constant":
            return int(op.get_attr("value").value)
        return None

    def _emit_forward_for(self, op: fir.DoLoopOp, lower, upper, step, iter_inits):
        upper_excl = self._positive_range(lower, upper, step)
        loop = self._insert(scf.ForOp(lower, upper_excl, step, iter_inits))
        self._fill_loop_body(op, loop, loop.induction_variable,
                             list(loop.region_iter_args))
        # fir.do_loop's first result is the final induction value
        final_iv = upper_excl
        return [final_iv] + list(loop.results)

    def _emit_reversed_for(self, op: fir.DoLoopOp, lower, upper, step, iter_inits,
                           yield_results: bool = False):
        """Negative step: reverse the bounds, use |step|, and compute the
        down-counting index inside the body (Section V-A)."""
        zero = self._constant_index(0)
        abs_step = self._insert(arith.SubIOp(zero, step)).result
        # trip count over the downward range
        diff = self._insert(arith.SubIOp(lower, upper)).result
        trips = self._insert(arith.FloorDivSIOp(diff, abs_step)).result
        one = self._constant_index(1)
        trips1 = self._insert(arith.AddIOp(trips, one)).result
        span = self._insert(arith.MulIOp(trips1, abs_step)).result
        new_lower = upper
        new_upper = self._insert(arith.AddIOp(upper, span)).result
        loop = self._insert(scf.ForOp(new_lower, new_upper, abs_step, iter_inits))
        # downward index = lower + upper - iv
        with self.builder.at(InsertPoint.at_end(loop.body)):
            total = self._insert(arith.AddIOp(lower, upper)).result
            down = self._insert(arith.SubIOp(total, loop.induction_variable)).result
        self._fill_loop_body(op, loop, down, list(loop.region_iter_args),
                             skip_existing=True)
        final_iv = upper
        return [final_iv] + list(loop.results)

    def _fill_loop_body(self, op: fir.DoLoopOp, loop: scf.ForOp, iv: Value,
                        iter_values: List[Value], skip_existing: bool = False) -> None:
        self.value_map[op.induction_variable] = iv
        for old, new in zip(op.body.args[1:], iter_values):
            self.value_map[old] = new
        with self.builder.at(InsertPoint.at_end(loop.body)):
            for inner in op.body.ops:
                if inner.name == "fir.result":
                    self._insert(scf.YieldOp([self._map(v) for v in inner.operands]))
                else:
                    self._translate_op(inner)
            if loop.body.terminator is None:
                self._insert(scf.YieldOp())
        if not skip_existing:
            for old, new in zip(op.results[1:], loop.results):
                self.value_map[old] = new

    def _op_fir_iterate_while(self, op: fir.IterateWhileOp) -> None:
        """fir.iterate_while -> scf.while with an explicit counter and an
        arith.andi of (still-in-range) and (ok flag)."""
        lower = self._to_index(self._map(op.lower_bound))
        upper = self._to_index(self._map(op.upper_bound))
        step = self._to_index(self._map(op.step))
        initial_ok = self._map(op.initial_ok)
        iter_inits = [self._map(v) for v in op.iter_args]
        carried_types = [ir_types.index, ir_types.i1] + [v.type for v in iter_inits]

        while_op = self._insert(scf.WhileOp([lower, initial_ok, *iter_inits],
                                            carried_types))
        before = while_op.before_block
        after = while_op.after_block
        # before: check iv <= upper && ok
        with self.builder.at(InsertPoint.at_end(before)):
            in_range = self._insert(arith.CmpIOp("sle", before.args[0], upper)).result
            keep = self._insert(arith.AndIOp(in_range, before.args[1])).result
            self._insert(scf.ConditionOp(keep, list(before.args)))
        # after: body; yield iv+step, new ok, iter args
        self.value_map[op.body.args[0]] = after.args[0]
        self.value_map[op.body.args[1]] = after.args[1]
        for old, new in zip(op.body.args[2:], after.args[2:]):
            self.value_map[old] = new
        with self.builder.at(InsertPoint.at_end(after)):
            for inner in op.body.ops:
                if inner.name == "fir.result":
                    yielded = [self._map(v) for v in inner.operands]
                    new_ok = yielded[0] if yielded else after.args[1]
                    rest = yielded[1:]
                    next_iv = self._insert(arith.AddIOp(after.args[0], step)).result
                    self._insert(scf.YieldOp([next_iv, new_ok, *rest]))
                else:
                    self._translate_op(inner)
            if after.terminator is None:
                next_iv = self._insert(arith.AddIOp(after.args[0], step)).result
                self._insert(scf.YieldOp([next_iv, after.args[1], *list(after.args[2:])]))
        for old, new in zip(op.results, while_op.results):
            self.value_map[old] = new

    # -- unstructured control flow (goto): via the tmpbr dialect -------------------
    def _op_cf_br(self, op: cf.BranchOp) -> None:
        index = self.block_index_map[op.successors[0]]
        self._insert(tmpbr.BrOp(index, [self._map(v) for v in op.operands]))

    def _op_cf_cond_br(self, op: cf.CondBranchOp) -> None:
        true_index = self.block_index_map[op.successors[0]]
        false_index = self.block_index_map[op.successors[1]]
        self._insert(tmpbr.CondBrOp(self._map(op.condition), true_index, false_index,
                                    [self._map(v) for v in op.true_operands],
                                    [self._map(v) for v in op.false_operands]))

    # ------------------------------------------------------------------- calls
    def _op_fir_call(self, op: fir.CallOp) -> None:
        callee = op.callee
        signature = self.function_signatures.get(callee)
        new_operands: List[Value] = []
        if signature is None:
            # runtime call (print/stop/...): pass mapped values directly
            for v in op.operands:
                binding = self._binding_for(v)
                if binding is not None and binding.kind == "boxed":
                    new_operands.append(self._insert(memref_d.LoadOp(binding.value, [])).results[0])
                elif binding is not None:
                    new_operands.append(binding.value)
                else:
                    new_operands.append(self._map(v))
            result_types = [convert_value_type(r.type) for r in op.results]
            call = self._insert(func_d.CallOp(callee, new_operands, result_types))
        else:
            kinds = self.function_arg_kinds[callee]
            copy_out: List[Tuple[Value, ElementRef]] = []
            for v, expected, kind in zip(op.operands, signature.inputs, kinds):
                new_operands.append(
                    self._convert_call_argument(v, expected, kind, copy_out))
            call = self._insert(func_d.CallOp(callee, new_operands,
                                              list(signature.results)))
            for temp, ref in copy_out:
                self._store_element(
                    ref, self._insert(memref_d.LoadOp(temp, [])).results[0])
        for old, new in zip(op.results, call.results):
            self.value_map[old] = new

    def _convert_call_argument(self, old: Value, expected: ir_types.Type,
                               kind: str,
                               copy_out: List[Tuple[Value, ElementRef]]
                               ) -> Value:
        binding = self._binding_for(old)
        element_ref = self.element_refs.get(old)
        if kind == "ssa":
            if binding is not None:
                if binding.kind == "ssa":
                    return binding.value
                if binding.rank == 0:
                    return self._insert(memref_d.LoadOp(binding.value, [])).results[0]
            if element_ref is not None:
                return self._load_element(element_ref)
            mapped = self._map(old)
            if isinstance(mapped.type, ir_types.MemRefType) and mapped.type.rank == 0:
                return self._insert(memref_d.LoadOp(mapped, [])).results[0]
            return mapped
        if kind == "boxed":
            if binding is not None and binding.kind == "boxed":
                return binding.value
            raise ConversionError("allocatable dummy argument requires an "
                                  "allocatable actual argument")
        # kind == memref
        if binding is not None:
            if binding.kind == "boxed":
                return self._insert(memref_d.LoadOp(binding.value, [])).results[0]
            return binding.value
        if element_ref is not None and element_ref.is_section:
            return element_ref.section_value
        if element_ref is not None:
            # an array element: copied in here and out after the call, so
            # the callee sees one element (a Cell on every engine), never
            # the array behind the designate
            mapped = self._load_element(element_ref)
        else:
            mapped = self._map(old)
            if isinstance(mapped.type, ir_types.MemRefType):
                return mapped
        # a scalar passed to a memref dummy: materialise a temporary
        temp = self._insert(memref_d.AllocaOp(ir_types.MemRefType([], mapped.type)))
        self._insert(memref_d.StoreOp(mapped, temp.results[0], []))
        if element_ref is not None:
            copy_out.append((temp.results[0], element_ref))
        return temp.results[0]

    def _op_func_return(self, op: Operation) -> None:
        self._insert(func_d.ReturnOp([self._map(v) for v in op.operands]))

    # ------------------------------------------------------------------ intrinsics
    def _op_hlfir_sum(self, op) -> None:
        self._reduction_to_linalg(op, kind="add")

    def _op_hlfir_product(self, op) -> None:
        self._reduction_to_linalg(op, kind="mul")

    def _op_hlfir_maxval(self, op) -> None:
        self._reduction_to_linalg(op, kind="max")

    def _op_hlfir_minval(self, op) -> None:
        self._reduction_to_linalg(op, kind="min")

    def _op_hlfir_count(self, op) -> None:
        self._reduction_to_linalg(op, kind="add")

    def _reduction_to_linalg(self, op, kind: str) -> None:
        """Listing 8: allocate a 0-d output memref, initialise it, reduce into
        it with linalg.reduce, then load the result."""
        array = self._array_memref(op.array)
        element_type = op.results[0].type
        element_type = convert_value_type(element_type)
        out = self._insert(memref_d.AllocaOp(ir_types.MemRefType([], element_type)))
        init = self._reduction_init(kind, element_type)
        self._insert(memref_d.StoreOp(init, out.results[0], []))
        rank = array.type.rank if isinstance(array.type, ir_types.MemRefType) else 1
        reduce = linalg.ReduceOp(array, out.results[0], list(range(rank)))
        body = reduce.body
        with self.builder.at(InsertPoint.at_end(body)):
            combined = self._combine(kind, body.args[0], body.args[1])
            self._insert(linalg.LinalgYieldOp([combined]))
        self._insert(reduce)
        loaded = self._insert(memref_d.LoadOp(out.results[0], []))
        self.value_map[op.results[0]] = loaded.results[0]

    def _reduction_init(self, kind: str, element_type) -> Value:
        is_float = isinstance(element_type, ir_types.FloatType)
        # integer sentinels follow the element width: i64 reductions may
        # legitimately hold values outside i32 range
        width = getattr(element_type, "width", 32)
        if kind == "add":
            v = 0.0 if is_float else 0
        elif kind == "mul":
            v = 1.0 if is_float else 1
        elif kind == "max":
            v = -1.0e308 if is_float else -(2 ** (width - 1))
        else:  # min
            v = 1.0e308 if is_float else 2 ** (width - 1) - 1
        if is_float:
            return self._insert(arith.ConstantOp(float(v), element_type)).result
        return self._insert(arith.ConstantOp(int(v), element_type)).result

    def _combine(self, kind: str, a: Value, b: Value) -> Value:
        is_float = isinstance(a.type, ir_types.FloatType)
        table = {
            ("add", True): arith.AddFOp, ("add", False): arith.AddIOp,
            ("mul", True): arith.MulFOp, ("mul", False): arith.MulIOp,
            ("max", True): arith.MaximumFOp, ("max", False): arith.MaxSIOp,
            ("min", True): arith.MinimumFOp, ("min", False): arith.MinSIOp,
        }
        return self._insert(table[(kind, is_float)](a, b)).result

    def _op_hlfir_dot_product(self, op) -> None:
        a = self._array_memref(op.lhs)
        b = self._array_memref(op.rhs)
        element_type = convert_value_type(op.results[0].type)
        out = self._insert(memref_d.AllocaOp(ir_types.MemRefType([], element_type)))
        zero = self._insert(arith.ConstantOp(
            0.0 if isinstance(element_type, ir_types.FloatType) else 0,
            element_type)).result
        self._insert(memref_d.StoreOp(zero, out.results[0], []))
        self._insert(linalg.DotOp(a, b, out.results[0]))
        loaded = self._insert(memref_d.LoadOp(out.results[0], []))
        self.value_map[op.results[0]] = loaded.results[0]

    def _op_hlfir_matmul(self, op) -> None:
        self._expr_producing_intrinsic(op, "matmul")

    def _op_hlfir_transpose(self, op) -> None:
        self._expr_producing_intrinsic(op, "transpose")

    def _expr_producing_intrinsic(self, op, kind: str) -> None:
        """matmul/transpose produce a whole array: write directly into the
        assignment target when the only use is a single hlfir.assign."""
        uses = op.results[0].users()
        target_memref: Optional[Value] = None
        assign_user = None
        if len(uses) == 1 and isinstance(uses[0], hlfir.AssignOp) and \
                uses[0].rhs is op.results[0]:
            assign_user = uses[0]
            target_binding = self._binding_for(assign_user.lhs)
            if target_binding is not None and target_binding.rank > 0:
                target_memref = self._element_base(ElementRef(binding=target_binding))
        inputs = [self._array_memref(v) for v in op.operands]
        if target_memref is None:
            raise ConversionError(
                f"the result of {kind}() must be assigned to an array "
                f"variable (no temporary is materialised for it)")
        if kind == "matmul":
            zero = self._insert(arith.ConstantOp(
                0.0 if isinstance(inputs[0].type.element_type, ir_types.FloatType) else 0,
                inputs[0].type.element_type)).result
            self._insert(linalg.FillOp(zero, target_memref))
            # memrefs carry the arrays with reversed (row-major) dimension
            # order, i.e. they hold the transposes of the Fortran matrices:
            # C = A.B  <=>  C_mem = B_mem . A_mem
            self._insert(linalg.MatmulOp(inputs[1], inputs[0], target_memref))
        else:
            self._insert(linalg.TransposeOp(inputs[0], target_memref, [1, 0]))
        self.value_map[op.results[0]] = target_memref
        if assign_user is not None:
            # the assign is now redundant; remember to skip it
            self.element_refs[op.results[0]] = ElementRef(
                binding=VarBinding(kind="memref", value=target_memref,
                                   element_type=inputs[0].type.element_type,
                                   rank=target_memref.type.rank),
                is_section=True, section_value=target_memref)
            self._consumed_assigns = getattr(self, "_consumed_assigns", set())
            self._consumed_assigns.add(assign_user)


def _wrap_assign_dispatch(cls):
    original = cls._op_hlfir_assign

    def wrapper(self, op):
        if op in getattr(self, "_consumed_assigns", set()):
            return
        original(self, op)

    cls._op_hlfir_assign = wrapper
    return cls


_wrap_assign_dispatch(FirToStandardLowering)


@register_pass
class ConvertFirToStandardPass(Pass):
    """``convert-fir-to-standard``: the paper's HLFIR/FIR -> standard MLIR pass.

    The conversion builds a new module; the pass moves its contents and
    attributes (``sym_name = "standard_module"``) into the module it runs
    on, so it rewrites in place like any other pass.
    """

    NAME = "convert-fir-to-standard"

    def run(self, module: Operation) -> None:
        converted = FirToStandardLowering(module).run()
        for op in module.body.ops:
            op.erase(check_uses=False)
        module.body.add_ops(list(converted.body.ops))
        module.attributes = dict(converted.attributes)


def convert_fir_to_standard(module: ModuleOp) -> ModuleOp:
    """Translate a HLFIR/FIR module into a standard-dialect module."""
    return FirToStandardLowering(module).run()


__all__ = ["FirToStandardLowering", "ConvertFirToStandardPass",
           "convert_fir_to_standard", "ConversionError", "VarBinding",
           "ElementRef", "convert_argument_type", "sequence_to_memref"]
