"""``affine-super-vectorize``: vectorise innermost affine loops.

Figure 3 of the paper: affine loops are super-vectorised with a virtual
vector size of 4 (AVX2, 256-bit doubles on the AMD Rome CPUs of ARCHER2);
the paper then lowers through scf/cf and
``convert-vector-to-llvm{enable-x86vector}``, which is not modelled.

The implementation vectorises an innermost ``affine.for`` when:

* its step is 1,
* every memory access inside it is an ``affine.load`` / ``affine.store``
  whose *fastest varying* (last) subscript is the loop induction variable
  (unit stride) or the access is loop-invariant (broadcast),
* the remaining body operations are elementwise ``arith`` / ``math`` ops.

Loops that accumulate into a rank-0 memref (reductions, e.g. dot product and
sum) are vectorised with a vector accumulator followed by a horizontal
``vector.reduction``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dialects import affine as affine_d
from ..dialects import arith, memref as memref_d, vector as vector_d
from ..ir import types as ir_types
from ..ir.attributes import AffineExpr
from ..ir.core import Block, Operation, Value
from ..ir.pass_manager import FunctionPass, register_pass

_ELEMENTWISE = {
    "arith.addf", "arith.subf", "arith.mulf", "arith.divf", "arith.negf",
    "arith.maximumf", "arith.minimumf", "arith.addi", "arith.subi",
    "arith.muli", "arith.constant", "math.fma", "math.sqrt", "math.absf",
}


def _is_innermost(loop: Operation) -> bool:
    return not any(op is not loop and op.name == "affine.for" for op in loop.walk())


class LoopVectorizer:
    def __init__(self, width: int):
        self.width = width

    # -- analysis ----------------------------------------------------------------
    def can_vectorize(self, loop: affine_d.AffineForOp) -> bool:
        if loop.step_value != 1 or loop.iter_args:
            return False
        body = loop.body
        iv = loop.induction_variable
        has_vectorizable_access = False
        stored_scalars = {id(op.operands[1]) for op in body.ops
                          if op.name in ("memref.store", "affine.store")
                          and op.operands[1].type.rank == 0}
        for op in body.ops:
            if op.name == "affine.yield":
                continue
            if op.name == "affine.load" and op.operands[0].type.rank == 0:
                continue  # scalar read (loop-invariant) or reduction accumulator
            if op.name == "affine.store" and op.operands[1].type.rank == 0:
                continue
            if op.name in ("affine.load", "affine.store"):
                if self._access_kind(op, iv) is None:
                    return False
                if self._access_kind(op, iv) == "contiguous":
                    has_vectorizable_access = True
                continue
            if op.name == "memref.load" and op.operands[0].type.rank == 0:
                continue  # reduction accumulator
            if op.name == "memref.store" and op.operands[1].type.rank == 0:
                continue
            if op.name in _ELEMENTWISE:
                continue
            return False
        return has_vectorizable_access

    def _access_kind(self, op: Operation, iv: Value) -> Optional[str]:
        """'contiguous' when the last subscript is exactly the IV (+ const),
        'invariant' when no subscript involves the IV, None otherwise."""
        amap = op.get_attr("map")
        if op.name == "affine.load":
            index_operands = list(op.operands[1:])
        else:
            index_operands = list(op.operands[2:])
        if not index_operands:
            return "invariant"
        uses_iv = [iv is v for v in index_operands]
        if not any(uses_iv):
            return "invariant"
        # the IV must drive only the last map result, with coefficient 1
        last_expr = amap.results[-1]
        iv_dim = index_operands.index(iv)
        if not self._expr_is_dim_plus_const(last_expr, iv_dim):
            return None
        for expr in amap.results[:-1]:
            if self._expr_mentions_dim(expr, iv_dim):
                return None
        return "contiguous"

    def _expr_is_dim_plus_const(self, expr: AffineExpr, dim: int) -> bool:
        if expr.kind == "dim":
            return expr.value == dim
        if expr.kind == "add":
            sides = [expr.lhs, expr.rhs]
            dims = [s for s in sides if s.kind == "dim" and s.value == dim]
            consts = [s for s in sides if s.kind == "const" or
                      (s.kind in ("add", "mul") and not self._expr_mentions_dim(s, dim))]
            return len(dims) == 1 and len(dims) + len(consts) == 2
        return False

    def _expr_mentions_dim(self, expr: AffineExpr, dim: int) -> bool:
        if expr.kind == "dim":
            return expr.value == dim
        if expr.kind in ("sym", "const"):
            return False
        return self._expr_mentions_dim(expr.lhs, dim) or \
            self._expr_mentions_dim(expr.rhs, dim)

    # -- reduction accumulator handling --------------------------------------------
    def _accumulator_read(self, op, accumulator_memref, result, accumulators,
                          new_loop, new_body, vec_map) -> None:
        key = id(accumulator_memref)
        if key not in accumulators:
            elem = result.type
            zero = arith.ConstantOp(
                0.0 if isinstance(elem, ir_types.FloatType) else 0, elem)
            new_loop.parent.insert_before(new_loop, zero)
            vtype = ir_types.VectorType([self.width], elem)
            acc_init = vector_d.BroadcastOp(vtype, zero.result)
            new_loop.parent.insert_before(new_loop, acc_init)
            acc_cell = memref_d.AllocaOp(ir_types.MemRefType([], vtype))
            new_loop.parent.insert_before(new_loop, acc_cell)
            init_store = memref_d.StoreOp(acc_init.results[0], acc_cell.results[0], [])
            new_loop.parent.insert_before(new_loop, init_store)
            accumulators[key] = {"cell": acc_cell.results[0],
                                 "orig": accumulator_memref, "elem": elem,
                                 "kind": "add", "init_const": zero}
        acc = accumulators[key]
        acc_load = memref_d.LoadOp(acc["cell"], [])
        new_body.add_op(acc_load)
        vec_map[result] = acc_load.results[0]

    @staticmethod
    def _combiner_kind(stored_value) -> Optional[str]:
        combiner = getattr(getattr(stored_value, "op", None), "name", "")
        if combiner in ("arith.maximumf", "arith.maxsi"):
            return "max"
        if combiner in ("arith.minimumf", "arith.minsi"):
            return "min"
        if combiner in ("arith.mulf", "arith.muli"):
            return "mul"
        if combiner in ("arith.addf", "arith.addi"):
            return "add"
        return None

    def _accumulator_write(self, op, accumulator_memref, stored_value, accumulators,
                           new_body, vec_map, reduction_stores) -> None:
        key = id(accumulator_memref)
        acc = accumulators.get(key)
        value = vec_map.get(stored_value, stored_value)
        if acc is None:
            new_body.add_op(memref_d.StoreOp(value, accumulator_memref, []))
            return
        kind = self._combiner_kind(stored_value)
        if kind is not None:
            acc["kind"] = kind
        new_body.add_op(memref_d.StoreOp(value, acc["cell"], []))
        reduction_stores.append(op)

    def _constant_trip(self, loop: affine_d.AffineForOp):
        lb_map, ub_map = loop.lower_bound_map, loop.upper_bound_map
        if len(lb_map.results) == 1 and lb_map.results[0].kind == "const" and \
                len(ub_map.results) == 1 and ub_map.results[0].kind == "const":
            lb, ub = lb_map.results[0].value, ub_map.results[0].value
            return lb, ub, max(0, ub - lb)
        return None

    # -- rewrite ------------------------------------------------------------------
    def vectorize(self, loop: affine_d.AffineForOp) -> bool:
        if not self.can_vectorize(loop):
            return False
        bounds = self._constant_trip(loop)
        if bounds is None:
            return False           # dynamic trip count: leave the loop scalar
        lb_const, ub_const, trip = bounds
        if trip < self.width:
            return False
        main_ub = lb_const + (trip // self.width) * self.width
        body = loop.body
        iv = loop.induction_variable
        width = self.width
        vec_map: Dict[Value, Value] = {}
        scalar_map: Dict[Value, Value] = {}
        reduction_stores: List[Operation] = []
        stored_scalars = {id(op.operands[1]) for op in body.ops
                          if op.name in ("memref.store", "affine.store")
                          and op.operands[1].type.rank == 0}

        new_body = Block(arg_types=[ir_types.index])
        from ..ir.attributes import AffineMapAttr
        new_loop = affine_d.AffineForOp(
            [], AffineMapAttr.constant_map(lb_const),
            [], AffineMapAttr.constant_map(main_ub),
            step=width, body=new_body)
        loop.parent.insert_before(loop, new_loop)
        new_iv = new_body.args[0]

        def vectorized(value: Value, elem_type) -> Value:
            """The vector form of a scalar value (broadcast when invariant)."""
            if value in vec_map:
                return vec_map[value]
            vtype = ir_types.VectorType([width], elem_type)
            bcast = vector_d.BroadcastOp(vtype, value)
            new_body.add_op(bcast)
            vec_map[value] = bcast.results[0]
            return bcast.results[0]

        accumulators: Dict[int, Dict] = {}

        for op in body.ops:
            if op.name == "affine.yield":
                continue
            if op.name == "affine.load" and op.operands[0].type.rank == 0:
                if id(op.operands[0]) in stored_scalars:
                    self._accumulator_read(op, op.operands[0], op.results[0],
                                           accumulators, new_loop, new_body, vec_map)
                else:
                    scalar_load = memref_d.LoadOp(op.operands[0], [])
                    new_body.add_op(scalar_load)
                    scalar_map[op.results[0]] = scalar_load.results[0]
                    vec_map[op.results[0]] = vectorized(scalar_load.results[0],
                                                        op.results[0].type)
                continue
            if op.name == "affine.store" and op.operands[1].type.rank == 0:
                self._accumulator_write(op, op.operands[1], op.operands[0],
                                        accumulators, new_body, vec_map,
                                        reduction_stores)
                continue
            if op.name == "affine.load":
                kind = self._access_kind(op, iv)
                elem = op.results[0].type
                operands = [new_iv if o is iv else scalar_map.get(o, o)
                            for o in op.operands[1:]]
                if kind == "contiguous":
                    vload = vector_d.VectorLoadOp(
                        ir_types.VectorType([width], elem), op.operands[0], operands)
                    # the affine map is stored on the op: the engines index
                    # through it
                    vload.set_attr("map", op.get_attr("map"))
                    new_body.add_op(vload)
                    vec_map[op.results[0]] = vload.results[0]
                else:
                    aload = affine_d.AffineLoadOp(op.operands[0], operands,
                                                  op.get_attr("map"))
                    new_body.add_op(aload)
                    vec_map[op.results[0]] = vectorized(aload.results[0], elem)
                continue
            if op.name == "affine.store":
                value = op.operands[0]
                elem = value.type
                operands = [new_iv if o is iv else scalar_map.get(o, o)
                            for o in op.operands[2:]]
                vec_value = vec_map.get(value)
                if vec_value is None:
                    vec_value = vectorized(value, elem)
                vstore = vector_d.VectorStoreOp(vec_value, op.operands[1], operands)
                vstore.set_attr("map", op.get_attr("map"))
                new_body.add_op(vstore)
                continue
            if op.name == "memref.load" and op.operands[0].type.rank == 0 and \
                    id(op.operands[0]) not in stored_scalars:
                scalar_load = memref_d.LoadOp(op.operands[0], [])
                new_body.add_op(scalar_load)
                scalar_map[op.results[0]] = scalar_load.results[0]
                vec_map[op.results[0]] = vectorized(scalar_load.results[0],
                                                    op.results[0].type)
                continue
            if op.name == "memref.load" and op.operands[0].type.rank == 0:
                # reduction accumulator read: replace with a vector accumulator
                key = id(op.operands[0])
                if key not in accumulators:
                    elem = op.results[0].type
                    zero = arith.ConstantOp(0.0 if isinstance(elem, ir_types.FloatType) else 0,
                                            elem)
                    new_loop.parent.insert_before(new_loop, zero)
                    vtype = ir_types.VectorType([width], elem)
                    acc_init = vector_d.BroadcastOp(vtype, zero.result)
                    new_loop.parent.insert_before(new_loop, acc_init)
                    acc_cell = memref_d.AllocaOp(ir_types.MemRefType([], vtype))
                    new_loop.parent.insert_before(new_loop, acc_cell)
                    init_store = memref_d.StoreOp(acc_init.results[0], acc_cell.results[0], [])
                    new_loop.parent.insert_before(new_loop, init_store)
                    accumulators[key] = {"cell": acc_cell.results[0],
                                         "orig": op.operands[0], "elem": elem,
                                         "kind": "add", "init_const": zero}
                acc = accumulators[key]
                acc_load = memref_d.LoadOp(acc["cell"], [])
                new_body.add_op(acc_load)
                vec_map[op.results[0]] = acc_load.results[0]
                continue
            if op.name == "memref.store" and op.operands[1].type.rank == 0:
                key = id(op.operands[1])
                acc = accumulators.get(key)
                value = vec_map.get(op.operands[0], op.operands[0])
                if acc is None:
                    new_body.add_op(memref_d.StoreOp(value, op.operands[1], []))
                    continue
                kind = self._combiner_kind(op.operands[0])
                if kind is not None:
                    acc["kind"] = kind
                new_body.add_op(memref_d.StoreOp(value, acc["cell"], []))
                reduction_stores.append(op)
                continue
            # elementwise op: clone with vectorised operands
            elem = op.results[0].type if op.results else ir_types.f64
            if op.name == "arith.constant":
                const = Operation.__new__(type(op))
                Operation.__init__(const, result_types=[op.results[0].type],
                                   attributes=dict(op.attributes), name=op.name)
                new_body.add_op(const)
                vec_map[op.results[0]] = vectorized(const.results[0], op.results[0].type)
                continue
            new_operands = []
            for operand in op.operands:
                if operand in vec_map:
                    new_operands.append(vec_map[operand])
                elif isinstance(operand.type, ir_types.VectorType):
                    new_operands.append(operand)
                else:
                    new_operands.append(vectorized(operand, operand.type))
            vec_type = ir_types.VectorType([width], elem) if op.results else None
            cloned = Operation.__new__(type(op))
            Operation.__init__(cloned, operands=new_operands,
                               result_types=[vec_type] if vec_type else [],
                               attributes=dict(op.attributes), name=op.name)
            new_body.add_op(cloned)
            if op.results:
                vec_map[op.results[0]] = cloned.results[0]

        new_body.add_op(affine_d.AffineYieldOp())
        new_loop.set_attr("vectorized", arith.ConstantOp(1, ir_types.i32).attributes["value"])

        # finalise reductions: horizontal reduce the accumulator into the
        # original rank-0 memref after the loop
        for acc in accumulators.values():
            kind = acc.get("kind", "add")
            is_float = isinstance(acc["elem"], ir_types.FloatType)
            # retarget the accumulator's splat to the reduction's neutral
            # element (the kind is only known once the combiner was seen):
            # a zero splat poisons max over negatives, min over positives
            # and any product.  Integer sentinels follow the element width
            # (i64 data may legitimately exceed i32 range).
            width = getattr(acc["elem"], "width", 32)
            neutral = {"add": 0, "mul": 1,
                       "max": -1.0e308 if is_float else -(2 ** (width - 1)),
                       "min": 1.0e308 if is_float
                       else 2 ** (width - 1) - 1}[kind]
            init_const = acc.get("init_const")
            if init_const is not None:
                from ..ir.attributes import FloatAttr, IntegerAttr
                init_const.attributes["value"] = \
                    FloatAttr(float(neutral), acc["elem"]) if is_float \
                    else IntegerAttr(int(neutral), acc["elem"])
            load_vec = memref_d.LoadOp(acc["cell"], [])
            new_loop.parent.insert_after(new_loop, load_vec)
            red_kind = {"add": "add", "mul": "mul",
                        "max": "maxf" if is_float else "maxsi",
                        "min": "minf" if is_float else "minsi"}[kind]
            red = vector_d.ReductionOp(red_kind, load_vec.results[0])
            new_loop.parent.insert_after(load_vec, red)
            orig_load = memref_d.LoadOp(acc["orig"], [])
            new_loop.parent.insert_after(red, orig_load)
            combine_table = {
                ("add", True): arith.AddFOp, ("add", False): arith.AddIOp,
                ("mul", True): arith.MulFOp, ("mul", False): arith.MulIOp,
                ("max", True): arith.MaximumFOp, ("max", False): arith.MaxSIOp,
                ("min", True): arith.MinimumFOp, ("min", False): arith.MinSIOp,
            }
            add = combine_table[(kind, is_float)](orig_load.results[0], red.results[0])
            new_loop.parent.insert_after(orig_load, add)
            store = memref_d.StoreOp(add.result, acc["orig"], [])
            new_loop.parent.insert_after(add, store)

        if main_ub >= ub_const:
            loop.erase(check_uses=False)
        else:
            # the original loop becomes the scalar remainder over [main_ub, ub)
            from ..ir.attributes import AffineMapAttr as _AM
            loop.attributes["lower_bound_map"] = _AM.constant_map(main_ub)
        return True


@register_pass
class AffineSuperVectorizePass(FunctionPass):
    """``affine-super-vectorize``: vectorise innermost affine loops.

    Option ``virtual_vector_size`` matches the mlir-opt spelling
    ``affine-super-vectorize{virtual-vector-size=4}``.
    """

    NAME = "affine-super-vectorize"

    def run_on_function(self, func: Operation) -> None:
        width = int(self.options.get("virtual_vector_size", 4))
        vectorizer = LoopVectorizer(width)
        for op in list(func.walk()):
            if op.name == "affine.for" and op.parent is not None and _is_innermost(op):
                vectorizer.vectorize(op)


__all__ = ["AffineSuperVectorizePass", "LoopVectorizer"]
