"""Attributes, affine expressions, pass manager and rewriter tests
(including hypothesis property tests on core invariants)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dialects import arith
from repro.dialects.builtin import ModuleOp
from repro.ir import (Block, PassManager, RewritePattern, PatternRewriter,
                      apply_patterns_greedily, parse_pipeline)
from repro.ir import types as T
from repro.ir.attributes import (AffineExpr, AffineMapAttr, ArrayAttr,
                                 BoolAttr, FloatAttr, IntegerAttr, StringAttr)
from repro.ir.pass_manager import PassError, available_passes
import repro.transforms  # noqa: F401  (registers passes)
import repro.core  # noqa: F401


class TestAttributes:
    def test_integer_attr_equality_and_hash(self):
        assert IntegerAttr(3, T.i32) == IntegerAttr(3, T.i32)
        assert IntegerAttr(3, T.i32) != IntegerAttr(3, T.i64)
        assert hash(IntegerAttr(3)) == hash(IntegerAttr(3))

    def test_string_and_bool_attrs(self):
        assert StringAttr("x").mlir() == '"x"'
        assert BoolAttr(True).mlir() == "true"

    def test_array_attr_iteration(self):
        arr = ArrayAttr([IntegerAttr(1), IntegerAttr(2)])
        assert len(arr) == 2
        assert [a.value for a in arr] == [1, 2]

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_integer_attr_value_roundtrip(self, a, b):
        assert IntegerAttr(a).value == a
        assert (IntegerAttr(a) == IntegerAttr(b)) == (a == b)


class TestTypes:
    def test_memref_type_shape_queries(self):
        t = T.MemRefType([4, T.DYNAMIC], T.f64)
        assert t.rank == 2
        assert not t.has_static_shape()
        assert t.num_dynamic_dims() == 1
        assert "?" in t.mlir()

    def test_static_memref_num_elements(self):
        t = T.MemRefType([8, 8], T.f32)
        assert t.num_elements() == 64

    def test_vector_type_rejects_dynamic(self):
        with pytest.raises(ValueError):
            T.VectorType([T.DYNAMIC], T.f64)

    def test_function_type_mlir(self):
        ft = T.FunctionType([T.i32], [T.f64])
        assert ft.mlir() == "(i32) -> f64"

    @given(st.lists(st.integers(1, 64), min_size=0, max_size=4))
    def test_memref_equality_is_structural(self, shape):
        assert T.MemRefType(shape, T.f64) == T.MemRefType(list(shape), T.f64)


class TestAffineExpr:
    @given(st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100))
    def test_affine_add_mul_evaluation(self, d0, d1, c):
        expr = AffineExpr.dim(0) + AffineExpr.dim(1) * c
        assert expr.evaluate([d0, d1]) == d0 + d1 * c

    @given(st.integers(0, 1000), st.integers(1, 64))
    def test_floordiv_matches_python(self, a, b):
        expr = AffineExpr.dim(0).floordiv(b)
        assert expr.evaluate([a]) == a // b

    def test_identity_map(self):
        amap = AffineMapAttr.identity(3)
        assert amap.evaluate([5, 6, 7]) == (5, 6, 7)

    def test_constant_map(self):
        amap = AffineMapAttr.constant_map(42)
        assert amap.evaluate([]) == (42,)


class TestPassInfrastructure:
    def test_parse_pipeline_optimise_stage(self):
        from repro.core.pipelines import optimise_pipeline
        entries = parse_pipeline(optimise_pipeline().describe())
        names = [n for n, _ in entries]
        assert names[0] == "canonicalize"
        assert "raise-scf-to-affine" in names
        assert ("affine-super-vectorize",
                {"virtual_vector_size": 4}) in entries

    def test_every_optimise_stage_pass_is_registered(self):
        from repro.core.pipelines import optimise_pipeline
        registered = set(available_passes())
        for name, _ in parse_pipeline(optimise_pipeline().describe()):
            assert name in registered, f"pass {name} not registered"

    def test_unknown_pass_raises(self):
        with pytest.raises(PassError):
            PassManager.from_pipeline("builtin.module(not-a-real-pass)")

    def test_pass_manager_describe_round_trip(self):
        pm = PassManager.from_pipeline("builtin.module(canonicalize, cse)")
        assert "canonicalize" in pm.describe()
        assert "cse" in pm.describe()

    def test_function_anchors_are_found_without_entering_functions(self):
        """``anchored_ops`` skips function bodies; it must still find what
        the full walk finds, in the same order."""
        from repro.dialects.func import FuncOp
        from repro.flows import available_flows, get_flow
        from repro.ir import create_operation
        from repro.ir.pass_manager import anchored_ops
        from repro.workloads import all_workloads

        def by_walking(host, anchor="func.func"):
            return [op for op in host.walk() if op.name == anchor]

        for workload in all_workloads():
            for flow in available_flows():
                module = get_flow(flow).run(
                    workload, collect_statistics=False).module
                assert anchored_ops(module, "func.func") == by_walking(module)
        # functions inside a container that is not a function are found,
        # a function host is its own only anchor, other anchors still walk
        inner = FuncOp("inner", T.FunctionType((), ()))
        container = create_operation("test.container", regions=1)
        container.regions[0].add_block(Block())
        container.regions[0].blocks[0].add_op(inner)
        outer = FuncOp("outer", T.FunctionType((), ()))
        constant = arith.ConstantOp(1, T.i32)
        outer.entry_block.add_op(constant)
        module = ModuleOp([outer])
        module.body.add_op(container)
        assert anchored_ops(module, "func.func") == [outer, inner]
        assert anchored_ops(outer, "func.func") == [outer]
        assert anchored_ops(module, "arith.constant") == [constant]

    def test_verifier_rejects_a_function_inside_a_function_body(self):
        from repro.dialects.func import FuncOp
        from repro.ir import VerificationError, verify_operation
        outer = FuncOp("outer", T.FunctionType((), ()))
        module = ModuleOp([outer])
        verify_operation(module)
        outer.entry_block.add_op(FuncOp("inner", T.FunctionType((), ())))
        with pytest.raises(VerificationError, match="inside another"):
            verify_operation(module)


class TestRewriter:
    def test_greedy_pattern_application(self):
        class FoldAddZero(RewritePattern):
            ROOT_OP = "arith.addi"

            def match_and_rewrite(self, op, rewriter: PatternRewriter) -> bool:
                rhs = getattr(op.operands[1], "op", None)
                if rhs is not None and rhs.name == "arith.constant" and \
                        rhs.get_attr("value").value == 0:
                    rewriter.replace_op_with_values(op, [op.operands[0]])
                    return True
                return False

        module = ModuleOp()
        block = Block()
        c = arith.ConstantOp(7, T.i32)
        zero = arith.ConstantOp(0, T.i32)
        add = arith.AddIOp(c.result, zero.result)
        use = arith.MulIOp(add.result, c.result)
        block.add_ops([c, zero, add, use])
        module.body.add_op(
            __import__("repro.dialects.func", fromlist=["FuncOp"]).FuncOp(
                "f", T.FunctionType([], [])))
        module.functions()[0].entry_block.add_ops([])
        # apply over a wrapper op holding the block
        from repro.ir import Region, create_operation
        holder = create_operation("builtin.module", regions=[Region([block])])
        changed = apply_patterns_greedily(holder, [FoldAddZero()])
        assert changed
        assert use.operands[0] is c.result
