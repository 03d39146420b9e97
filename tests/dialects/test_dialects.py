"""Dialect-level unit tests: op construction, accessors, FIR types."""

import pytest

from repro.dialects import (FLANG_DIALECTS, STANDARD_DIALECTS, arith, fir,
                            hlfir, linalg, memref, omp, scf, vector)
from repro.ir import types as T
from repro.ir.core import OP_REGISTRY, Block


class TestRegistry:
    def test_registered_ops_belong_to_known_dialects(self):
        assert OP_REGISTRY
        assert {name.split(".")[0] for name in OP_REGISTRY} <= \
            STANDARD_DIALECTS | FLANG_DIALECTS | {"tmpbr"}

    def test_dialect_partition(self):
        assert "fir" in FLANG_DIALECTS and "hlfir" in FLANG_DIALECTS
        assert "scf" in STANDARD_DIALECTS and "memref" in STANDARD_DIALECTS
        assert not (FLANG_DIALECTS & STANDARD_DIALECTS)


class TestFirTypes:
    def test_reference_and_box_printing(self):
        t = fir.ReferenceType(fir.BoxType(fir.HeapType(
            fir.SequenceType([T.DYNAMIC], T.f64))))
        assert t.mlir() == "!fir.ref<!fir.box<!fir.heap<!fir.array<?xf64>>>>"

    def test_sequence_static_shape(self):
        seq = fir.SequenceType([8, 4], T.f32)
        assert seq.has_static_shape() and seq.rank == 2
        assert fir.element_type_of(fir.ReferenceType(seq)) == T.f32

    def test_record_type_members(self):
        rec = fir.RecordType("point", [("x", T.f64), ("y", T.f64)])
        assert rec.member_type("y") == T.f64
        assert rec.member_index("x") == 0
        with pytest.raises(KeyError):
            rec.member_type("z")


class TestOpConstruction:
    def test_scf_for_accessors(self):
        lb = arith.ConstantOp(0, T.index)
        ub = arith.ConstantOp(10, T.index)
        step = arith.ConstantOp(1, T.index)
        loop = scf.ForOp(lb.result, ub.result, step.result)
        assert loop.lower_bound is lb.result
        assert loop.induction_variable.type == T.index
        assert loop.body.parent.parent is loop

    def test_scf_parallel_operand_partition(self):
        c = [arith.ConstantOp(i, T.index) for i in (0, 0, 8, 8, 1, 1)]
        par = scf.ParallelOp([c[0].result, c[1].result],
                             [c[2].result, c[3].result],
                             [c[4].result, c[5].result])
        assert par.rank == 2
        assert list(par.upper_bounds) == [c[2].result, c[3].result]
        assert len(par.induction_variables) == 2

    def test_memref_load_rank_check(self):
        alloc = memref.AllocaOp(T.MemRefType([4, 4], T.f64))
        idx = arith.ConstantOp(0, T.index)
        with pytest.raises(ValueError):
            memref.LoadOp(alloc.results[0], [idx.result])  # needs 2 indices

    def test_memref_alloc_dynamic_size_check(self):
        with pytest.raises(ValueError):
            memref.AllocOp(T.MemRefType([T.DYNAMIC], T.f64), [])

    def test_alloca_scope_single_block_verifier(self):
        scope = memref.AllocaScopeOp()
        scope.regions[0].add_block(Block())
        with pytest.raises(ValueError):
            scope.verify_()

    def test_fir_do_loop_and_iterate_while(self):
        lb = arith.ConstantOp(1, T.index)
        ub = arith.ConstantOp(8, T.index)
        st = arith.ConstantOp(1, T.index)
        ok = arith.ConstantOp(True, T.i1)
        loop = fir.DoLoopOp(lb.result, ub.result, st.result)
        assert loop.results[0].type == T.index
        iw = fir.IterateWhileOp(lb.result, ub.result, st.result, ok.result)
        assert iw.results[1].type == T.i1
        assert iw.body.args[1].type == T.i1

    def test_hlfir_declare_attrs(self):
        alloca = fir.AllocaOp(T.i32, bindc_name="i")
        declare = hlfir.DeclareOp(alloca.result, uniq_name="i",
                                  fortran_attrs=["intent_in", "allocatable"])
        assert declare.uniq_name == "i"
        assert declare.has_fortran_attr("allocatable")
        assert len(declare.results) == 2

    def test_linalg_reduce_dimensions(self):
        src = memref.AllocaOp(T.MemRefType([4, 4], T.f64))
        out = memref.AllocaOp(T.MemRefType([], T.f64))
        red = linalg.ReduceOp(src.results[0], out.results[0], [0, 1])
        assert red.dimensions == (0, 1)
        assert len(red.body.args) == 2

    def test_vector_reduction_kind_check(self):
        v = vector.BroadcastOp(T.VectorType([4], T.f64),
                               arith.ConstantOp(1.0, T.f64).result)
        with pytest.raises(ValueError):
            vector.ReductionOp("bogus", v.results[0])

    def test_cmp_predicates_validated(self):
        a = arith.ConstantOp(1, T.i32)
        with pytest.raises(ValueError):
            arith.CmpIOp("nonsense", a.result, a.result)

    def test_omp_wsloop_accessors(self):
        c = [arith.ConstantOp(i, T.index) for i in (0, 10, 1)]
        ws = omp.WsLoopOp([c[0].result], [c[1].result], [c[2].result])
        assert ws.rank == 1
        assert list(ws.steps) == [c[2].result]
