"""Registry-wide cross-engine stats parity.

PR 3 spot-checked one polyhedron kernel and one stencil; this extends the
guarantee to **every registered workload family** (and the conformance
generator's family) and to **all registered engines**: the cached-dispatch
engine, the trace-compiling jit engine, the whole-array vector engine and
the one-op reference engine must produce bit-identical
:class:`ExecutionStats` and printed output for the same compiled module.
"""

import pytest

from repro.flows import ENGINES, get_flow
from repro.machine import Interpreter
from repro.service.serialization import stats_to_dict
from repro.workloads import all_workloads, get_workload

from ..conftest import ours_module


def _families():
    """One representative per category: the smallest kernel by modelled work."""
    by_category = {}
    for workload in all_workloads():
        by_category.setdefault(workload.category, []).append(workload)
    return sorted(
        (category,
         min(members,
             key=lambda w: w.work_model(dict(w.interp_params))).name)
        for category, members in by_category.items())


FAMILIES = _families()


def _assert_engines_identical(module):
    reference = Interpreter(module, engine="reference")
    reference.run_main()
    for engine in ENGINES:
        if engine == "reference":
            continue
        other = Interpreter(module, engine=engine)
        other.run_main()
        assert other.printed == reference.printed, engine
        assert stats_to_dict(other.stats) == \
            stats_to_dict(reference.stats), engine
        assert not other.stats.diff(reference.stats), engine


class TestEngineParityAcrossRegistry:
    def test_every_category_is_covered(self):
        assert [category for category, _ in FAMILIES] == \
            ["intrinsic", "polyhedron", "stencil"]

    @pytest.mark.parametrize(("category", "name"), FAMILIES,
                             ids=[c for c, _ in FAMILIES])
    def test_family_representative_flang_flow(self, category, name):
        result = get_flow("flang").run(get_workload(name))
        _assert_engines_identical(result.module)

    @pytest.mark.parametrize(("category", "name"), FAMILIES,
                             ids=[c for c, _ in FAMILIES])
    def test_family_representative_ours_flow(self, category, name):
        result = get_flow("ours").run(get_workload(name))
        _assert_engines_identical(result.module)

    def test_conformance_family_representative(self):
        workload = get_workload("conformance/0")
        for flow in ("flang", "ours"):
            _assert_engines_identical(get_flow(flow).run(workload).module)


class TestStatsDiff:
    def test_diff_is_empty_for_identical_stats(self):
        from repro.machine import ExecutionStats
        assert ExecutionStats().diff(ExecutionStats()) == []

    def test_diff_does_not_mutate_either_side(self):
        from repro.machine import ExecutionStats
        from repro.service.serialization import stats_to_dict
        a, b = ExecutionStats(), ExecutionStats()
        b.bump("gpu", "x")
        before_a, before_b = stats_to_dict(a), stats_to_dict(b)
        a.diff(b)
        assert "gpu" not in a.counts
        assert stats_to_dict(a) == before_a and stats_to_dict(b) == before_b

    def test_diff_names_the_diverging_field(self):
        from repro.machine import ExecutionStats
        a, b = ExecutionStats(), ExecutionStats()
        a.bump("serial", "arith")
        b.bump("parallel", "mem")
        b.runtime_calls["_FortranASumReal8"] += 1
        details = a.diff(b)
        text = "\n".join(details)
        assert "counts[serial][arith]" in text
        assert "counts[parallel][mem]" in text
        assert "runtime_calls[_FortranASumReal8]" in text


# ---------------------------------------------------------------------------
# Affine maps and vector-dialect ops: every engine, the same observables
# ---------------------------------------------------------------------------

TILED_VECTORISED_KERNEL = """program p
  implicit none
  integer :: i, j
  real(kind=8), dimension(8, 8) :: a, b, c
  real(kind=8), dimension(38) :: x, y, z
  real(kind=8) :: total
  do j = 1, 8
    do i = 1, 8
      a(i, j) = real(i, 8) * 0.5d0 + real(j, 8)
      b(i, j) = real(i - j, 8)
    end do
  end do
  c = matmul(a, b)
  do i = 1, 38
    x(i) = real(i, 8) * 0.25d0
    y(i) = 0.0d0
  end do
  do i = 2, 36
    y(i) = x(i - 1) + 2.0d0 * x(i) + x(i + 1)
  end do
  do i = 1, 36
    z(i) = y(i) * x(i + 2)
  end do
  total = dot_product(x, y)
  print *, total, c(1, 1), c(8, 8), y(2), y(36), z(1), z(36)
end program p
"""


def _mapped_vector_module():
    """Hand-built: what the real passes never emit together — maps with
    ``floordiv``/``mod``/``ceildiv``, bound maps over operands, and a lane
    window that runs off the end of its row
    (a ragged last vector) on both ``vector.load`` and ``vector.store``."""
    from repro.dialects import affine, arith, func, memref, vector
    from repro.dialects.builtin import ModuleOp
    from repro.ir import types as T
    from repro.ir.attributes import AffineExpr, AffineMapAttr

    d0, d1 = AffineExpr.dim(0), AffineExpr.dim(1)
    main = func.FuncOp("_QQmain", T.FunctionType([], []))
    top = main.regions[0].blocks[0]

    def emit(block, op):
        block.add_op(op)
        return op.results[0] if op.results else None

    vec4 = T.VectorType([4], T.f64)
    a = emit(top, memref.AllocOp(T.MemRefType([4, 10], T.f64)))
    b = emit(top, memref.AllocOp(T.MemRefType([5, 8], T.f64)))
    acc = emit(top, memref.AllocaOp(T.MemRefType([], T.f64)))
    rows = emit(top, arith.ConstantOp(4, T.index))

    # a[i, j] = 10 i + j, through a bound map over an operand
    fill_i = affine.AffineForOp([], AffineMapAttr.constant_map(0),
                                [rows], AffineMapAttr(1, 0, [d0]))
    top.add_op(fill_i)
    fill_j = affine.AffineForOp.constant_bounds(0, 10)
    fill_i.body.add_op(fill_j)
    fill_i.body.add_op(affine.AffineYieldOp())
    i, j = fill_i.induction_variable, fill_j.induction_variable
    ten = emit(fill_j.body, arith.ConstantOp(10, T.index))
    tens = emit(fill_j.body, arith.MulIOp(i, ten))
    flat = emit(fill_j.body, arith.AddIOp(tens, j))
    as_int = emit(fill_j.body, arith.IndexCastOp(flat, T.i64))
    as_real = emit(fill_j.body, arith.SIToFPOp(as_int, T.f64))
    fill_j.body.add_op(affine.AffineStoreOp(as_real, a, [i, j]))
    fill_j.body.add_op(affine.AffineYieldOp())

    zero = emit(top, arith.ConstantOp(0.0, T.f64))
    top.add_op(affine.AffineStoreOp(zero, acc, []))
    # t walks a flattened 4 x 10 space six elements at a time, so the lane
    # window starts at columns 0 and 6 (ragged: 6 + 4 > 10) and at 2 and 8
    sweep = affine.AffineForOp([], AffineMapAttr.constant_map(0),
                               [rows], AffineMapAttr(1, 0, [d0 * 10 + -4]),
                               step=6)
    top.add_op(sweep)
    t = sweep.induction_variable
    load = vector.VectorLoadOp(vec4, a, [t])
    load.set_attr("map", AffineMapAttr(1, 0, [d0.floordiv(10), d0 % 10]))
    lanes = emit(sweep.body, load)
    part = emit(sweep.body, vector.ReductionOp("add", lanes))
    bias = emit(sweep.body, vector.BroadcastOp(vec4, part))
    shifted = emit(sweep.body, arith.AddFOp(lanes, bias))
    store = vector.VectorStoreOp(shifted, b, [t])
    store.set_attr("map", AffineMapAttr(
        1, 0, [d0.ceildiv(8), (d0 * 3) % 8 + 1]))
    sweep.body.add_op(store)
    so_far = emit(sweep.body, affine.AffineLoadOp(acc, []))
    summed = emit(sweep.body, arith.AddFOp(so_far, part))
    sweep.body.add_op(affine.AffineStoreOp(summed, acc, []))
    sweep.body.add_op(affine.AffineYieldOp())

    for row, column in ((0, 1), (1, 3), (2, 5), (3, 7), (4, 7)):
        element = emit(top, affine.AffineLoadOp(
            b, [], AffineMapAttr(0, 0, [AffineExpr.constant(row),
                                        AffineExpr.constant(column)])))
        top.add_op(func.CallOp("_FortranAioOutput", [element], []))
    result = emit(top, affine.AffineLoadOp(acc, []))
    top.add_op(func.CallOp("_FortranAioOutput", [result], []))
    top.add_op(func.ReturnOp())
    return ModuleOp([main])


class TestAffineAndVectorParity:
    @pytest.mark.parametrize(("options", "expected"), [
        # tiling and unrolling claim the stencil loops, the vectoriser
        # keeps the dot product: point loops, unrolled bodies, reductions
        (dict(tile=True, tile_size=4, unroll=4),
         ("point_loop", "unrolled", "vector.load", "vector.broadcast",
          "vector.reduction")),
        # alone, the vectoriser also takes the stencil: vector stores
        (dict(), ("vector.load", "vector.store", "vector.broadcast",
                  "vector.reduction")),
    ], ids=["tiled-unrolled-vectorised", "vectorised"])
    def test_optimised_kernel(self, options, expected):
        from repro.ir.printer import print_op
        module = ours_module(TILED_VECTORISED_KERNEL, **options)
        text = print_op(module)
        for needle in expected + ("affine.load", "affine.store"):
            assert needle in text, needle
        _assert_engines_identical(module)

    def test_floordiv_mod_maps_and_ragged_vectors(self):
        module = _mapped_vector_module()
        _assert_engines_identical(module)
        interp = Interpreter(module, engine="compiled")
        interp.run_main()
        # the ragged windows really were ragged: lanes past column 9 read 0
        # (t = 6: columns 6..9 of row 0, then t = 18: columns 8, 9 of row 1)
        assert float(interp.printed[-1]) == sum(
            10 * (t // 10) + column
            for t in range(0, 36, 6)
            for column in range(t % 10, min(t % 10 + 4, 10)))
        assert interp.stats.counts["serial"]["vector_load"] == 6
