"""Soundness of the jit emitter's type-directed kind inference.

``jit._kind`` reads a value's run-time class off its IR type, refined by
its defining op, and the emitter writes only the branch that class can
take.  The type rule is the machine's value contract — a multi-element
ndarray reaches an SSA value only through a ``vector`` type — and a wrong
proof would be a silent miscompile, so the emitter has a test seam: with
``jit._ASSERT_KINDS`` set it follows every kind it consults with an
assertion that the value really is of the proven class.  Here the seam is
on and *every* block is translated on first entry (no cold tier to hide
in), over the whole registry, the table jobs with their real options and
a conformance sweep, in both flows.  The instrumented source has its own
digest — its own address — so nothing it leaves behind can be picked up
by an uninstrumented run.
"""

import numpy as np
import pytest

from repro.dialects import arith, fir, func, memref
from repro.dialects.builtin import ModuleOp
from repro.flows import get_flow
from repro.ir import types as T
from repro.machine import Interpreter, jit
from repro.service.serialization import stats_to_dict
from repro.workloads import all_workloads, get_workload

FLOWS = ("flang", "ours")
SEEDS = range(32)


def _observe(module):
    interp = Interpreter(module, engine="jit")
    with np.errstate(all="ignore"):
        interp.run_main()
    return interp.printed, stats_to_dict(interp.stats)


def _assert_kinds_hold_on(module, monkeypatch, label):
    plain = _observe(module)
    jit.clear_translation_cache()       # the blocks re-plan and re-emit
    with monkeypatch.context() as patch:
        patch.setattr(jit, "_ASSERT_KINDS", True)
        patch.setattr(jit, "_PROMOTE_AFTER", 0)     # no cold tier
        # an AssertionError here is a wrong proof in jit._kind
        assert _observe(module) == plain, label


def _assert_kinds_hold(name, monkeypatch):
    for flow in FLOWS:
        module = get_flow(flow).run(get_workload(name),
                                    collect_statistics=False).module
        _assert_kinds_hold_on(module, monkeypatch, flow)


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_every_proven_kind_holds_on_the_registry(name, monkeypatch,
                                                 compiled_sources):
    _assert_kinds_hold(name, monkeypatch)
    assert any("assert " in source for source in compiled_sources)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_proven_kind_holds_on_conformance_kernels(seed, monkeypatch):
    _assert_kinds_hold(f"conformance/{seed}", monkeypatch)


def test_every_proven_kind_holds_on_the_table_jobs(monkeypatch):
    """The 46 unique table jobs with the options they really run with —
    OpenMP, GPU and grid variants the registry sweep's defaults miss."""
    from repro.service import enumerate_jobs
    unique = {}
    for job in enumerate_jobs(None, None):
        unique.setdefault(job.key(), job)
    assert len(unique) == 46
    for key, job in unique.items():
        result = get_flow(job.flow).run(job.resolve_workload(),
                                        job.options_dict(), job.execution(),
                                        collect_statistics=False)
        if result.error is None:
            _assert_kinds_hold_on(result.module, monkeypatch, key)


def test_instrumented_translations_have_their_own_addresses(monkeypatch):
    module = get_flow("ours").run(get_workload("jacobi"),
                                  collect_statistics=False).module
    jit.clear_translation_cache()
    _observe(module)
    plain = set(jit._CODE_CACHE)
    monkeypatch.setattr(jit, "_ASSERT_KINDS", True)
    jit.clear_translation_cache()
    _observe(module)
    assert plain and not plain & set(jit._CODE_CACHE)


# ---------------------------------------------------------------------------
# producer -> kind, one case per row of the README table
# ---------------------------------------------------------------------------

def _kind(value):
    return jit._kind(value, {})


def test_constants_prove_their_python_class():
    assert _kind(arith.ConstantOp(3, T.i32).result) == "int"
    assert _kind(arith.ConstantOp(1.5, T.f64).result) == "float"
    assert _kind(arith.ConstantOp(True, T.i1).result) == "int"   # stored 1


def test_allocations_prove_their_storage_class():
    assert _kind(fir.AllocaOp(T.i32).results[0]) == "cell"
    assert _kind(fir.AllocaOp(
        fir.SequenceType((4,), T.f64)).results[0]) is None
    assert _kind(memref.AllocaOp(T.MemRefType((), T.i32)).results[0]) \
        == "cell"
    assert _kind(memref.AllocOp(T.MemRefType((4, 4), T.f64)).results[0]) \
        == "ndarray"


def test_every_load_of_a_scalar_type_is_a_scalar():
    array = memref.AllocOp(T.MemRefType((4,), T.f64)).results[0]
    index = arith.ConstantOp(1, T.index).result
    element = memref.LoadOp(array, [index]).results[0]
    assert _kind(element) == "scalar"
    assert _kind(arith.AddFOp(element, element).results[0]) == "scalar"
    # a cell holds what was stored into it: a scalar-typed value
    cell = memref.AllocaOp(T.MemRefType((), T.f64)).results[0]
    assert _kind(memref.LoadOp(cell, []).results[0]) == "scalar"
    assert _kind(fir.LoadOp(fir.AllocaOp(T.i32).results[0]).results[0]) \
        == "scalar"


def test_box_dims_results_are_exact_ints():
    box = fir.AllocaOp(fir.SequenceType((4,), T.f64)).results[0]
    dims = fir.BoxDimsOp(box, arith.ConstantOp(0, T.index).result)
    assert [_kind(result) for result in dims.results] == ["int"] * 3


def test_integer_arithmetic_over_exact_ints_stays_exact():
    three = arith.ConstantOp(3, T.index).result
    assert _kind(arith.AddIOp(three, three).results[0]) == "int"
    assert _kind(arith.DivSIOp(three, three).results[0]) == "scalar"


def test_conversions_of_proven_scalars():
    three = arith.ConstantOp(3, T.i32).result
    assert _kind(fir.ConvertOp(three, T.index).results[0]) == "int"
    assert _kind(fir.ConvertOp(three, T.f64).results[0]) == "float"
    assert _kind(arith.SIToFPOp(three, T.f64).results[0]) == "float"
    # storage passes through a conversion unchanged
    cell = fir.AllocaOp(T.i32).results[0]
    assert _kind(fir.ConvertOp(
        cell, fir.ReferenceType(T.i64)).results[0]) == "cell"


def test_the_type_decides_where_no_producer_refines():
    rank0 = T.MemRefType((), T.f64)
    fn = func.FuncOp("f", T.FunctionType(
        (T.f64, T.MemRefType((4,), T.f64), rank0, T.VectorType((4,), T.f64),
         fir.ReferenceType(T.i32)), ()))
    scalar_arg, array_arg, rank0_arg, vector_arg, ref_arg = \
        fn.entry_block.args
    assert _kind(scalar_arg) == "scalar" and _kind(array_arg) == "ndarray"
    assert _kind(arith.AddFOp(scalar_arg, scalar_arg).results[0]) == "scalar"
    loaded = fir.LoadOp(ref_arg).results[0]
    assert _kind(fir.ConvertOp(loaded, T.i64).results[0]) == "int"
    # a rank-0 memref is a Cell or a 0-d ndarray, a fir reference a Cell or
    # an ElementPtr, a vector an ndarray of its lanes: no kind names them
    assert _kind(rank0_arg) is None and _kind(ref_arg) is None
    assert _kind(vector_arg) is None
    assert _kind(memref.GetGlobalOp("g", rank0).results[0]) is None
    # storage passes through a conversion, whatever the target type says
    assert _kind(fir.ConvertOp(ref_arg, T.i64).results[0]) is None


def test_a_rank_0_global_keeps_the_cell_or_ndarray_switch(monkeypatch):
    """``memref.get_global`` of a rank-0 global is a 0-d ndarray, which a
    rank-0 memref type cannot tell from a Cell: the access keeps the
    run-time switch, and every kind the emitter does assert holds."""
    rank0 = T.MemRefType((), T.f64)
    main = func.FuncOp("_QQmain", T.FunctionType([], [T.f64]))
    block = main.entry_block
    address = memref.GetGlobalOp("g", rank0)
    seed = arith.ConstantOp(2.5, T.f64)
    load = memref.LoadOp(address.results[0], [])
    total = arith.AddFOp(load.results[0], load.results[0])
    block.add_ops([address, seed,
                   memref.StoreOp(seed.result, address.results[0], []), load,
                   total, memref.StoreOp(total.results[0],
                                         address.results[0], []),
                   func.ReturnOp([total.results[0]])])
    module = ModuleOp([memref.GlobalOp("g", rank0), main])
    monkeypatch.setattr(jit, "_ASSERT_KINDS", True)
    jit.clear_translation_cache()
    interp = Interpreter(module, engine="jit")
    source = interp._jit.source_for(block)
    assert "is _Cell:" in source and "assert " in source
    assert interp.run_main() == [5.0]
    reference = Interpreter(module, engine="reference")
    assert reference.run_main() == [5.0]
    assert stats_to_dict(interp.stats) == stats_to_dict(reference.stats)
