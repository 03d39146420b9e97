"""Soundness of the jit emitter's producer-directed kind inference.

``jit._kind`` reads a value's run-time class off its defining op, and the
emitter writes only the branch that class can take.  A wrong proof would be
a silent miscompile, so the emitter has a test seam: with
``jit._ASSERT_KINDS`` set it follows every kind it consults with an
assertion that the value really is of the proven class.  Here the seam is
on and *every* block is translated on first entry (no cold tier to hide
in), over the whole registry and a conformance sweep, in both flows.  The
instrumented source has its own digest — its own address — so nothing it
leaves behind can be picked up by an uninstrumented run.
"""

import numpy as np
import pytest

from repro.dialects import arith, fir, func, memref
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


def _assert_kinds_hold(name, monkeypatch):
    for flow in FLOWS:
        module = get_flow(flow).run(get_workload(name),
                                    collect_statistics=False).module
        plain = _observe(module)
        jit.clear_translation_cache()       # the blocks re-plan and re-emit
        with monkeypatch.context() as patch:
            patch.setattr(jit, "_ASSERT_KINDS", True)
            patch.setattr(jit, "_PROMOTE_AFTER", 0)     # no cold tier
            # an AssertionError here is a wrong proof in jit._kind
            assert _observe(module) == plain, flow


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_every_proven_kind_holds_on_the_registry(name, monkeypatch,
                                                 compiled_sources):
    _assert_kinds_hold(name, monkeypatch)
    assert any("assert " in source for source in compiled_sources)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_proven_kind_holds_on_conformance_kernels(seed, monkeypatch):
    _assert_kinds_hold(f"conformance/{seed}", monkeypatch)


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


def test_full_rank_load_of_a_proven_array_is_a_scalar():
    array = memref.AllocOp(T.MemRefType((4,), T.f64)).results[0]
    index = arith.ConstantOp(1, T.index).result
    element = memref.LoadOp(array, [index]).results[0]
    assert _kind(element) == "scalar"
    # ... and a value op over proven scalars stays one
    assert _kind(arith.AddFOp(element, element).results[0]) == "scalar"
    # a rank-0 cell may hold anything that was stored into it
    cell = memref.AllocaOp(T.MemRefType((), T.f64)).results[0]
    assert _kind(memref.LoadOp(cell, []).results[0]) is None


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


def test_unknown_provenance_proves_nothing():
    fn = func.FuncOp("f", T.FunctionType((T.f64, T.MemRefType((4,), T.f64)),
                                         ()))
    scalar_arg, array_arg = fn.entry_block.args
    assert _kind(scalar_arg) is None and _kind(array_arg) is None
    assert _kind(arith.AddFOp(scalar_arg, scalar_arg).results[0]) is None
    index = arith.ConstantOp(0, T.index).result
    assert _kind(memref.LoadOp(array_arg, [index]).results[0]) is None
    loaded = fir.LoadOp(fir.AllocaOp(T.i32).results[0]).results[0]
    assert _kind(loaded) is None
    assert _kind(fir.ConvertOp(loaded, T.i64).results[0]) is None
