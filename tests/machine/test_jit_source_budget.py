"""Exact counts, no clocks: what the jit emits and how it is addressed.

``compile()`` is the hottest function of a cold table run and its cost is
the bytes it is handed, so the emitted source is budgeted here in bytes —
a deterministic function of the IR — next to the forms the type-directed
kinds (``jit._kind``) are supposed to buy, and the one property the
addressing rests on: a translation's address is its emitted source, so
exactly what changes the source changes the key.
"""

import hashlib

import numpy as np
import pytest

from repro.dialects import arith, fir, func, scf
from repro.dialects.builtin import ModuleOp
from repro.flows import get_flow
from repro.ir import Block, structural_hash
from repro.ir import types as T
from repro.ir.core import create_operation
from repro.machine import Interpreter, jit
from repro.workloads import get_workload

#: bytes handed to compile() by one cold jit run — 18,051 / 7,908 / 71,796
#: since the IR type decides a value's kind — + 5 % (producer-proven kinds
#: alone emitted 30,402 / 9,838 / 147,786, no kinds 56,699 / 13,595 /
#: 224,782)
CEILINGS = {("jacobi", "flang"): 18_953,
            ("jacobi", "ours"): 8_303,
            ("pw-advection", "flang"): 75_385}


@pytest.fixture(autouse=True)
def _cold_process():
    saved = jit.get_translation_store()
    jit.set_translation_store(None)
    jit.clear_translation_cache()
    yield
    jit.set_translation_store(saved)
    jit.clear_translation_cache()


@pytest.mark.parametrize(("workload", "flow"), sorted(CEILINGS))
def test_emitted_bytes_stay_under_their_ceiling(workload, flow,
                                                compiled_sources):
    module = get_flow(flow).run(get_workload(workload),
                                collect_statistics=False).module
    Interpreter(module, engine="jit").run_main()
    assert 0 < sum(map(len, compiled_sources)) <= CEILINGS[workload, flow]


# ---------------------------------------------------------------------------
# the forms a proven kind buys
# ---------------------------------------------------------------------------

def _main(*ops):
    """A module whose main program is ``ops`` + return; (interp, block)."""
    main = func.FuncOp("_QQmain", T.FunctionType([], []))
    block = main.regions[0].blocks[0]
    block.add_ops(list(ops) + [func.ReturnOp()])
    interp = Interpreter(ModuleOp([main]), engine="jit")
    return interp, block


def test_load_and_store_of_a_scalar_alloca_are_one_line_each():
    cell = fir.AllocaOp(T.i32)
    seven = arith.ConstantOp(7, T.i32)
    store = fir.StoreOp(seven.result, cell.results[0])
    load = fir.LoadOp(cell.results[0])
    sink = fir.ConvertOp(load.results[0], T.i64)      # keeps the load live
    interp, block = _main(cell, seven, store, load, sink)
    source = interp._jit.source_for(block)
    assert source.count(".value") == 2
    assert "_Cell" not in source and "_EPtr" not in source
    # the loaded value is an i32, so a number: its convert is one call
    assert "isinstance(" not in source and "_int(" in source
    interp.run_main()
    assert interp.stats.counts["serial"] == {
        "call": 1.0, "alloc": 1.0, "store": 1.0, "load": 1.0, "cast": 1.0}


def test_value_ops_over_constants_and_induction_variables_do_not_probe():
    lo, hi, step = (arith.ConstantOp(v, T.index) for v in (0, 8, 1))
    loop = scf.ForOp(lo.result, hi.result, step.result)
    body = loop.regions[0].blocks[0]
    iv = body.args[0]
    doubled = arith.MulIOp(iv, arith.ConstantOp(2, T.index).result)
    body.add_ops([doubled.operands[1].op, doubled,
                  arith.AddIOp(doubled.results[0], iv),
                  arith.IndexCastOp(iv, T.i64), scf.YieldOp()])
    half = arith.ConstantOp(0.5, T.f64)
    product = arith.MulFOp(half.result, half.result)
    root = create_operation("math.sqrt", operands=[product.results[0]],
                            result_types=[T.f64])
    interp, block = _main(lo, hi, step, loop, half, product, root)
    source = interp._jit.source_for(block)
    assert "_nda" not in source                     # no run-time probe at all
    assert "_int(" not in source                    # exact ints stay themselves
    interp.run_main()
    assert interp.stats.counts["serial"] == {
        "call": 1.0, "loop_iter": 8.0, "index_arith": 16.0, "cast": 8.0,
        "float_arith": 1.0, "float_math": 1.0}


def test_a_vector_type_decides_the_probe_by_its_lanes():
    # a scalar-typed argument is a number and a vector<1 x f64> one lane,
    # so both bump the scalar category; four lanes bump the vector one
    arg_types = (T.f64, T.VectorType((1,), T.f64), T.VectorType((4,), T.f64))
    main = func.FuncOp("f", T.FunctionType(arg_types, arg_types))
    block = main.regions[0].blocks[0]
    sums = [arith.AddFOp(arg, arg) for arg in block.args]
    block.add_ops(sums + [func.ReturnOp([add.results[0] for add in sums])])
    module = ModuleOp([main])
    stats = []
    for engine in ("reference", "jit"):
        interp = Interpreter(module, engine=engine)
        if engine == "jit":
            assert "_nda" not in interp._jit.source_for(block)
        interp.call("f", [1.5, np.ones(1), np.ones(4)])
        stats.append(interp.stats.counts["serial"])
    assert stats[0] == stats[1] == {
        "call": 1.0, "float_arith": 2.0, "vector_float": 1.0}



# ---------------------------------------------------------------------------
# the address is the source
# ---------------------------------------------------------------------------

def _scaled_sum(scale, trips=16, sign=1):
    """A hot-looking loop whose body multiplies by the constant ``scale``;
    ``sign`` is the (statically known) direction of its step."""
    lo, hi = ((0, trips) if sign > 0 else (trips, 0))
    bounds = [arith.ConstantOp(v, T.index) for v in (lo, hi, sign)]
    factor = arith.ConstantOp(scale, T.f64)
    loop = fir.DoLoopOp(*(c.result for c in bounds))
    body = loop.regions[0].blocks[0]
    product = arith.MulFOp(factor.result, factor.result)
    body.add_ops([product, fir.ResultOp()])
    return _main(*bounds, factor, loop)


class TestTheAddressIsTheSource:
    def test_blocks_differing_in_a_constants_value_share_one_entry(self):
        # constants are bound into the namespace, not written into the
        # source: one code object serves both blocks, each with its own
        # instantiation (the fingerprint address told them apart)
        (interp_a, block_a), (interp_b, block_b) = \
            _scaled_sum(2.0), _scaled_sum(3.0, trips=24)
        before = jit.snapshot_translation_counters()
        assert jit.translation_key(interp_a, block_a) == \
            jit.translation_key(interp_b, block_b)
        delta = jit.translation_counters_delta(before)
        assert len(jit._CODE_CACHE) == 1
        assert delta["misses"] == 1 and delta["memory_hits"] == 1
        for interp, trips in ((interp_a, 17.0), (interp_b, 25.0)):
            interp.run_main()
            assert interp.stats.counts["serial"]["loop_iter"] == trips

    def test_a_constant_the_emitter_specialises_on_moves_the_address(self):
        # the do-loop direction is baked from a statically known step
        (up, block_up), (down, block_down) = \
            _scaled_sum(2.0), _scaled_sum(2.0, sign=-1)
        assert jit.translation_key(up, block_up) != \
            jit.translation_key(down, block_down)

    def test_a_use_outside_the_block_moves_the_address(self):
        # a value read by another block stays env-resident: other source
        def block_with(leak):
            three = arith.ConstantOp(3, T.i32)
            total = arith.AddIOp(three.result, three.result)
            interp, block = _main(three, total)
            if leak:
                Block().add_op(arith.AddIOp(total.results[0],
                                            total.results[0]))
            return interp, block

        assert jit.translation_key(*block_with(True)) != \
            jit.translation_key(*block_with(False))

    def test_the_address_is_the_salted_digest_of_the_emitted_units(self):
        interp, block = _scaled_sum(2.0)
        source = interp._jit.source_for(block)
        salt = "jit:v%d:sem%d:stride%d" % (
            jit.JIT_FORMAT_VERSION, jit.semantics.SEMANTICS_VERSION,
            interp._check_stride)
        nops = len(list(block.ops))
        assert jit.translation_key(interp, block) == hashlib.sha256(
            "\n".join((salt, str(nops), source)).encode()).hexdigest()

    def test_another_check_stride_is_another_address(self):
        interp, block = _scaled_sum(2.0)
        short = Interpreter(interp.module, engine="jit", max_ops=1600)
        assert short._check_stride != interp._check_stride
        assert jit.translation_key(short, block) != \
            jit.translation_key(interp, block)

    def test_structural_hash_version_no_longer_moves_a_jit_address(
            self, monkeypatch):
        interp, block = _scaled_sum(2.0)
        before = jit.translation_key(interp, block)
        monkeypatch.setattr(structural_hash, "STRUCTURAL_HASH_VERSION",
                            structural_hash.STRUCTURAL_HASH_VERSION + 1)
        jit.clear_translation_cache()
        fresh, fresh_block = _scaled_sum(2.0)
        assert jit.translation_key(fresh, fresh_block) == before
        monkeypatch.setattr(jit, "JIT_FORMAT_VERSION",
                            jit.JIT_FORMAT_VERSION + 1)
        assert jit.translation_key(fresh, fresh_block) != before
