"""One parametrised test over ``semantics.VALUE_OPS``.

Every row is executed on every engine with scalar, ndarray and edge operands
(negatives, zero divisors, NaN, ``-0.0``, i1 booleans, index-typed) — an
ndarray only through ``vector``-typed arguments, the one type the machine's
value contract lets a multi-element ndarray take — and must

* return exactly what the row's kernel returns when called directly,
* bump identical ``ExecutionStats`` on all four engines,
* agree between its per-element and whole-array forms (the same op inside a
  loop nest the ``vector`` engine evaluates as one batch), and
* fold, when ``foldable``, to the value the reference engine computes.

Adding a row to the table adds it to every test here; the only per-op data
is the operand sets below.
"""

import math
import warnings

import numpy as np
import pytest

from repro.dialects import arith, memref, scf
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir import types as T
from repro.ir.attributes import StringAttr
from repro.ir.core import OP_REGISTRY, create_operation
from repro.machine import Interpreter
from repro.machine.semantics import CMPF, VALUE_OPS
from repro.machine.values import numpy_dtype_for
from repro.service.serialization import stats_to_dict
from repro.transforms.cleanup import CanonicalizePass

from ..conftest import compile_source

ENGINES = ("reference", "compiled", "jit", "vector")
NAN, INF = float("nan"), float("inf")
#: trip count of the loop form: enough static work that the vector engine
#: evaluates the nest whole-array instead of declining it as too small
TRIPS = 1024

F64S = [(1.5, -2.25), (-1.0, 0.0), (0.0, 0.0), (NAN, 1.0), (-0.0, 3.0),
        (1e308, 1e-308)]
INTS = [(7, -2), (-7, 2), (5, 0), (0, 3), (-6, -3)]
CMPI_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge",
                   "ult", "ule", "ugt", "uge")


class Case:
    """One op instance (name, types, attributes) and its operand sets."""

    def __init__(self, name, operand_types, result_type, operand_sets,
                 predicate=None):
        self.name = name
        self.operand_types = operand_types
        self.result_type = result_type
        self.operand_sets = operand_sets
        self.predicate = predicate
        self.id = "-".join(filter(None, (
            name, predicate, operand_types[0].mlir(), result_type.mlir())))

    def build(self, operands, result_type=None):
        attrs = {"predicate": StringAttr(self.predicate)} \
            if self.predicate else None
        return create_operation(self.name, operands=list(operands),
                                result_types=[result_type or self.result_type],
                                attributes=attrs)


def _cases():
    for name, row in VALUE_OPS.items():
        if name == "arith.cmpi":
            for predicate in CMPI_PREDICATES:
                yield Case(name, [T.i32] * 2, T.i1, INTS + [(-1, 2 ** 31 - 1)],
                           predicate)
        elif name == "arith.cmpf":
            for predicate in CMPF:
                yield Case(name, [T.f64] * 2, T.i1, F64S + [(1.0, 1.0)],
                           predicate)
        elif name == "arith.select":
            yield Case(name, [T.i1, T.f64, T.f64], T.f64,
                       [(True, 1.5, -0.0), (False, 1.5, NAN)])
        elif row.category == "cast":
            yield from _cast_cases(name)
        elif row.index_rule:
            if name in ("arith.shli", "arith.shrsi"):
                sets = [(3, 2), (-16, 3), (1, 0)]
            else:
                sets = INTS
            yield Case(name, [T.i32] * 2, T.i32, sets)
            yield Case(name, [T.index] * 2, T.index, sets[:2])
            if name in ("arith.andi", "arith.ori", "arith.xori"):
                yield Case(name, [T.i1] * 2, T.i1,
                           [(True, False), (True, True), (False, False)])
        elif name == "math.absi":
            yield Case(name, [T.i32], T.i32, [(-3,), (0,)])
        elif name == "math.ipowi":
            yield Case(name, [T.i32] * 2, T.i32, [(2, 10), (-3, 3), (0, 0)])
        elif name == "math.fpowi":
            yield Case(name, [T.f64, T.i32], T.f64,
                       [(2.0, 3), (0.0, -1), (1e300, 2), (-2.0, -3)])
        elif name == "math.powf":
            yield Case(name, [T.f64] * 2, T.f64,
                       [(2.0, 0.5), (-8.0, 0.5), (0.0, -1.0), (1e300, 2.0),
                        (-0.0, -1.0), (NAN, 0.0)])
        elif row.arity == 1:
            yield Case(name, [T.f64], T.f64,
                       [(0.5,), (-1.0,), (0.0,), (-0.0,), (NAN,)])
        else:
            yield Case(name, [T.f64] * row.arity, T.f64,
                       [ops + (0.25,) * (row.arity - 2) for ops in F64S])


def _cast_cases(name):
    shapes = {
        "arith.index_cast": [(T.i32, T.index, [(5,), (-1,)]),
                             (T.index, T.i64, [(7,)])],
        "arith.sitofp": [(T.i32, T.f64, [(-3,), (0,)])],
        "arith.fptosi": [(T.f64, T.i32, [(-2.7,), (2.7,), (-0.0,)])],
        "arith.extf": [(T.f32, T.f64, [(1.5,)])],
        "arith.truncf": [(T.f64, T.f32, [(1.5,), (-0.0,)])],
        "arith.extsi": [(T.i32, T.i64, [(-4,)])],
        "arith.extui": [(T.i1, T.i32, [(True,), (False,)])],
        "arith.trunci": [(T.i64, T.i32, [(9,)]), (T.i32, T.i1, [(2,), (0,)])],
        "arith.bitcast": [(T.f64, T.i64, [(3.0,)])],
    }
    for source, target, sets in shapes[name]:
        yield Case(name, [source], target, sets)


CASES = list(_cases())


def _by_id(cases):
    return pytest.mark.parametrize("case", cases, ids=lambda case: case.id)


#: whole ndarrays as operand values.  Python ``max`` / ``min`` reject
#: multi-element ndarrays on every iterative engine (their whole-array form
#: is ``np.maximum`` / ``np.minimum``, checked in the loop form), and the
#: casts and ``select`` are scalar-only kernels (``float()`` / truthiness)
NDARRAY_CASES = [case for case in CASES
                 if VALUE_OPS[case.name].kernel not in (max, min)
                 and VALUE_OPS[case.name].category != "cast"
                 and case.name != "arith.select"]
#: memrefs hold no index elements: the i32 case covers the kernel and the
#: scalar test the index stats rule
LOOP_CASES = [case for case in CASES
              if not any(isinstance(t, T.IndexType)
                         for t in case.operand_types + [case.result_type])]


def test_every_row_has_a_case():
    assert {case.name for case in CASES} == set(VALUE_OPS)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _same(a, b) -> bool:
    """Bit-identity of two results: same type, same value, NaN == NaN and
    ``-0.0 != 0.0``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)) \
                or a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype.kind == "f":
            return np.array_equal(a, b, equal_nan=True) \
                and np.array_equal(np.signbit(a), np.signbit(b))
        return np.array_equal(a, b)
    if type(a) is not type(b):
        return False
    if isinstance(a, (float, np.floating)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def _function_module(case, lanes=None):
    """main(operands) returning the op's result; with ``lanes``, every
    operand and the result is a ``vector<lanes x T>``."""
    def typed(t):
        return t if lanes is None else T.VectorType((lanes,), t)
    fn = FuncOp("main", T.FunctionType(
        tuple(typed(t) for t in case.operand_types), ()))
    op = case.build(fn.entry_block.args, typed(case.result_type))
    fn.entry_block.add_op(op)
    fn.entry_block.add_op(ReturnOp([op.results[0]]))
    return ModuleOp([fn]), op


def _interpreter(module, engine):
    interp = Interpreter(module, engine=engine)
    if engine == "jit":
        # translate now: a cold block would stay on the compiled tier and
        # the generated source would never run
        for func in interp.functions.values():
            for block in func.regions[0].blocks:
                interp._jit.source_for(block)
    return interp


def _run(module, engine, args):
    interp = _interpreter(module, engine)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        (result,) = interp.call("main", list(args))
    return result, interp


def _as_arrays(case, operand_sets):
    """The operand sets as one ndarray per operand (element i of every
    array is operand set i)."""
    columns = []
    for position, operand_type in enumerate(case.operand_types):
        dtype = np.int64 if isinstance(operand_type, T.IndexType) \
            else numpy_dtype_for(operand_type)
        columns.append(np.array([ops[position] for ops in operand_sets],
                                dtype=dtype))
    return columns


# ---------------------------------------------------------------------------
# every row x every engine x scalar / edge operands
# ---------------------------------------------------------------------------

@_by_id(CASES)
def test_scalar_operands_match_the_kernel_on_every_engine(case):
    module, op = _function_module(case)
    row = VALUE_OPS[case.name]
    for operands in case.operand_sets:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            expected = row.bind(op)(*operands)
        stats = None
        for engine in ENGINES:
            result, interp = _run(module, engine, operands)
            assert _same(result, expected), (engine, operands, result,
                                             expected)
            observed = stats_to_dict(interp.stats)
            assert stats in (None, observed), (engine, operands)
            stats = observed
        # one op, one bump of the row's scalar category
        assert stats["counts"]["serial"] == {
            "call": 1.0, row.scalar_category(op): 1.0}


@_by_id(NDARRAY_CASES)
def test_ndarray_operands_match_the_kernel_on_every_engine(case):
    """Vector-typed execution: whole ndarrays as operand values."""
    row = VALUE_OPS[case.name]
    module, op = _function_module(case, lanes=len(case.operand_sets))
    arrays = _as_arrays(case, case.operand_sets)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        expected = row.bind(op)(*arrays)
    stats = None
    for engine in ENGINES:
        result, interp = _run(module, engine, arrays)
        assert _same(result, expected), (engine, result, expected)
        observed = stats_to_dict(interp.stats)
        assert stats in (None, observed), engine
        stats = observed
    category = row.vector_category if row.probe else row.category
    assert stats["counts"]["serial"] == {"call": 1.0, category: 1.0}


# ---------------------------------------------------------------------------
# per-element form == whole-array form (the op inside a vectorised nest)
# ---------------------------------------------------------------------------

def _loop_module(case):
    """main(in_0.., out): for i in 0..TRIPS: out[i] = op(in_0[i], ...)."""
    arg_types = [T.MemRefType((TRIPS,), t)
                 for t in case.operand_types + [case.result_type]]
    fn = FuncOp("main", T.FunctionType(tuple(arg_types), ()))
    entry = fn.entry_block
    bounds = [arith.ConstantOp(v, T.index) for v in (0, TRIPS, 1)]
    loop = scf.ForOp(*(c.result for c in bounds))
    body = loop.regions[0].blocks[0]
    iv = body.args[0]
    loads = [memref.LoadOp(arg, [iv]) for arg in entry.args[:-1]]
    op = case.build([load.results[0] for load in loads])
    body.add_ops(loads + [op, memref.StoreOp(op.results[0], entry.args[-1],
                                             [iv]),
                          scf.YieldOp()])
    entry.add_ops(bounds + [loop, ReturnOp([])])
    return ModuleOp([fn]), arg_types


@_by_id(LOOP_CASES)
def test_whole_array_form_matches_the_per_element_form(case):
    module, arg_types = _loop_module(case)
    sets = case.operand_sets
    tiled = [sets[i % len(sets)] for i in range(TRIPS)]
    inputs = _as_arrays(case, tiled)
    outputs, stats = {}, {}
    for engine in ENGINES:
        out = np.zeros(TRIPS,
                       dtype=numpy_dtype_for(arg_types[-1].element_type))
        interp = _interpreter(module, engine)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            interp.call("main", [a.copy() for a in inputs] + [out])
        outputs[engine] = out
        stats[engine] = stats_to_dict(interp.stats)
        if engine == "vector":
            # the nest really ran as one batch, not on the fallback thunks
            assert interp._vector.vector_runs == 1, case.id
            assert interp._vector.fallback_runs == 0, case.id
    for engine in ENGINES[1:]:
        assert _same(outputs[engine], outputs["reference"]), engine
        assert stats[engine] == stats["reference"], engine


# ---------------------------------------------------------------------------
# the constant folder evaluates through the same kernel
# ---------------------------------------------------------------------------

def _constant_module(case, operands):
    fn = FuncOp("main", T.FunctionType((), ()))
    constants = [arith.ConstantOp(value, operand_type) for value, operand_type
                 in zip(operands, case.operand_types)]
    op = case.build([c.result for c in constants])
    fn.entry_block.add_ops(constants + [op, ReturnOp([op.results[0]])])
    return ModuleOp([fn])


@pytest.mark.parametrize(
    "case", [c for c in CASES if VALUE_OPS[c.name].foldable],
    ids=lambda case: case.id)
def test_folded_constant_is_what_the_reference_engine_computes(case):
    for operands in case.operand_sets:
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in operands):
            continue                    # not expressible as constants
        expected, _ = _run(_constant_module(case, operands), "reference", ())
        module = _constant_module(case, operands)
        CanonicalizePass().run(module)
        names = [op.name for op in module.walk()]
        folded, _ = _run(module, "reference", ())
        if isinstance(expected, (float, np.floating)) \
                and not math.isfinite(expected):
            assert case.name in names      # declined: stays an op
        else:
            assert case.name not in names, operands
            assert folded == expected and type(folded) in (int, float)
            if isinstance(expected, (float, np.floating)):
                assert math.copysign(1.0, folded) == \
                    math.copysign(1.0, expected)


# ---------------------------------------------------------------------------
# hand-written expectations: what the kernels must compute, not just that
# the engines agree with them
# ---------------------------------------------------------------------------

def _expectations():
    def binary(name, operand_type, result_type, rows, predicate=None):
        for a, b, expected in rows:
            yield Case(name, [operand_type] * 2, result_type, [(a, b)],
                       predicate), expected

    # IEEE divf / pow on Python floats (the bug the duplication hid: these
    # raised ZeroDivisionError / OverflowError or returned a complex)
    yield from binary("arith.divf", T.f64, T.f64, [
        (-1.0, 0.0, -INF), (1.0, -0.0, -INF), (0.0, 0.0, NAN),
        (1.0, 0.0, INF)])
    yield from binary("math.powf", T.f64, T.f64, [
        (-8.0, 0.5, NAN), (0.0, -1.0, INF), (-0.0, -1.0, -INF),
        (1e300, 2.0, INF), (-1e300, 3.0, -INF), (-8.0, 2.0, 64.0)])
    # signed cmpi compares as written; unsigned compares the two's-complement
    # reinterpretation at the operand width (-1 is the largest value)
    for predicate, a, b, expected in [
            ("slt", -1, 1, True), ("sge", 1, -1, True), ("sgt", -5, -3, False),
            ("ugt", -1, 1, True), ("ult", -1, 1, False),
            ("uge", -1, 2 ** 31, True), ("ult", -5, -3, True),
            ("ule", -3, -3, True)]:
        yield from binary("arith.cmpi", T.i32, T.i1, [(a, b, expected)],
                          predicate)
    yield from binary("arith.cmpi", T.i64, T.i1, [(-1, 2 ** 31, True)], "ugt")
    # cmpf: ordered forms are false on NaN, unordered forms true
    for predicate in ("oeq", "one", "olt", "ole", "ogt", "oge", "ord"):
        yield from binary("arith.cmpf", T.f64, T.i1,
                          [(NAN, 1.0, False), (1.0, NAN, False)], predicate)
    for predicate in ("ueq", "une", "ult", "ule", "ugt", "uge", "uno"):
        yield from binary("arith.cmpf", T.f64, T.i1,
                          [(NAN, 1.0, True), (1.0, NAN, True)], predicate)
    for predicate, a, b, expected in [
            ("ord", 1.0, 2.0, True), ("uno", 1.0, 2.0, False),
            ("ueq", 2.0, 2.0, True), ("ueq", 1.0, 2.0, False),
            ("one", 1.0, 2.0, True), ("une", 2.0, 2.0, False),
            ("oeq", 1.0, 1.0, True)]:
        yield from binary("arith.cmpf", T.f64, T.i1, [(a, b, expected)],
                          predicate)
    # divsi/remsi follow LLVM sdiv/srem (truncate toward zero, remainder
    # takes the dividend's sign); floordivsi/ceildivsi round toward
    # -inf/+inf; division by zero consistently yields 0
    for a, b, quotient, remainder in [(-7, 2, -3, -1), (7, -2, -3, 1),
                                      (-7, -2, 3, -1), (7, 2, 3, 1),
                                      (-6, 3, -2, 0), (5, 0, 0, 0)]:
        yield from binary("arith.divsi", T.i32, T.i32, [(a, b, quotient)])
        yield from binary("arith.remsi", T.i32, T.i32, [(a, b, remainder)])
    for a, b, floor_q, ceil_q in [(-7, 2, -4, -3), (7, -2, -4, -3),
                                  (7, 2, 3, 4), (-7, -2, 3, 4), (5, 0, 0, 0)]:
        yield from binary("arith.floordivsi", T.i64, T.i64, [(a, b, floor_q)])
        yield from binary("arith.ceildivsi", T.i64, T.i64, [(a, b, ceil_q)])


EXPECTATIONS = list(_expectations())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "case,expected", EXPECTATIONS,
    ids=[f"{case.id}{case.operand_sets[0]}" for case, _ in EXPECTATIONS])
def test_hand_written_expectations(case, expected, engine):
    module, _ = _function_module(case)
    (operands,) = case.operand_sets
    result, _ = _run(module, engine, operands)
    assert _same(result, expected), result
    # ... and identically, element by element, on ndarray operands
    try:
        arrays = _as_arrays(case, [operands, operands])
    except OverflowError:
        return                  # 2**31 as an i32 element: scalar form only
    result, _ = _run(_function_module(case, lanes=2)[0], engine, arrays)
    assert all(_same(element.item(), expected) for element in result)


@pytest.mark.parametrize("flow", ["flang", "ours"])
def test_fortran_scalars_array_elements_and_constants_agree(flow):
    source = """
program p
  implicit none
  real(8) :: y, z, a(2)
  y = 0.0d0
  z = -8.0d0
  a(1) = -1.0d0
  a(2) = 0.0d0
  print *, -1.0d0 / y, y / y, z ** 0.5d0, y ** (-1.0d0)
  print *, a(1) / a(2), a(2) / a(2), (a(1) * 8.0d0) ** 0.5d0, a(2) ** a(1)
  print *, (-1.0d0) / 0.0d0, 0.0d0 / 0.0d0, (-8.0d0) ** 0.5d0, 0.0d0 ** (-1.0d0)
end program p
"""
    module = compile_source(flow, source).module
    printed = {}
    for engine in ENGINES:
        interp = _interpreter(module, engine)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            interp.run_main()
        printed[engine] = interp.printed
    assert printed["reference"] == ["-inf nan nan inf"] * 3
    assert all(lines == printed["reference"] for lines in printed.values())


# ---------------------------------------------------------------------------
# membership: the table is the whole pure-dataflow surface of every engine
# ---------------------------------------------------------------------------

def test_table_membership_matches_every_consumer():
    import repro.dialects  # noqa: F401  (registers every op class)
    from repro.machine import interpreter, jit
    from repro.machine.loop_patterns import _supported_body_op, stats_category
    rows = set(VALUE_OPS)
    # every registered arith / math op is a row (the constant aside), and
    # every arith / math row is a registered op
    registered = {name for name in OP_REGISTRY
                  if name.split(".")[0] in ("arith", "math")}
    assert registered - {"arith.constant"} == \
        {name for name in rows if name.split(".")[0] in ("arith", "math")}
    assert rows <= registered
    # compiled: exactly the rows share the generic maker
    assert {name for name, maker in interpreter._THUNK_MAKERS.items()
            if maker is interpreter._mk_value_op} == rows
    # jit: every row is inlined, and nothing else it inlines computes a
    # value from values (constants, memory, addressing, vector memory only)
    assert rows <= jit._SIMPLE_INLINE
    assert not {name for name in jit._SIMPLE_INLINE - rows
                if name.split(".")[0] in ("arith", "math")} \
        - {"arith.constant"}
    # nest matcher: every row is admitted on scalar types and classified
    for case in CASES:
        module, op = _function_module(case)
        assert _supported_body_op(op), case.id
        assert stats_category(op) == VALUE_OPS[case.name].scalar_category(op)
    # reference: no per-op handler shadows a row
    assert not [name for name in rows
                if hasattr(Interpreter, "_exec_" + name.replace(".", "_"))]
