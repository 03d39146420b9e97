"""The compiled form of an affine map equals the tree-walk.

``AffineMapAttr.compiled()`` is what the optimising engines execute and
``AffineMapAttr.evaluate`` what the ``reference`` engine walks, so the two
must agree on every map the IR can carry — same values on Python ints, same
values and dtype on integer ndarrays (the ``vector`` engine's index grids),
and the same exception where the tree-walk raises.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ir.attributes import AffineExpr, AffineMapAttr

NUM_DIMS, NUM_SYMBOLS = 3, 2

_leaves = st.one_of(
    st.integers(0, NUM_DIMS - 1).map(AffineExpr.dim),
    st.integers(0, NUM_SYMBOLS - 1).map(AffineExpr.symbol),
    st.integers(-6, 6).map(AffineExpr.constant),
    # past the reassociation guard and past int64: must not be folded into
    # something an ndarray add can no longer take
    st.sampled_from([2 ** 31, -2 ** 31, 2 ** 62, -2 ** 62]).map(
        AffineExpr.constant))


def _binary(children):
    kinds = st.sampled_from(["add", "mul", "mod", "floordiv", "ceildiv"])
    return st.builds(lambda kind, lhs, rhs: AffineExpr(kind, 0, lhs, rhs),
                     kinds, children, children)


exprs = st.recursive(_leaves, _binary, max_leaves=12)
maps = st.lists(exprs, min_size=0, max_size=3).map(
    lambda results: AffineMapAttr(NUM_DIMS, NUM_SYMBOLS, results))
operand = st.integers(-9, 9)


def _outcome(fn):
    """The value, or the exception type, of calling ``fn``."""
    try:
        return fn()
    except (ArithmeticError, TypeError) as exc:
        return type(exc)


class TestCompiledEqualsTreeWalk:
    @settings(max_examples=300, deadline=None)
    @given(maps, st.lists(operand, min_size=NUM_DIMS, max_size=NUM_DIMS),
           st.lists(operand, min_size=NUM_SYMBOLS, max_size=NUM_SYMBOLS))
    def test_on_ints(self, amap, dims, syms):
        form = amap.compiled()
        walked = _outcome(lambda: amap.evaluate(dims, syms))
        assert _outcome(lambda: form.call(*dims, *syms)) == walked
        if isinstance(walked, tuple):
            if walked:
                assert form.scalar(*dims, *syms) == walked[0]
            if form.constants is not None:
                assert form.constants == walked

    @settings(max_examples=200, deadline=None)
    @given(maps, st.lists(st.lists(operand, min_size=4, max_size=4),
                          min_size=NUM_DIMS + NUM_SYMBOLS,
                          max_size=NUM_DIMS + NUM_SYMBOLS))
    # two steps that each fit int64 and wrap; their folded sum would not
    @example(AffineMapAttr(NUM_DIMS, NUM_SYMBOLS,
                           [(AffineExpr.dim(0) + 2 ** 62) + 2 ** 62]),
             [[1, 2, 3, 4]] * (NUM_DIMS + NUM_SYMBOLS))
    def test_on_ndarrays(self, amap, columns):
        grids = [np.array(column, dtype=np.int64) for column in columns]
        dims, syms = grids[:NUM_DIMS], grids[NUM_DIMS:]
        with np.errstate(all="ignore"):
            walked = _outcome(lambda: amap.evaluate(dims, syms))
            compiled = _outcome(lambda: amap.compiled().call(*grids))
        if not isinstance(walked, tuple):
            assert compiled == walked
            return
        assert isinstance(compiled, tuple) and len(compiled) == len(walked)
        for ours, theirs in zip(compiled, walked):
            assert type(ours) is type(theirs)
            assert np.array_equal(ours, theirs)
            if isinstance(theirs, np.ndarray):
                assert ours.dtype == theirs.dtype

    @given(maps)
    def test_sources_render_the_compiled_function(self, amap):
        names = [f"v{i}" for i in range(NUM_DIMS + NUM_SYMBOLS)]
        values = [3, -2, 5, 7, -4]
        sources = amap.compiled().sources(names)
        assert len(sources) == len(amap.results)
        scope = dict(zip(names, values))
        rendered = _outcome(lambda: tuple(eval(s, {}, scope) for s in sources))
        assert rendered == _outcome(
            lambda: amap.evaluate(values[:NUM_DIMS], values[NUM_DIMS:]))


class TestRecognisedShapes:
    def test_identity(self):
        assert AffineMapAttr.identity(3).compiled().identity
        assert AffineMapAttr.identity(0).compiled().identity
        d0, d1 = AffineExpr.dim(0), AffineExpr.dim(1)
        # Fortran's 1-based a(i, j+1): ((d0 + 1) - 1, (d1 + 1 + 1) - 1 - 1)
        shifted = AffineMapAttr(2, 0, [(d0 + 1) + -1, ((d1 + 2) + -1) + -1])
        assert shifted.compiled().identity
        assert not AffineMapAttr(2, 0, [d1, d0]).compiled().identity
        assert not AffineMapAttr(2, 0, [d0]).compiled().identity
        assert not AffineMapAttr(1, 1, [d0]).compiled().identity

    def test_constants(self):
        assert AffineMapAttr.constant_map(42).compiled().constants == (42,)
        assert AffineMapAttr(0, 0, []).compiled().constants == ()
        folded = AffineMapAttr(0, 0, [AffineExpr.constant(1) * -1 + 26])
        assert folded.compiled().constants == (25,)
        assert AffineMapAttr.identity(1).compiled().constants is None
        # division by a constant zero is not folded away: it still raises
        # when (and only when) the map is evaluated
        by_zero = AffineMapAttr(0, 0, [AffineExpr.constant(4).floordiv(0)])
        assert by_zero.compiled().constants is None

    def test_sources_read_like_subscripts(self):
        d0, d1 = AffineExpr.dim(0), AffineExpr.dim(1)
        amap = AffineMapAttr(2, 0, [(d0 + 2) + (AffineExpr.constant(1) * -1),
                                    (d1 + 1) + -1])
        assert amap.compiled().sources(["i0", "i1"]) == ("i0 + 1", "i1")

    def test_one_form_per_structure(self):
        d0 = AffineExpr.dim(0)
        first = AffineMapAttr(1, 0, [d0 * 3 + 1])
        second = AffineMapAttr(1, 0, [AffineExpr.dim(0) * 3 + 1])
        assert first is not second
        assert first.compiled() is second.compiled()
        assert first.compiled() is not AffineMapAttr(1, 0, [d0 * 3]).compiled()
