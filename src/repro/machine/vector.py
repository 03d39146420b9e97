"""The ``vector`` execution engine: whole-array numpy evaluation of loop nests.

Blocks compile exactly like the ``compiled`` engine — a cached list of
thunks — except that a structured loop (``scf.for`` / ``affine.for`` /
``fir.do_loop``) whose nest :func:`~repro.machine.loop_patterns.match_nest`
admits becomes a single :class:`_NestThunk`.  Invoking the thunk evaluates
the *entire* nest as one batch of numpy array operations:

* each loop's induction variable becomes an ``np.arange`` grid reshaped to
  its own broadcast axis (axis == loop depth), so an N-deep nest evaluates
  its body once over N-dimensional arrays instead of once per iteration;
* loads gather, stores scatter;
* every pure value op runs through its row of
  :data:`~repro.machine.semantics.VALUE_OPS` — the same kernel the
  iterative engines use, or the row's whole-array form where that differs
  — so div-by-zero → 0, NaN-aware comparisons and two's-complement wrap
  are preserved element-wise;
* ``ExecutionStats`` are synthesized analytically from the trip counts and
  the plan's per-loop category footprint — bit-identical to what the
  iterative engines would have counted, without executing any Python
  per-iteration work.

Evaluation is all-or-nothing: gathers/compute/validation are side-effect
free, and only a fully validated nest commits its scatters, cell updates,
stats and loop results.  Any guard failure — zero or runtime-varying trip
counts, aliased or non-injective stores, a value shape the evaluator cannot
prove — raises the private :class:`_Abort` and the nest falls back to the
iterative handler *for that invocation only* (after a few consecutive
aborts the site pins itself to the iterative path).  Fallback re-enters
this engine for inner blocks, so unmatched outer loops still vectorize
their inner nests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir import types as ir_types
from .interpreter import Interpreter
from .loop_patterns import (LOOP_OPS, VECTOR_WORK_FLOOR, estimated_nest_work,
                            match_nest)
from .semantics import VALUE_OPS, Declined, int_grid
from .values import Cell, ElementPtr, FortranArray

#: Consecutive aborts after which a nest site stops re-trying whole-array
#: evaluation and pins itself to the iterative handler.
_MAX_ABORTS = 3
#: Upper bound on the element count of any broadcast grid; nests larger
#: than this fall back (guards memory blow-up on huge trip products).
_MAX_ELEMENTS = 1 << 22

#: Internal: whole-array evaluation declined; fall back iteratively.
_Abort = Declined


def _scalarizer_for(value):
    """How the per-iteration engines would have *typed* this stored value.

    A value produced by an ``arith`` cast is a Python ``float``/``int``/
    ``bool`` per iteration (``fir.convert`` has no bool case); everything
    else keeps whatever numpy scalar the grid element already is.  Used
    when finalizing a Cell from the last grid element.
    """
    op = getattr(value, "op", None)
    if op is None:
        return None
    row = VALUE_OPS.get(op.name)
    if row is not None:
        # nest bodies are scalar-typed: a cast's kernel is its Python type
        return row.bind(op) if row.category == "cast" else None
    if op.name == "fir.convert":
        t = op.results[0].type
        if isinstance(t, ir_types.FloatType):
            return float
        if isinstance(t, (ir_types.IntegerType, ir_types.IndexType)):
            return int
    return None


class _Ref:
    """A deferred element reference (the whole-array ElementPtr analogue).

    ``kind`` is ``"fa"`` (FortranArray + flat offset grid), ``"nd"``
    (ndarray + per-axis index grids), ``"ndflat"`` (ndarray + flat offset)
    or ``"cell"`` (a Cell; idx unused).
    """

    __slots__ = ("kind", "base", "idx")

    def __init__(self, kind: str, base, idx=None):
        self.kind = kind
        self.base = base
        self.idx = idx


class _Store:
    """One deferred scatter: normalized flat positions + cast values."""

    __slots__ = ("seq", "key", "target", "comps", "nidx", "value", "lost",
                 "full")

    def __init__(self, seq, key, target, comps, nidx, value, lost, full):
        self.seq = seq
        self.key = key
        self.target = target    # ndarray to assign into at commit
        self.comps = comps      # per-axis normalized indices, or None (flat)
        self.nidx = nidx        # normalized flat positions (hazard space)
        self.value = value
        self.lost = lost        # write into a non-view copy: silently dropped
        #: the index pattern spans the whole enclosing iteration subspace —
        #: together with the uniqueness check, every nest iteration writes a
        #: *distinct* location, so no location is ever revisited
        self.full = full


class _NestEval:
    """One side-effect-free whole-array evaluation of a matched nest."""

    def __init__(self, interp: Interpreter, plan, env: Dict):
        self.interp = interp
        self.plan = plan
        self.env = env
        self.vals: Dict = {}
        #: ids of ndarrays this evaluation created as broadcast grids; any
        #: *other* ndarray reaching arithmetic is a foreign value we cannot
        #: prove scalar-per-iteration, so alignment aborts on it
        self.grid_ids = set()
        self.iv_ids = set()
        self.path: List[int] = []       # loop indices from root to here
        self.shape: List[int] = []      # trip counts along self.path
        self.numel = 1
        self.rt_trips: List[int] = [0] * len(plan.loops)
        self.rt_final_iv: List[int] = [0] * len(plan.loops)
        self.seq = 0
        self.stores: List[_Store] = []
        self.pending: Dict[int, List[_Store]] = {}
        self.loads: List[Tuple[int, int, np.ndarray]] = []
        self.bufs: Dict[int, np.ndarray] = {}
        self.cell_binds: Dict[int, Tuple] = {}
        self.cell_events: List[Tuple[int, bool, int]] = []
        self.root_results: List[Tuple] = []

    # ------------------------------------------------------------------ driving
    def run(self) -> None:
        for step in self.plan.steps:
            tag = step[0]
            if tag == "op":
                self._op(step[1], step[2])
            elif tag == "loop":
                self._enter(step[1])
            else:
                self._exit(step[1])
        self._validate()

    # ------------------------------------------------------------------ values
    def value(self, v):
        vals = self.vals
        if v in vals:
            return vals[v]
        return self.env[v]

    def _set(self, v, x) -> None:
        if isinstance(x, np.ndarray):
            self.grid_ids.add(id(x))
        self.vals[v] = x

    def _align(self, x, d: int):
        """Pad a grid with trailing unit axes up to broadcast depth ``d``."""
        if isinstance(x, np.ndarray):
            if id(x) not in self.grid_ids:
                raise _Abort
            nd = x.ndim
            if nd > d:
                raise _Abort
            if nd < d:
                return x.reshape(x.shape + (1,) * (d - nd))
        return x

    def _scalar_int(self, v) -> int:
        x = self.value(v)
        if isinstance(x, np.ndarray):
            raise _Abort        # runtime-varying (grid) loop bound
        return int(x)

    def _int_like(self, x):
        """Index component as the iterative ``int(...)`` would produce."""
        if isinstance(x, np.ndarray):
            if x.dtype.kind not in "iub":
                raise _Abort
            return x if x.dtype == np.int64 else x.astype(np.int64)
        return int(x)

    # ------------------------------------------------------------------ loops
    def _enter(self, index: int) -> None:
        info = self.plan.loops[index]
        op = info.op
        if info.kind == "affine":
            lower, upper = info.bounds
            lo = lower.scalar(*[self._scalar_int(v)
                                for v in op.lower_operands])
            hi = upper.scalar(*[self._scalar_int(v)
                                for v in op.upper_operands])
            st = op.step_value
            if st <= 0:
                raise _Abort    # iterative engine would not terminate
            trips = -((lo - hi) // st) if hi > lo else 0
            adv = st
        else:
            lo = self._scalar_int(op.operands[0])
            hi = self._scalar_int(op.operands[1])
            st = self._scalar_int(op.operands[2])
            if info.kind == "scf":
                # exclusive bound; non-positive step runs exactly once
                if lo >= hi:
                    trips = 0
                elif st <= 0:
                    trips = 1
                else:
                    trips = -((lo - hi) // st)
                adv = st if st > 0 else 0
            else:
                # fir.do_loop: inclusive bound, step 0 behaves as 1
                adv = st if st != 0 else 1
                if adv > 0:
                    trips = (hi - lo) // adv + 1 if lo <= hi else 0
                else:
                    trips = (lo - hi) // (-adv) + 1 if lo >= hi else 0
                self.rt_final_iv[index] = lo + trips * adv
        if trips <= 0:
            raise _Abort        # zero-trip: iterate (nothing to batch)
        if self.numel * trips > _MAX_ELEMENTS:
            raise _Abort
        self.rt_trips[index] = trips
        depth = len(self.path)
        iv = np.arange(trips, dtype=np.int64)
        if adv != 1:
            iv = iv * adv
        if lo != 0:
            iv = iv + lo
        iv = iv.reshape((1,) * depth + (trips,))
        self.path.append(index)
        self.shape.append(trips)
        self.numel *= trips
        body = info.body
        self._set(body.args[0], iv)
        self.iv_ids.add(id(iv))

    def _exit(self, index: int) -> None:
        info = self.plan.loops[index]
        trips = self.shape.pop()
        self.path.pop()
        self.numel //= trips
        results = [self.rt_final_iv[index]] if info.kind == "fir" else []
        if info.parent < 0:
            self.root_results = list(zip(info.op.results, results))
        else:
            for res, val in zip(info.op.results, results):
                self._set(res, val)

    # ------------------------------------------------------------------ cells
    def _cell_load(self, cell: Cell, d: int):
        self.seq += 1
        bind = self.cell_binds.get(id(cell))
        # a load whose binding is not pointwise-exact for the current path
        # *broadcasts* one value across loop axes; that is only sound when
        # no later store rebinds the cell (validated against cell_events)
        full = bind is not None and bind[2] == tuple(self.path)
        self.cell_events.append((self.seq, False, id(cell), full))
        if bind is None:
            return cell.value
        value, path = bind[1], bind[2]
        if not isinstance(value, np.ndarray):
            return value
        prefix = 0
        for a, b in zip(path, self.path):
            if a != b:
                break
            prefix += 1
        bound_depth = len(path)
        v = self._align(value, bound_depth)
        if bound_depth > prefix:
            # axes beyond the common prefix re-ran to completion before
            # this read: the last write along them is the visible one
            v = v[(Ellipsis,) + (-1,) * (bound_depth - prefix)]
        return v

    def _cell_store(self, cell: Cell, value, op) -> None:
        if isinstance(value, _Ref):
            raise _Abort
        self.seq += 1
        self.cell_events.append((self.seq, True, id(cell), True))
        self.cell_binds[id(cell)] = (
            cell, value, tuple(self.path), _scalarizer_for(op.operands[0]))

    # ------------------------------------------------------------------ memory
    def _register_base(self, key: int, buf: np.ndarray) -> None:
        if key not in self.bufs:
            self.bufs[key] = buf

    def _flat_parts(self, ref: _Ref, d: int):
        """(key, buffer, normalized flat idx, raw idx array) for fa/ndflat."""
        if ref.kind == "fa":
            buf = ref.base.data
        else:
            buf = ref.base.reshape(-1)
        idx = self._align(ref.idx, d)
        ia = np.asarray(idx)
        if ia.dtype.kind not in "iu":
            raise _Abort
        return id(ref.base), buf, ia.astype(np.int64), ia

    def _gather(self, ref: _Ref, d: int):
        kind = ref.kind
        if kind == "cell":
            return self._cell_load(ref.base, d)
        if kind in ("fa", "ndflat"):
            key, buf, nflat, ia = self._flat_parts(ref, d)
            value = buf[ia if ia.ndim else int(ia)]
            nflat = nflat % buf.size
        else:
            base = ref.base
            if len(ref.idx) != base.ndim:
                raise _Abort
            key = id(base)
            buf = base
            aligned = [np.asarray(self._align(c, d)) for c in ref.idx]
            for c in aligned:
                if c.dtype.kind not in "iu":
                    raise _Abort
            value = base[tuple(a if a.ndim else int(a) for a in aligned)]
            if aligned:
                normed = [a.astype(np.int64) % s
                          for a, s in zip(aligned, base.shape)]
                normed = np.broadcast_arrays(*normed)
                nflat = np.ravel_multi_index(tuple(normed), base.shape)
            else:
                nflat = np.zeros((), dtype=np.int64)
        nflat = np.asarray(nflat)
        recs = self.pending.get(key)
        if recs:
            nshape = nflat.shape
            for rec in reversed(recs):
                if rec.lost:
                    continue
                if rec.nidx.shape == nshape \
                        and np.array_equal(rec.nidx, nflat):
                    value = rec.value    # forward the pending write
                    break
                if np.intersect1d(rec.nidx.ravel(), nflat.ravel()).size:
                    raise _Abort         # partial overlap: order-dependent
        self.seq += 1
        self.loads.append((self.seq, key, nflat))
        self._register_base(key, buf)
        if isinstance(value, np.ndarray):
            self.grid_ids.add(id(value))
        return value

    def _cast_store_value(self, value, buf: np.ndarray) -> np.ndarray:
        v = np.asarray(value)
        if v.dtype == buf.dtype:
            return v
        if v.dtype.kind not in "iufb":
            raise _Abort
        if buf.dtype.kind in "iu" and v.dtype.kind == "f":
            # per-iteration assignment would raise on non-finite / huge
            if not np.all(np.isfinite(v)) or np.any(np.abs(v) >= 2 ** 63):
                raise _Abort
        return v.astype(buf.dtype)

    def _scatter(self, ref: _Ref, value, d: int, op) -> None:
        kind = ref.kind
        if kind == "cell":
            self._cell_store(ref.base, value, op)
            return
        if isinstance(value, _Ref):
            raise _Abort
        value = self._align(value, d)
        if kind in ("fa", "ndflat"):
            key, buf, nflat, _ = self._flat_parts(ref, d)
            size = buf.size
            if np.any(nflat >= size) or np.any(nflat < -size):
                raise _Abort     # iterative store would raise IndexError
            nflat = nflat % size
            lost = ref.kind == "ndflat" \
                and not np.shares_memory(buf, ref.base)
            cast = self._cast_store_value(value, buf)
            nb, vb = np.broadcast_arrays(nflat, cast)
            rec = _Store(self._next_seq(), key, buf, None,
                         np.asarray(nb), np.asarray(vb), lost,
                         np.asarray(nb).size == self.numel)
        else:
            base = ref.base
            if len(ref.idx) != base.ndim:
                raise _Abort
            key = id(base)
            buf = base
            aligned = [np.asarray(self._align(c, d)) for c in ref.idx]
            normed = []
            for a, s in zip(aligned, base.shape):
                if a.dtype.kind not in "iu":
                    raise _Abort
                if np.any(a >= s) or np.any(a < -s):
                    raise _Abort
                normed.append(a.astype(np.int64) % s)
            cast = self._cast_store_value(value, base)
            parts = np.broadcast_arrays(*normed, cast)
            comps, vb = tuple(parts[:-1]), parts[-1]
            if comps:
                nflat = np.ravel_multi_index(comps, base.shape)
            else:
                nflat = np.zeros((), dtype=np.int64)
            rec = _Store(self._next_seq(), key, base, comps,
                         np.asarray(nflat), np.asarray(vb), False,
                         np.asarray(nflat).size == self.numel)
        self._register_base(key, buf if kind != "nd" else base)
        self.stores.append(rec)
        self.pending.setdefault(key, []).append(rec)

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    # ------------------------------------------------------------------ body ops
    def _op(self, op, d: int) -> None:
        name = op.name
        row = VALUE_OPS.get(name)
        if row is not None:
            args = [self._align(self.value(v), d) for v in op.operands]
            whole = any(isinstance(x, np.ndarray) for x in args)
            kernel = row.bind_array(op) if whole else row.bind(op)
            self._set(op.results[0], kernel(*args))
        elif name == "fir.load":
            src = self.value(op.operands[0])
            t = type(src)
            if t is Cell:
                r = self._cell_load(src, d)
            elif t is _Ref:
                r = self._gather(src, d)
            elif t is ElementPtr:
                raise _Abort     # an element address made outside the nest
            else:
                r = src
            self._set(op.results[0], r)
        elif name == "fir.store":
            value = self.value(op.operands[0])
            dest = self.value(op.operands[1])
            t = type(dest)
            if t is Cell:
                self._cell_store(dest, value, op)
            elif t is _Ref:
                self._scatter(dest, value, d, op)
            else:   # an outside ElementPtr, or what the handler rejects
                raise _Abort
        elif name == "fir.coordinate_of":
            base = self.value(op.operands[0])
            if len(op.operands) > 1:
                flat = self._int_like(
                    self._align(self.value(op.operands[1]), d))
            else:
                flat = 0
            if isinstance(base, FortranArray):
                ref = _Ref("fa", base, flat)
            elif isinstance(base, np.ndarray):
                if id(base) in self.grid_ids:
                    raise _Abort
                ref = _Ref("ndflat", base, flat)
            elif isinstance(base, Cell):
                ref = _Ref("cell", base)
            else:
                raise _Abort
            self._set(op.results[0], ref)
        elif name == "memref.load":
            mem = self.value(op.operands[0])
            if type(mem) is Cell:
                r = self._cell_load(mem, d)
            else:
                if not isinstance(mem, np.ndarray) \
                        or id(mem) in self.grid_ids:
                    raise _Abort
                comps = tuple(self._int_like(self._align(self.value(v), d))
                              for v in op.operands[1:])
                if not comps and mem.ndim == 0:
                    r = self._gather(_Ref("ndflat", mem, 0), d)
                else:
                    r = self._gather(_Ref("nd", mem, comps), d)
            self._set(op.results[0], r)
        elif name == "memref.store":
            value = self.value(op.operands[0])
            mem = self.value(op.operands[1])
            if type(mem) is Cell:
                self._cell_store(mem, value, op)
            else:
                if not isinstance(mem, np.ndarray) \
                        or id(mem) in self.grid_ids:
                    raise _Abort
                comps = tuple(self._int_like(self._align(self.value(v), d))
                              for v in op.operands[2:])
                if not comps and mem.ndim == 0:
                    self._scatter(_Ref("ndflat", mem, 0), value, d, op)
                else:
                    self._scatter(_Ref("nd", mem, comps), value, d, op)
        elif name == "affine.load":
            mem = self.value(op.operands[0])
            comps = [self._int_like(self._align(self.value(v), d))
                     for v in op.operands[1:]]
            indices = self.plan.maps[op].call(*comps)
            if type(mem) is Cell:
                r = self._cell_load(mem, d)
            else:
                if not isinstance(mem, np.ndarray) \
                        or id(mem) in self.grid_ids:
                    raise _Abort
                if not indices and mem.ndim == 0:
                    r = self._gather(_Ref("ndflat", mem, 0), d)
                else:
                    r = self._gather(_Ref("nd", mem, indices), d)
            self._set(op.results[0], r)
        elif name == "affine.store":
            value = self.value(op.operands[0])
            mem = self.value(op.operands[1])
            comps = [self._int_like(self._align(self.value(v), d))
                     for v in op.operands[2:]]
            indices = self.plan.maps[op].call(*comps)
            if type(mem) is Cell:
                self._cell_store(mem, value, op)
            else:
                if not isinstance(mem, np.ndarray) \
                        or id(mem) in self.grid_ids:
                    raise _Abort
                if not indices and mem.ndim == 0:
                    self._scatter(_Ref("ndflat", mem, 0), value, d, op)
                else:
                    self._scatter(_Ref("nd", mem, indices), value, d, op)
        elif name == "arith.constant":
            self.vals[op.results[0]] = op.get_attr("value").value
        elif name == "fir.convert":
            x = self.value(op.operands[0])
            target = op.results[0].type
            if isinstance(x, np.ndarray) and id(x) in self.grid_ids:
                x = self._align(x, d)
                if isinstance(target, ir_types.FloatType):
                    r = x.astype(np.float64)
                elif isinstance(target, (ir_types.IntegerType,
                                         ir_types.IndexType)):
                    r = int_grid(x)
                else:
                    r = x
            elif isinstance(x, (Cell, FortranArray, ElementPtr,
                                np.ndarray, _Ref)):
                r = x
            elif isinstance(target, ir_types.FloatType):
                r = float(x)
            elif isinstance(target, (ir_types.IntegerType,
                                     ir_types.IndexType)):
                r = int(x)
            else:
                r = x
            self._set(op.results[0], r)
        elif name == "fir.box_addr":
            self._set(op.results[0], self.value(op.operands[0]))
        elif name == "fir.box_dims":
            box = self.value(op.operands[0])
            dim = self.value(op.operands[1])
            if isinstance(dim, np.ndarray) \
                    or (isinstance(box, np.ndarray)
                        and id(box) in self.grid_ids):
                raise _Abort
            dim = int(dim)
            shape = box.shape \
                if isinstance(box, (FortranArray, np.ndarray)) else (1,)
            self._set(op.results[0], 1)
            self._set(op.results[1],
                      int(shape[dim]) if dim < len(shape) else 1)
            self._set(op.results[2], 1)
        else:
            raise _Abort

    # ------------------------------------------------------------------ validate
    def _validate(self) -> None:
        intersect = np.intersect1d
        for recs in self.pending.values():
            flats = []
            for rec in recs:
                if rec.lost:
                    flats.append(None)
                    continue
                flat = rec.nidx.ravel()
                if np.unique(flat).size != flat.size:
                    raise _Abort    # duplicate targets: order-dependent
                flats.append(flat)
            for i in range(len(recs)):
                if flats[i] is None:
                    continue
                for j in range(i + 1, len(recs)):
                    if flats[j] is None:
                        continue
                    if recs[i].nidx.shape == recs[j].nidx.shape \
                            and np.array_equal(recs[i].nidx, recs[j].nidx):
                        continue
                    if intersect(flats[i], flats[j]).size:
                        raise _Abort
        for lseq, lkey, lnidx in self.loads:
            recs = self.pending.get(lkey)
            if not recs:
                continue
            lshape = lnidx.shape
            lflat = lnidx.ravel()
            for rec in recs:
                if rec.lost or rec.seq < lseq:
                    continue    # earlier writes were resolved at load time
                if rec.full and rec.nidx.shape == lshape \
                        and np.array_equal(rec.nidx, lnidx):
                    # each iteration loads exactly the location it later
                    # stores, and no other iteration touches it
                    continue
                if intersect(rec.nidx.ravel(), lflat).size:
                    raise _Abort    # a later store may feed an earlier
                    # iteration's load (loop-carried read-modify-write)
        if self.cell_binds:
            last_store: Dict[int, int] = {}
            for seq, is_store, cid, _full in self.cell_events:
                if is_store:
                    last_store[cid] = seq
            for seq, is_store, cid, full in self.cell_events:
                if not is_store and not full \
                        and last_store.get(cid, 0) > seq:
                    # a broadcast read followed by a rebinding store is a
                    # loop-carried dependence (e.g. s = s + a(i)): decline
                    raise _Abort
        store_keys = set(self.pending)
        if store_keys:
            shares = np.shares_memory
            for sk in store_keys:
                sbuf = self.bufs[sk]
                for ok, obuf in self.bufs.items():
                    if ok != sk and shares(sbuf, obuf):
                        raise _Abort    # distinct bases over shared memory

    # ------------------------------------------------------------------ commit
    def commit(self) -> None:
        interp = self.interp
        counts = interp._ctx_counts
        plan = self.plan
        mults: List[int] = []
        total = 0
        for i, info in enumerate(plan.loops):
            m = self.rt_trips[i] * (mults[info.parent]
                                    if info.parent >= 0 else 1)
            mults.append(m)
            for cat, n in plan.cat_counts[i].items():
                counts[cat] += float(n * m)
            total += plan.tops[i] * m
        interp.stats.total_ops += total
        budget = interp._budget - total
        if budget <= 0:
            interp._check_limit()
            budget = interp._check_stride
        interp._budget = budget
        for rec in self.stores:
            if rec.lost:
                continue
            if rec.comps is None:
                if rec.nidx.ndim:
                    rec.target[rec.nidx] = rec.value
                else:
                    rec.target[int(rec.nidx)] = rec.value
            else:
                rec.target[rec.comps] = rec.value
        for cell, value, path, scal in self.cell_binds.values():
            if isinstance(value, np.ndarray):
                elem = value[(-1,) * value.ndim]
                if scal is not None:
                    elem = scal(elem)
                elif id(value) in self.iv_ids:
                    elem = int(elem)
                cell.value = elem
            else:
                cell.value = value
        env = self.env
        for res, val in self.root_results:
            env[res] = val


class _NestThunk:
    """Compiled-block step for one statically matched loop nest."""

    __slots__ = ("engine", "plan", "handler", "aborts", "iterative")

    def __init__(self, engine: "VectorEngine", op, plan):
        self.engine = engine
        self.plan = plan
        #: the iterative fallback: the compiled engine's own loop thunk
        self.handler = engine.interp._compile_op(op)
        self.aborts = 0
        self.iterative = False

    def __call__(self, env):
        engine = self.engine
        if not self.iterative:
            ev = _NestEval(engine.interp, self.plan, env)
            try:
                ev.run()
            except _Abort:
                pass
            except Exception:
                # let the iterative handler raise the real error in context
                pass
            else:
                self.aborts = 0
                engine.vector_runs += 1
                ev.commit()
                return None
            self.aborts += 1
            if self.aborts >= _MAX_ABORTS:
                self.iterative = True
        engine.fallback_runs += 1
        return self.handler(env)


class VectorEngine:
    """Engine object bound to one Interpreter (mirrors ``JitEngine``)."""

    def __init__(self, interp: Interpreter):
        self.interp = interp
        self.cache: Dict = {}
        #: static match accounting (for tooling / the examples demo)
        self.matched_sites = 0
        self.declined_sites = 0
        #: matchable nests left iterative because their static work is too
        #: small for whole-array evaluation to pay off
        self.floor_declined_sites = 0
        #: dynamic accounting: whole-array evaluations vs iterative runs
        self.vector_runs = 0
        self.fallback_runs = 0

    def run_block(self, block, env) -> Tuple[str, object]:
        code = self.cache.get(block)
        if code is None:
            code = self.cache[block] = self._compile_block(block)
        interp = self.interp
        budget = interp._budget - len(code)
        if budget <= 0:
            interp._check_limit()
            budget = interp._check_stride
        interp._budget = budget
        for step in code:
            result = step(env)
            if result is not None:
                return result
        return "yield", (None, [])

    def _compile_block(self, block) -> List:
        interp = self.interp
        code: List = []
        for op in block.ops:
            if op.name in LOOP_OPS:
                work = estimated_nest_work(op)
                if work is not None and work < VECTOR_WORK_FLOOR:
                    # tiny static nest: ndarray materialisation overhead
                    # dwarfs the loop itself — stay iterative
                    self.floor_declined_sites += 1
                elif (plan := match_nest(op)) is not None:
                    self.matched_sites += 1
                    code.append(_NestThunk(self, op, plan))
                    continue
                else:
                    self.declined_sites += 1
            code.append(interp._compile_op(op))
        return code


__all__ = ["VectorEngine"]
