"""Function-granular incremental compilation: the per-function stage store.

:class:`FunctionArtifactStore` memoises the result of running a
``func.func``-anchored pass nest over one function, keyed by the function's
structural fingerprint salted with the nest's pipeline text (computed in
:mod:`repro.ir.pass_manager`).  Recompiling a module where
one function changed then replays every untouched function from the store
— splicing a clone of the optimised form — and re-runs the pipeline only
on the changed one.

The store is one **live tier**: an LRU of detached optimised function
ops, each hit served as a clone (clones get fresh uids).  It lives and
dies with its process: nothing of it reaches the sharded
:class:`~repro.service.cache.ArtifactCache`, whose disk tier holds
whole-module artifacts and jit translations only.

The store implements the duck-typed ``lookup``/``store`` protocol of
:class:`repro.ir.pass_manager.PipelineSettings.function_cache`.

In front of the fingerprints sits a **unit memo** (:meth:`lookup_unit`,
:meth:`remember_unit`), which :meth:`repro.flows.base.Flow.compile`
consults when the pipeline has a ``func.func`` nest (``ours``; ``flang``'s
pipeline has none).  It maps a
program unit's key (:mod:`repro.frontend.units`: source text, interface
digest, pipeline text) to the fingerprints its functions had when last
stored.  A unit it knows is served from the live tier before anything is
lowered; an entry whose fingerprints left the live tier is dropped.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import List, Optional, Sequence, Tuple

from ..counters import PROCESS, Counters
from ..ir.core import Operation
from ..ir.pass_manager import PassTiming

#: Default size of the live-function LRU tier (functions, not bytes).
DEFAULT_FUNCTION_ENTRIES = 256


class FunctionArtifactStore:
    """Per-function pipeline-stage memoisation in one process's memory."""

    def __init__(self, memory_entries: int = DEFAULT_FUNCTION_ENTRIES):
        self._live: "OrderedDict[str, Tuple[Operation, Tuple[PassTiming, ...]]]" \
            = OrderedDict()
        self._memory_entries = max(1, memory_entries)
        #: program-unit key -> the fingerprints its functions had when last
        #: stored; live tier only (see :meth:`lookup_unit`)
        self._units: "OrderedDict[str, Tuple[str, ...]]" = OrderedDict()
        self._lock = Lock()
        #: live-tier hits (``memory_hits``), misses, stores
        self.counters = Counters()

    # ---------------------------------------------------------------- lookup
    def lookup(self, fingerprint: str
               ) -> Optional[Tuple[Operation, Tuple[PassTiming, ...]]]:
        """A fresh clone of the optimised function for this fingerprint, or
        ``None``.  The returned op is detached and safe to splice."""
        with self._lock:
            entry = self._live.get(fingerprint)
            if entry is not None:
                self._live.move_to_end(fingerprint)
        if entry is None:
            self.counters.inc("misses")
            return None
        self.counters.inc("memory_hits")
        func, timings = entry
        return func.clone(), timings

    def lookup_unit(self, unit_key: str
                    ) -> Optional[List[Tuple[Operation, Tuple[PassTiming, ...]]]]:
        """Fresh clones of a program unit's optimised functions, in order,
        or ``None`` when the memo does not know the unit or the live tier
        no longer holds every one of its fingerprints.

        A served unit counts one live hit per function, exactly as
        :meth:`lookup` would; an unknown one counts nothing (its functions
        are fingerprinted and looked up one by one afterwards)."""
        with self._lock:
            fingerprints = self._units.get(unit_key)
            if fingerprints is None:
                return None
            entries = [self._live.get(fp) for fp in fingerprints]
            if None in entries:
                del self._units[unit_key]
                return None
            self._units.move_to_end(unit_key)
            for fp in fingerprints:
                self._live.move_to_end(fp)
        self.counters.inc("memory_hits", len(entries))
        return [(func.clone(), timings) for func, timings in entries]

    def remember_unit(self, unit_key: str, fingerprints: Sequence[str]) -> None:
        """Note which fingerprints the unit keyed ``unit_key`` compiled to."""
        with self._lock:
            self._units[unit_key] = tuple(fingerprints)
            self._units.move_to_end(unit_key)
            while len(self._units) > self._memory_entries:
                self._units.popitem(last=False)

    # ----------------------------------------------------------------- store
    def store(self, fingerprint: str, func: Operation,
              timings: Sequence[PassTiming] = ()) -> None:
        """Memoise the optimised ``func`` (a clone is taken; the caller's op
        stays live in its module)."""
        kept = func.clone(), tuple(timings)
        with self._lock:
            self._live[fingerprint] = kept
            self._live.move_to_end(fingerprint)
            while len(self._live) > self._memory_entries:
                self._live.popitem(last=False)
        self.counters.inc("stores")

    # ----------------------------------------------------------------- admin
    def __len__(self) -> int:
        with self._lock:
            return len(self._live)


# ---------------------------------------------------------------------------
# Process-wide store
# ---------------------------------------------------------------------------

#: Counts under ``function.*`` in the process registry
#: (:data:`repro.counters.PROCESS`), so pool workers report it home.
_PROCESS_STORE = FunctionArtifactStore()
_PROCESS_STORE.counters = PROCESS.view("function")


def get_function_store() -> FunctionArtifactStore:
    """The process-wide store every in-process compile shares by default."""
    return _PROCESS_STORE


__all__ = ["FunctionArtifactStore", "DEFAULT_FUNCTION_ENTRIES",
           "get_function_store"]
