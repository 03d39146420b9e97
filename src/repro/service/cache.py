"""The one content-addressed store: in-memory LRU tier over a disk store,
shared by every artifact family through **namespaces**.

Payloads are JSON dicts.  Two namespaces share one :class:`ArtifactCache`
(and so one byte budget, one checksum path, one fault site):

* ``artifact`` — whole-module compile artifacts, keyed by the SHA-256 of
  their job's key material (see :mod:`repro.service.jobs`), which already
  carries the schema salt: the key is the address, unchanged;
* ``jit`` — jit translations, keyed by the digest of their emitted
  source (:mod:`repro.machine.jit`).

:func:`address` is the only place a raw key becomes a store address, so it
is the only place :data:`~repro.service.jobs.KEY_SCHEMA_VERSION` is folded
into the ``jit`` namespace: bumping the salt retires both families at once
without touching the store, and the same raw key in two namespaces can
never collide.

Per-function pipeline stages (:mod:`repro.service.incremental`) are not
stored here: they live in one process's memory only.

Each payload has one in-memory home.  Over a disk tier the LRU here holds
the ``artifact`` namespace only: ``jit`` entries are decoded into the jit's
own code cache, which always answers first, so an LRU copy of the encoded
payload would never be read.  A memory-only cache, and a
``durable=False`` put, have no other home and keep every namespace here.

The disk tier is the sharded store of :mod:`repro.service.sharded`:

    <cache_dir>/CACHE_FORMAT        format version marker
    <cache_dir>/shards/<pp>.json    256 shard files, pp = address[:2]

The ``CACHE_FORMAT`` marker guards the on-disk *layout*.  Corrupt or
truncated shards, checksum failures and payloads that lost their
namespace's shape are all treated as misses and overwritten on the next
store, so a killed run can never poison the cache, and the disk footprint
is bounded by an LRU byte budget (``byte_budget`` / ``$REPRO_CACHE_BUDGET``).
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path
from threading import Lock
from typing import Any, Dict, Optional

from ..counters import Counters
from . import faults
from .sharded import DEFAULT_BYTE_BUDGET, ShardedStore

#: Default size of the in-memory LRU tier (artifacts, not bytes).
DEFAULT_MEMORY_ENTRIES = 1024

#: Namespace -> fields every payload of it carries.  A disk-tier payload
#: without them (foreign writer, bad deserialisation, injected corruption
#: above the shard checksum) is malformed and reads as a miss.
NAMESPACES: Dict[str, tuple] = {
    "artifact": ("key", "ok"),
    "jit": ("bytecode",),
}


def address(ns: str, key: str) -> str:
    """The store address of ``key`` in namespace ``ns``."""
    if ns == "artifact":
        return key
    from .jobs import KEY_SCHEMA_VERSION
    blob = json.dumps({"ns": ns, "schema": KEY_SCHEMA_VERSION, "key": key},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ArtifactCache:
    """Two-tier, namespaced, content-addressed cache.

    ``cache_dir=None`` keeps the cache purely in memory (shared by every
    job its service runs); with a directory, payloads also
    persist across process invocations in the sharded disk store.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 memory_entries: int = DEFAULT_MEMORY_ENTRIES,
                 byte_budget: Optional[int] = None):
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._memory_entries = max(0, memory_entries)
        self._lock = Lock()
        #: ``<namespace>.<memory_hits|disk_hits|misses|stores|
        #: corrupt_payloads>``; the root view's totals are the flat numbers.
        self.counters = Counters()
        #: The disk tier (``None``: memory only).
        self.store: Optional[ShardedStore] = (
            ShardedStore(cache_dir, byte_budget=byte_budget)
            if cache_dir else None)

    # ------------------------------------------------------------------ info
    @property
    def cache_dir(self) -> Optional[Path]:
        return self.store.directory if self.store is not None else None

    @property
    def persistent(self) -> bool:
        return self.store is not None

    # ---------------------------------------------------------------- lookup
    def get(self, key: str, ns: str = "artifact") -> Optional[Dict[str, Any]]:
        where = address(ns, key)
        with self._lock:
            payload = self._memory.get(where)
            if payload is not None:
                self._memory.move_to_end(where)
        if payload is not None:
            self.counters.inc(f"{ns}.memory_hits")
            return payload
        if self.store is not None:
            payload = self.store.get(where)
            # Injected corruption *above* the store's checksum: what a bad
            # deserialisation or a foreign writer would produce.  The shape
            # check below is what turns it (and the real thing) into a miss.
            payload = faults.corrupt_payload("store.payload.corrupt", payload,
                                             key=f"{ns}:{key}")
            if payload is not None:
                if all(field in payload for field in NAMESPACES[ns]):
                    if ns == "artifact":
                        with self._lock:
                            self._promote(where, payload)
                    self.counters.inc(f"{ns}.disk_hits")
                    return payload
                self.counters.inc(f"{ns}.corrupt_payloads")
        self.counters.inc(f"{ns}.misses")
        return None

    def contains(self, key: str, ns: str = "artifact") -> bool:
        where = address(ns, key)
        with self._lock:
            if where in self._memory:
                return True
        return self.store is not None and self.store.contains(where)

    # ----------------------------------------------------------------- store
    def put(self, key: str, payload: Dict[str, Any], ns: str = "artifact",
            durable: bool = True) -> None:
        """Store ``payload``: on disk when there is a disk tier, and in the
        LRU when that is its one in-memory home (see the module docstring).

        ``durable=False`` keeps the entry in the in-memory LRU tier only —
        used for state that must not outlive this process, such as a
        timeout-driven quarantine that a differently-loaded machine should
        re-attempt from scratch.
        """
        where = address(ns, key)
        to_disk = durable and self.store is not None
        with self._lock:
            if ns == "artifact" or not to_disk:
                self._promote(where, payload)
            else:
                # a non-durable predecessor must not shadow the disk entry
                self._memory.pop(where, None)
        self.counters.inc(f"{ns}.stores")
        if to_disk:
            self.store.put(where, payload)

    def _promote(self, where: str, payload: Dict[str, Any]) -> None:
        """Insert into the LRU tier (caller holds the lock)."""
        self._memory[where] = payload
        self._memory.move_to_end(where)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)

    # ----------------------------------------------------------------- admin
    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()

    def stats(self) -> Dict[str, Any]:
        """Flat totals over all namespaces, the same numbers split
        ``by_namespace``, plus disk-tier accounting (bytes, evictions)."""
        merged = self.counters.as_dict()
        merged["by_namespace"] = {ns: self.counters.view(ns).as_dict()
                                  for ns in NAMESPACES}
        if self.store is not None:
            merged.update(self.store.stats())
        return merged


__all__ = ["ArtifactCache", "NAMESPACES", "address",
           "DEFAULT_MEMORY_ENTRIES", "DEFAULT_BYTE_BUDGET"]
