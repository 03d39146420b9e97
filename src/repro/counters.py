"""The one counter type every layer counts with.

A :class:`Counters` is a bag of monotonic integers under dotted names
(``"jit.misses"``, ``"artifact.disk_hits"``, ``"retries"``).  Everything
that used to keep its own hit/miss class or hand-rolled ``int`` fields —
the artifact store, the function-stage store, the jit's translation cache,
the scheduler's self-healing accounting, the daemon — increments one of
these, and every report (``service.counters()``, ``cache.stats()``, the
daemon's ``metrics``) is a :meth:`~Counters.view` of the same numbers.

Pool workers ship :meth:`~Counters.delta` of the process-wide registry
(:data:`PROCESS`) home next to each result and the parent folds it in with
:meth:`~Counters.merge`; merging is plain addition, so it is associative
and independent of completion order.

This is a leaf module (stdlib only): ``machine/`` and ``ir/`` may import it.
"""

from __future__ import annotations

from threading import Lock
from typing import Any, Dict, Mapping, Optional

#: The four raw outcomes of a two-tier lookup; ``hits``, ``lookups`` and
#: ``hit_rate`` are always derived from them, never stored.
TIER_FIELDS = ("memory_hits", "disk_hits", "misses", "stores")


class Counters:
    """Thread-safe named counters with prefix views, deltas and merges."""

    def __init__(self, values: Optional[Mapping[str, int]] = None):
        self._values: Dict[str, int] = dict(values or {})
        self._lock = Lock()
        self._prefix = ""

    def view(self, prefix: str) -> "Counters":
        """The counters below ``prefix`` as a live :class:`Counters` sharing
        this one's storage: names read and written through the view have
        ``"<prefix>."`` stripped."""
        sub = Counters.__new__(Counters)
        sub._values, sub._lock = self._values, self._lock
        sub._prefix = f"{self._prefix}{prefix}."
        return sub

    # ---------------------------------------------------------------- writes
    def inc(self, name: str, by: int = 1) -> None:
        name = self._prefix + name
        with self._lock:
            self._values[name] = self._values.get(name, 0) + by

    def merge(self, delta: Mapping[str, int]) -> None:
        """Add another registry's snapshot or delta into this one."""
        with self._lock:
            for name, count in delta.items():
                name = self._prefix + name
                self._values[name] = self._values.get(name, 0) + count

    # ----------------------------------------------------------------- reads
    def snapshot(self) -> Dict[str, int]:
        skip = len(self._prefix)
        with self._lock:
            return {name[skip:]: count for name, count in self._values.items()
                    if name.startswith(self._prefix)}

    def get(self, name: str) -> int:
        with self._lock:
            return self._values.get(self._prefix + name, 0)

    def delta(self, since: Mapping[str, int]) -> Dict[str, int]:
        """What changed since ``since`` (an earlier :meth:`snapshot`);
        unchanged names are left out, so an idle delta is empty."""
        return {name: count - since.get(name, 0)
                for name, count in self.snapshot().items()
                if count != since.get(name, 0)}

    def as_dict(self) -> Dict[str, Any]:
        """Everything in view folded by leaf name (last dotted component, so
        a store's root view adds up all its namespaces and a namespace's
        view reads just its own), the four :data:`TIER_FIELDS` always
        present, plus the derived ``hits`` / ``lookups`` / ``hit_rate``."""
        out: Dict[str, Any] = dict.fromkeys(TIER_FIELDS, 0)
        for name, count in self.snapshot().items():
            leaf = name.rpartition(".")[2]
            out[leaf] = out.get(leaf, 0) + count
        hits = out["memory_hits"] + out["disk_hits"]
        lookups = hits + out["misses"]
        out["hits"] = hits
        out["lookups"] = lookups
        out["hit_rate"] = round(hits / lookups, 4) if lookups else 0.0
        return out

    memory_hits, disk_hits, misses, stores, hits, lookups = (
        property(lambda self, _name=_name: self.as_dict()[_name])
        for _name in TIER_FIELDS + ("hits", "lookups"))


#: The process-wide registry: the process function store counts under
#: ``function.*`` and the jit's translation cache under ``jit.*``.  Pool
#: workers report its delta per job (see ``service.jobs.execute_spec_timed``).
PROCESS = Counters()

__all__ = ["Counters", "PROCESS", "TIER_FIELDS"]
