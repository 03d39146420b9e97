"""What a measured process writes down: timestamps, spans, counts, checks.

The measured (child) process never turns a timestamp into a duration: it
records raw ``perf_counter`` readings and the runner normalises them against
its speed trace (:mod:`calibrate`).  Spans are kept in memory and written
once, when the process ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

clock = time.perf_counter
_PROCESS_STARTED = clock()

#: Span categories.  ``path`` spans are steps the workload itself takes and
#: are what ``trace.coverage`` sums; ``detail`` spans subdivide a path span
#: (per-pass children of ``flow.run``); ``replay`` spans re-run one layer on
#: the same input to price it and are not on the workload's path.
PATH, DETAIL, REPLAY = "path", "detail", "replay"


class Recorder:
    """Intervals, spans, exact counts, per-program rows and output checks."""

    def __init__(self, tracing: bool = False) -> None:
        self.tracing = tracing
        self.intervals: Dict[str, List[List[float]]] = {}
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = {}
        #: ``name -> [value, window_start, window_end]``: a duration another
        #: process measured (the daemon's own latency figures), to be scaled
        #: by the machine speed over the window it was measured in.
        self.foreign: Dict[str, List[float]] = {}
        self.rows: List[Dict[str, Any]] = []
        #: first reading of this process's clock (the runner knows when it
        #: spawned us; the difference is interpreter start-up)
        self.info: Dict[str, Any] = {"t_main": _PROCESS_STARTED}
        #: name of the loop being run; sample intervals are filed under it
        self.phase = "iter"
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    # ------------------------------------------------------------ intervals
    def add_interval(self, name: str, start: float, end: float) -> None:
        with self._lock:
            self.intervals.setdefault(name, []).append([start, end])

    @contextmanager
    def interval(self, name: str) -> Iterator[None]:
        start = clock()
        try:
            yield
        finally:
            self.add_interval(name, start, clock())

    # ---------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str, cat: str = PATH,
             req: Optional[str] = None) -> Iterator[int]:
        """Record one span when tracing; free when not.  Yields the span's
        index in :attr:`spans` (``-1`` when not tracing)."""
        if not self.tracing:
            yield -1
            return
        stack = self._stack.__dict__.setdefault("open", [])
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, cat, 0.0, 0.0, parent, req])
        stack.append(index)
        start = clock()
        try:
            yield index
        finally:
            end = clock()
            stack.pop()
            entry = self.spans[index]
            entry[2], entry[3] = start, end

    def add_span(self, name: str, cat: str, start: float, end: float,
                 req: Optional[str] = None, parent: int = -1) -> int:
        """A span reconstructed from someone else's timing report."""
        if not self.tracing:
            return -1
        with self._lock:
            self.spans.append([name, cat, start, end, parent, req])
            return len(self.spans) - 1

    # --------------------------------------------------------------- counts
    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def set_count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = value

    # --------------------------------------------------------------- checks
    def check(self, ok: bool, message: str = "") -> bool:
        """One verified operation; a false ``ok`` is a failed operation."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(message)
        return ok

    # ---------------------------------------------------------------- output
    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"intervals": self.intervals, "spans": self.spans,
                       "counts": self.counts, "foreign": self.foreign,
                       "rows": self.rows, "info": self.info,
                       "attempted": self.attempted, "failed": self.failed,
                       "failures": self.failures}, handle)


def write_chrome_trace(path: str, spans: List[List[Any]], pid: int = 1) -> None:
    """Spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
    if not spans:
        events: List[Dict[str, Any]] = []
    else:
        origin = min(s[2] for s in spans)
        events = [{"name": name, "cat": cat, "ph": "X", "pid": pid, "tid": 1,
                   "ts": (start - origin) * 1e6,
                   "dur": max(0.0, end - start) * 1e6,
                   "args": {"parent": parent, "request": req}}
                  for name, cat, start, end, parent, req in spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
