"""Machine-speed calibration: turn wall-clock intervals into reference seconds.

The sandbox this benchmark runs in changes speed under it: the same
pure-Python loop runs 1.0x, 1.4x or 1.7x slower for tens of seconds at a
time (a neighbour on the host), on one vCPU or both.  Raw timings of ten
consecutive runs therefore spread by 20-40 %, more than any regression bound
worth having.  Instead of timing more, the runner measures the machine while
it measures the program:

* runner and measured processes are pinned to **one** CPU, so the probe sees
  the CPU the work runs on;
* every :data:`SAMPLE_PERIOD_S` the runner times one fixed *calibration
  unit* (a JSON encode + decode of a fixed document — allocation, dict and
  string work like the compiler's own, and the best tracker of the candidates
  tried);
* an interval ``[a, b]`` reported by the measured process (same
  ``CLOCK_MONOTONIC``) is integrated against that speed trace:
  ``reference_seconds = integral over [a, b] of REF_UNIT_S / unit_time(t) dt``;
* the sampler's own units ran on the measured CPU, so the share of ``[a, b]``
  they occupied is taken back out: without that, every other 26 ms iteration
  carries 1.3 ms of the benchmark's own making and a tail percentile mostly
  reports how many samples fell on it.

A reference second is a second on a machine where the unit takes
:data:`REF_UNIT_S` (this sandbox at full speed).  The calibration unit is
benchmark code: no change under ``src/`` can move it.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import time
from typing import List, Optional, Sequence, Tuple

#: Seconds one calibration unit takes on the reference machine.
REF_UNIT_S = 0.0006

#: Runner-side sampling cadence (two units per tick: ~2.5 % of the pinned
#: CPU).  Sampling half as often was tried and follows the machine's speed
#: changes visibly worse: spreads on ``daemon_hit`` grew by half.
SAMPLE_PERIOD_S = 0.05

_DOC = {f"k{i}": {"x": list(range(20)), "y": "abc" * 10} for i in range(150)}


def unit_time() -> float:
    """Wall seconds of one calibration unit, right now, on this CPU."""
    started = time.perf_counter()
    json.loads(json.dumps(_DOC))
    return time.perf_counter() - started


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and so its children) to its highest allowed CPU."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


class SpeedTrace:
    """Calibration samples over time, and intervals normalised against them."""

    def __init__(self, shares_cpu: bool = False) -> None:
        #: whether the sampler runs on the CPU the measured processes run on
        #: (only then is its busy time time they did not have)
        self.shares_cpu = shares_cpu
        self._samples: List[Tuple[float, float]] = []
        self._busy_ends: List[float] = []
        self._times: List[float] = []
        self._rates: List[float] = []
        self._integral: List[float] = []

    def sample(self) -> None:
        # the faster of two back-to-back units: a unit that was preempted
        # half-way reads slow for a reason that is not the machine's speed
        at = time.perf_counter()
        self._samples.append((at, min(unit_time(), unit_time())))
        self._busy_ends.append(time.perf_counter())

    def __len__(self) -> int:
        return len(self._samples)

    def _freeze(self) -> None:
        if len(self._times) == len(self._samples):
            return
        values = [v for _, v in self._samples]
        smooth = [statistics.median(values[max(0, i - 2):i + 3])
                  for i in range(len(values))]
        self._times = [t for t, _ in self._samples]
        rates = self._rates = [REF_UNIT_S / v for v in smooth]
        self._integral = [0.0]
        for i in range(1, len(rates)):
            dt = self._times[i] - self._times[i - 1]
            self._integral.append(self._integral[-1]
                                  + dt * (rates[i] + rates[i - 1]) / 2.0)

    def _reference_clock(self, t: float) -> float:
        """Reference seconds elapsed at wall time ``t`` (flat extrapolation)."""
        times, rates, integral = self._times, self._rates, self._integral
        if t <= times[0]:
            return (t - times[0]) * rates[0]
        if t >= times[-1]:
            return integral[-1] + (t - times[-1]) * rates[-1]
        i = bisect.bisect_right(times, t) - 1
        span = times[i + 1] - times[i]
        frac = (t - times[i]) / span if span else 0.0
        rate = rates[i] + (rates[i + 1] - rates[i]) * frac
        return integral[i] + (t - times[i]) * (rates[i] + rate) / 2.0

    def _sampler_busy(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]`` the sampler itself was running."""
        busy = 0.0
        i = bisect.bisect_right(self._busy_ends, start)
        while i < len(self._times) and self._times[i] < end:
            busy += min(end, self._busy_ends[i]) - max(start, self._times[i])
            i += 1
        return busy

    def normalise(self, start: float, end: float) -> float:
        """Reference seconds covered by the wall interval ``[start, end]``."""
        if not self._samples or end <= start:
            return end - start
        self._freeze()
        reference = self._reference_clock(end) - self._reference_clock(start)
        if self.shares_cpu:
            reference *= 1.0 - self._sampler_busy(start, end) / (end - start)
        return reference

    def normalise_all(self, intervals: Sequence[Sequence[float]]
                      ) -> List[float]:
        return [self.normalise(a, b) for a, b in intervals]

    def summary(self) -> dict:
        """How fast the machine ran while we watched (1.0 = reference)."""
        if not self._samples:
            return {"samples": 0}
        values = sorted(v for _, v in self._samples)
        quartiles = statistics.quantiles(values, n=4) if len(values) > 1 \
            else [values[0]] * 3
        return {"samples": len(values),
                "unit_s": {"min": values[0], "p25": quartiles[0],
                           "median": quartiles[1], "p75": quartiles[2],
                           "max": values[-1]},
                "slowdown_median": quartiles[1] / REF_UNIT_S}
