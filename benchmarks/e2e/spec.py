"""The benchmark's declared surface, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the only place workloads,
metrics, units and bounds are written down; the README explains each entry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Tuple

with open(Path(__file__).resolve().parents[2] / "BENCHMARK.json",
          encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)

RUN_SECONDS: int = DECLARED["run_seconds"]

WORKLOAD_NAMES: Tuple[str, ...] = tuple(
    w["name"] for w in DECLARED["workloads"])

#: name, unit, better, bound (share of the parent's median)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = tuple(
    (m["name"], m["unit"], m["better"], m["bound"])
    for m in DECLARED["end_to_end"])

#: name, unit, better
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"])

#: The passes priced by name (the twelve of BENCH_compile.json): every
#: ``passes.<p>.ops_after`` that is declared.  Every other pass is in
#: ``passes.total_s`` only.
NAMED_PASSES: Tuple[str, ...] = tuple(
    name[len("passes."):-len(".ops_after")] for name, _, _ in PER_LAYER
    if name.startswith("passes.") and name.endswith(".ops_after"))

#: Per-layer metrics that are deterministic counts: ``compare`` requires them
#: to match exactly between two runs of the same code.  The store's size on
#: disk is not one: it moved by two bytes between same-commit runs.
EXACT_COUNTS: Tuple[str, ...] = tuple(
    name for name, unit, _ in PER_LAYER
    if unit in ("count", "bytes") and name != "service.cache.disk_bytes")
