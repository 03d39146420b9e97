"""Executable profiling in the style of Section IV of the paper.

The paper profiles the tfft and induct benchmarks and reports, per compiler:
the fraction of floating-point instructions that were vectorised, the share
of instructions that are floating point, an estimate of memory-bound stalls
and the total number of instructions issued.  This module derives the same
quantities from the interpreter's dynamic operation statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .interpreter import ExecutionStats


@dataclass
class InstructionMix:
    total_instructions: float
    floating_point_fraction: float
    vectorised_fp_fraction: float
    memory_op_fraction: float
    index_arith_fraction: float
    estimated_memory_stall_fraction: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "total_instructions": self.total_instructions,
            "floating_point_fraction": self.floating_point_fraction,
            "vectorised_fp_fraction": self.vectorised_fp_fraction,
            "memory_op_fraction": self.memory_op_fraction,
            "index_arith_fraction": self.index_arith_fraction,
            "estimated_memory_stall_fraction": self.estimated_memory_stall_fraction,
        }


def profile_stats(stats: ExecutionStats, work_ratio: float = 1.0) -> InstructionMix:
    """Summarise an execution into a Section-IV style instruction mix."""
    # one pass over the per-context counters instead of one per category
    merged = stats.merged()
    scalar_fp = merged["float_arith"] + merged["float_fma"] + \
        merged["float_math"]
    vector_fp = merged["vector_float"]
    loads = merged["load"] + merged["vector_load"]
    stores = merged["store"] + merged["vector_store"]
    index_ops = merged["index_arith"] + merged["cast"]
    int_ops = merged["int_arith"]
    branches = merged["branch"] + merged["loop_iter"]
    runtime_elems = merged["runtime_elem"]

    total = (scalar_fp + vector_fp + loads + stores + index_ops + int_ops +
             branches + runtime_elems * 3) * work_ratio
    fp_total = scalar_fp + vector_fp + runtime_elems
    mem_total = loads + stores + runtime_elems
    fp_fraction = fp_total / total * work_ratio if total else 0.0
    vectorised = vector_fp / fp_total if fp_total else 0.0
    mem_fraction = mem_total * work_ratio / total if total else 0.0
    index_fraction = index_ops * work_ratio / total if total else 0.0
    # crude stall estimate: memory ops that cannot be hidden behind compute
    stall = min(0.95, mem_total / max(fp_total + mem_total, 1.0))
    return InstructionMix(
        total_instructions=total,
        floating_point_fraction=min(1.0, fp_fraction),
        vectorised_fp_fraction=vectorised,
        memory_op_fraction=min(1.0, mem_fraction),
        index_arith_fraction=min(1.0, index_fraction),
        estimated_memory_stall_fraction=stall,
    )


__all__ = ["InstructionMix", "profile_stats"]
