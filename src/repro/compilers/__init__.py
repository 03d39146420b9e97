"""Compiler adapters used by the experiment harness.

Two adapters actually build and run IR produced by this repository:

* :class:`FlangV20Adapter` — the baseline Flang flow (HLFIR -> FIR, bespoke
  code generation, runtime-library intrinsics), executed at the FIR level;
* :class:`OurApproachAdapter` — the paper's standard-MLIR flow, executed at
  the optimised standard-dialect level (after the Section V/VI passes).

The remaining columns of the paper's tables (Flang v17, Cray CE 15, GNU
Gfortran 11.2, nvfortran 22.11) are closed-source or out of scope to rebuild;
they are modeled by applying documented capability profiles
(:mod:`repro.machine.models`) to the same structural execution statistics —
see DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..flows import DEFAULT_ENGINE
from ..machine import (ARCHER2, CIRRUS_V100, CRAY_PROFILE, FLANG_V17_PROFILE,
                       FLANG_V20_PROFILE, GNU_PROFILE, NVFORTRAN_PROFILE,
                       OURS_PROFILE, CompilerProfile, ExecutionStats,
                       PerformanceModel, profile_stats)
from ..machine.perf import RuntimeBreakdown
from ..service import CompileJob, get_default_service
from ..workloads import Workload


@dataclass
class Measurement:
    """One modeled benchmark measurement."""

    compiler: str
    workload: str
    runtime_s: float
    breakdown: RuntimeBreakdown
    stats: ExecutionStats
    output: Tuple[str, ...] = ()
    compiled: bool = True
    failure: Optional[str] = None

    @property
    def did_not_compile(self) -> bool:
        return not self.compiled


def _run_through_service(job: CompileJob) -> Tuple[ExecutionStats, Tuple[str, ...]]:
    """Execute a job via the process-wide compilation service.

    The service's content-addressed cache replaces the old per-adapter
    ``_StatsCache``: identical (workload, flow, options) executions are
    shared across adapter instances, across tables and — with a persistent
    cache directory — across process invocations.
    """
    artifact = get_default_service().execute(job)
    artifact.raise_for_failure()
    return artifact.stats, artifact.printed


class CompilerAdapter:
    """Base class: compile a workload, execute it, model its runtime.

    Compilation is dispatched entirely by flow *name* through the flow
    registry (:mod:`repro.flows`): an adapter is just a (flow, options,
    capability profile) triple, so measuring a newly registered flow needs
    no subclass — ``CompilerAdapter(flow="my-flow", **options)`` works.
    """

    name = "base"
    column = "base"
    profile: CompilerProfile = OURS_PROFILE
    flow = "ours"

    def __init__(self, perf_model: Optional[PerformanceModel] = None, *,
                 flow: Optional[str] = None, engine: str = DEFAULT_ENGINE,
                 **options):
        self.perf = perf_model or PerformanceModel()
        if flow is not None:
            self.flow = flow
        self.engine = engine
        self.options = options

    # -- flow dispatch ---------------------------------------------------------------
    def execute(self, workload: Workload, threads: int = 1, gpu: bool = False,
                engine: Optional[str] = None,
                **_) -> Tuple[ExecutionStats, Tuple[str, ...]]:
        return _run_through_service(
            CompileJob(self.flow, workload.name, options=self.options,
                       threads=threads, gpu=gpu,
                       engine=engine or self.engine, workload=workload))

    # -- shared measurement logic -----------------------------------------------------
    def measure(self, workload: Workload, *, threads: int = 1, gpu: bool = False,
                engine: Optional[str] = None,
                size_overrides: Optional[Dict[str, int]] = None) -> Measurement:
        try:
            stats, output = self.execute(workload, threads=threads, gpu=gpu,
                                         engine=engine)
        except Exception as exc:  # compilation/execution failure -> DNC entry
            return Measurement(self.column, workload.name, float("nan"),
                               RuntimeBreakdown(), ExecutionStats(),
                               compiled=False, failure=str(exc))
        scaling = workload.scaling(size_overrides)
        if gpu:
            breakdown = self.perf.gpu_runtime(stats, scaling, self.profile)
        else:
            breakdown = self.perf.cpu_runtime(stats, scaling, self.profile,
                                              threads=threads)
        return Measurement(self.column, workload.name, breakdown.total_s,
                           breakdown, stats, output)

    def instruction_mix(self, workload: Workload,
                        engine: Optional[str] = None):
        stats, _ = self.execute(workload, engine=engine)
        return profile_stats(stats, workload.work_ratio())


class FlangV20Adapter(CompilerAdapter):
    """Baseline Flang 20.0.0 (LLVM 18.1.8): the flow of Figure 1."""

    name = "Flang v20"
    column = "flang-v20"
    profile = FLANG_V20_PROFILE
    flow = "flang"


class FlangV17Adapter(FlangV20Adapter):
    """Flang 17.0.0 (pre-HLFIR): same structural execution, v17 profile."""

    name = "Flang v17"
    column = "flang-v17"
    profile = FLANG_V17_PROFILE


class CrayAdapter(FlangV20Adapter):
    """Cray CE 15.0.0 — modeled with the Cray capability profile."""

    name = "Cray"
    column = "cray"
    profile = CRAY_PROFILE


class GnuAdapter(FlangV20Adapter):
    """GNU Gfortran 11.2.0 — modeled with the Gfortran capability profile."""

    name = "GNU"
    column = "gnu"
    profile = GNU_PROFILE


class OurApproachAdapter(CompilerAdapter):
    """The paper's flow: HLFIR/FIR -> standard MLIR -> optimised IR.

    Keyword arguments (``vector_width=8``, ``tile=True``, ...) become flow
    options validated against the ``ours`` flow's options schema.
    """

    name = "Our approach"
    column = "our-approach"
    profile = OURS_PROFILE
    flow = "ours"


class NvfortranAdapter(OurApproachAdapter):
    """NVIDIA nvfortran 22.11 (Table V GPU reference) — modeled by applying
    the nvfortran profile to the same OpenACC kernel structure."""

    name = "nvfortran"
    column = "nvfortran"
    profile = NVFORTRAN_PROFILE


#: Column order used by the harness for the CPU tables.
CPU_ADAPTERS = {
    "our-approach": OurApproachAdapter,
    "flang-v20": FlangV20Adapter,
    "flang-v17": FlangV17Adapter,
    "cray": CrayAdapter,
    "gnu": GnuAdapter,
}

__all__ = [
    "Measurement", "CompilerAdapter", "FlangV20Adapter", "FlangV17Adapter",
    "CrayAdapter", "GnuAdapter", "OurApproachAdapter", "NvfortranAdapter",
    "CPU_ADAPTERS",
]
