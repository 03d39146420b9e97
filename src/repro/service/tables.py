"""The paper's tables, each cell declared once.

A table is a list of rows ``(label, paper row, {column: Cell})``.  A
:class:`Cell` names the compile job whose artifact it reads and the
compiler profile the performance model applies to that artifact: the CPU
model at the job's thread count, or the GPU model when the job targets the
GPU.  A cell with ``over`` reports the speed-up of ``over``'s runtime over
its own (Table IV).  The closed-source compilers of the paper (Flang v17,
Cray, GNU, nvfortran) are profiles applied to the artifact of the flow
they compete with.

The same rows tell :func:`jobs_for` what to compile and
:func:`run_tables` what to measure: one deduplicated batch, then every
unique artifact read from the service once and every table evaluated over
those artifacts.  A column the paper reports as DNC (``None`` in
:mod:`~repro.harness.paper_data`) has no cell and reads NaN; any other
cell whose artifact failed raises a :class:`TableError` that names it.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..flows import DEFAULT_ENGINE
from ..harness import paper_data
from ..harness.reporting import ExperimentRow, ExperimentTable
from ..machine import (CRAY_PROFILE, FLANG_V17_PROFILE, FLANG_V20_PROFILE,
                       GNU_PROFILE, NVFORTRAN_PROFILE, OURS_PROFILE,
                       CompilerProfile, PerformanceModel, profile_stats)
from ..workloads import (Workload, get_workload, table1_workloads,
                         table2_workloads, table3_workloads)
from .jobs import CompiledArtifact, CompileJob, ServiceError
from .scheduler import BatchReport, CompileService

#: Every table the batch API can regenerate, in presentation order.
ALL_TABLES = ("table1", "table2", "table3", "table4", "table5", "figure3")

#: Each table's title and its columns in presentation order.
_TITLES = {
    "table1": ("Runtime of the benchmarks for Flang v20/v17, Cray and GNU",
               ("flang-v20", "flang-v17", "cray", "gnu")),
    "table2": ("Our approach against Flang v20, Cray and GNU",
               ("our-approach", "flang-v20", "cray", "gnu")),
    "table3": ("Fortran intrinsics: linalg dialect (ours) vs runtime "
               "library (Flang)", ("ours-serial", "ours-threaded",
                                   "flang-v20")),
    "table4": ("OpenMP speed-up over serial for jacobi and pw-advection",
               ("ours-jacobi", "ours-pw", "flang-jacobi", "flang-pw")),
    "table5": ("pw-advection with OpenACC on a V100: ours vs nvfortran",
               ("our-approach", "nvfortran")),
    "figure3": ("Effect of the affine vectorisation/tiling pipeline",
                ("scalar", "vectorised", "tiled+vectorised")),
}

#: The reference compilers, each modeled on the ``flang`` artifact.
_FLANG_PROFILES = {"flang-v20": FLANG_V20_PROFILE,
                   "flang-v17": FLANG_V17_PROFILE,
                   "cray": CRAY_PROFILE, "gnu": GNU_PROFILE}

#: Table III pipeline options (Section VI-B: matmul is tiled, dotproduct
#: is unrolled by 4); its threaded cells run on a 64-core ARCHER2 node.
_TABLE3_OPTIONS = {"matmul": {"tile": True}, "dotproduct": {"unroll": 4}}
_TABLE3_THREADS = 64


class Cell(NamedTuple):
    """One table value: ``job``'s artifact under ``profile``; with
    ``over``, the speed-up of ``over``'s runtime over this one."""

    job: CompileJob
    profile: CompilerProfile
    over: Optional["Cell"] = None


Row = Tuple[str, Dict[str, Optional[float]], Dict[str, Cell]]


class TableError(RuntimeError):
    """A cell the paper reports a value for read a failed artifact."""


def _row(label: str, paper: Dict[str, Optional[float]],
         cells: Dict[str, Cell]) -> Row:
    """A row without the cells the paper reports as DNC."""
    return label, paper, {column: cell for column, cell in cells.items()
                          if column not in paper or paper[column] is not None}


def _rows(table: str, benchmarks: Optional[Sequence[str]],
          engine: str) -> List[Row]:
    """Declare ``table``.  Within a row, cells are listed in the order
    their jobs are submitted, which fixes the order keys first appear."""

    def job(flow: str, workload: Workload, **kwargs) -> CompileJob:
        return CompileJob(flow, workload.name, workload=workload,
                          engine=engine, **kwargs)

    def selected(workloads: List[Workload]) -> List[Workload]:
        return [w for w in workloads
                if benchmarks is None or w.name in benchmarks]

    rows: List[Row] = []
    if table == "table1":
        for w in selected(table1_workloads()):
            flang = job("flang", w)
            rows.append(_row(w.name, paper_data.TABLE1.get(w.name, {}), {
                column: Cell(flang, profile)
                for column, profile in _FLANG_PROFILES.items()}))
    elif table == "table2":
        for w in selected(table2_workloads()):
            flang = job("flang", w)
            cells = {"our-approach": Cell(job("ours", w), OURS_PROFILE)}
            for column in ("flang-v20", "cray", "gnu"):
                cells[column] = Cell(flang, _FLANG_PROFILES[column])
            rows.append(_row(w.name, paper_data.TABLE2.get(w.name, {}),
                             cells))
    elif table == "table3":
        for w in selected(table3_workloads()):
            options = _TABLE3_OPTIONS.get(w.name, {})
            rows.append(_row(w.name, paper_data.TABLE3.get(w.name, {}), {
                "ours-serial": Cell(job("ours", w, options=options),
                                    OURS_PROFILE),
                "flang-v20": Cell(job("flang", w), FLANG_V20_PROFILE),
                # DNC for dotproduct and sum: the paper's scf.parallel
                # conversion does not support reductions
                "ours-threaded": Cell(job("ours", w, options=options,
                                          threads=_TABLE3_THREADS),
                                      OURS_PROFILE)}))
    elif table == "table4":
        flows = (("ours", OURS_PROFILE), ("flang", FLANG_V20_PROFILE))
        openmp = (("openmp", True),)
        workloads = [(suffix, get_workload(name, openmp=True)) for suffix, name
                     in (("jacobi", "jacobi"), ("pw", "pw-advection"))]
        serial = {(flow, suffix): Cell(job(flow, w, workload_kwargs=openmp),
                                       profile)
                  for suffix, w in workloads for flow, profile in flows}
        for cores, paper in paper_data.TABLE4.items():
            rows.append(_row(str(cores), paper, {
                f"{flow}-{suffix}": Cell(
                    job(flow, w, workload_kwargs=openmp, threads=cores),
                    profile, over=serial[flow, suffix])
                for suffix, w in workloads for flow, profile in flows}))
    elif table == "table5":
        for cells, paper in paper_data.TABLE5.items():
            variant = (("openacc", True), ("grid_cells", cells))
            gpu = job("ours", get_workload("pw-advection", **dict(variant)),
                      workload_kwargs=variant, gpu=True)
            rows.append(_row(f"{cells:,}", paper, {
                "our-approach": Cell(gpu, OURS_PROFILE),
                "nvfortran": Cell(gpu, NVFORTRAN_PROFILE)}))
    elif table == "figure3":
        w = get_workload(benchmarks[0] if benchmarks else "dotproduct")
        pipelines = (("scalar", {"vector_width": 0}),
                     ("vectorised", {"vector_width": 4}),
                     ("tiled+vectorised", {"vector_width": 4, "tile": True}))
        rows.append(_row(w.name, {}, {
            column: Cell(job("ours", w, options=options), OURS_PROFILE)
            for column, options in pipelines}))
    else:
        raise KeyError(f"unknown table {table!r} (choose from {ALL_TABLES})")
    return rows


def _jobs(rows: List[Row]) -> List[CompileJob]:
    """The rows' jobs, one per distinct spec (not per key: two specs that
    share a key are the claim the key tests check)."""
    jobs: Dict[Tuple, CompileJob] = {}
    for _, _, cells in rows:
        for cell in cells.values():
            for part in (cell.over, cell):
                if part is not None:
                    jobs.setdefault(tuple(part.job.spec().items()), part.job)
    return list(jobs.values())


def jobs_for(table: str,
             benchmarks: Optional[Sequence[str]] = None,
             engine: str = DEFAULT_ENGINE) -> List[CompileJob]:
    """The compile jobs one table's cells read."""
    return _jobs(_rows(table, benchmarks, engine))


def enumerate_jobs(tables: Optional[Sequence[str]] = None,
                   benchmarks: Optional[Sequence[str]] = None,
                   engine: str = DEFAULT_ENGINE) -> List[CompileJob]:
    return [job for table in tables or ALL_TABLES
            for job in jobs_for(table, benchmarks, engine)]


def _runtime(cell: Cell, artifacts: Dict[str, CompiledArtifact],
             perf: PerformanceModel) -> float:
    artifact = artifacts[cell.job.safe_key()]
    artifact.raise_for_failure()
    scaling = cell.job.resolve_workload().scaling()
    if cell.job.gpu:
        seconds = perf.gpu_runtime(artifact.stats, scaling,
                                   cell.profile).total_s
    else:
        seconds = perf.cpu_runtime(artifact.stats, scaling, cell.profile,
                                   threads=cell.job.threads).total_s
    if cell.over is None:
        return seconds
    return _runtime(cell.over, artifacts, perf) / seconds


def _evaluate(table: str, rows: List[Row],
              artifacts: Dict[str, CompiledArtifact],
              perf: PerformanceModel) -> ExperimentTable:
    title, columns = _TITLES[table]
    result = ExperimentTable(table, title, columns)
    for label, paper, cells in rows:
        measured = {}
        for column in columns:
            if column not in cells:
                measured[column] = math.nan
                continue
            try:
                measured[column] = _runtime(cells[column], artifacts, perf)
            except ServiceError as exc:
                raise TableError(f"{table} row {label!r} column "
                                 f"{column!r}: {exc}") from exc
        result.rows.append(ExperimentRow(label, measured, paper))
    return result


def run_tables(tables: Optional[Sequence[str]] = None,
               service: Optional[CompileService] = None,
               max_workers: Optional[int] = None,
               benchmarks: Optional[Sequence[str]] = None,
               engine: str = DEFAULT_ENGINE,
               incremental: bool = True) -> Dict[str, Any]:
    """Compile every cell's job in one batch, then evaluate the tables.

    The "tables" phase reads each unique artifact from the service once
    and compiles nothing the batch did not.  ``incremental=False`` turns
    off the per-function stage store for every job in the batch (compiles
    from scratch; artifact keys are unaffected).  Raises
    :class:`TableError` for a failed cell the paper did not report as DNC.

    Returns ``{"tables": {name: ExperimentTable}, "batch": BatchReport,
    "counters": {...}, "function_counters": {...}, "elapsed_s": {...}}``.
    """
    from . import get_default_service

    tables = tuple(tables or ALL_TABLES)
    service = service or get_default_service()
    rows = {table: _rows(table, benchmarks, engine) for table in tables}
    jobs = [job for table in tables for job in _jobs(rows[table])]
    if not incremental:
        for job in jobs:
            job.incremental = False

    t0 = time.perf_counter()
    batch: BatchReport = service.submit(jobs, max_workers=max_workers)
    t_batch = time.perf_counter() - t0

    t1 = time.perf_counter()
    artifacts: Dict[str, CompiledArtifact] = {}
    for job in jobs:
        key = job.safe_key()
        if key not in artifacts:
            artifacts[key] = service.execute(job)
    perf = PerformanceModel()
    results = {table: _evaluate(table, rows[table], artifacts, perf)
               for table in tables}
    t_tables = time.perf_counter() - t1

    return {"tables": results, "batch": batch, "counters": service.counters(),
            "function_counters": service.function_counters(),
            "jit_counters": service.jit_counters(),
            "elapsed_s": {"batch": t_batch, "tables": t_tables,
                          "total": t_batch + t_tables}}


def section4_profile(benchmark: str = "tfft", *,
                     service: Optional[CompileService] = None,
                     engine: str = DEFAULT_ENGINE) -> Dict[str, Dict[str, float]]:
    """Instruction-mix profile of a benchmark under both flows (Section IV)."""
    from . import get_default_service

    service = service or get_default_service()
    workload = get_workload(benchmark)
    profiles = {}
    for column, flow in (("flang-v20", "flang"), ("our-approach", "ours")):
        artifact = service.execute(CompileJob(flow, benchmark,
                                              workload=workload,
                                              engine=engine))
        artifact.raise_for_failure()
        profiles[column] = profile_stats(artifact.stats,
                                         workload.work_ratio()).as_dict()
    profiles["paper"] = paper_data.SECTION4_PROFILES.get(benchmark, {})
    return profiles


__all__ = ["ALL_TABLES", "Cell", "TableError", "jobs_for",
           "enumerate_jobs", "run_tables", "section4_profile"]
