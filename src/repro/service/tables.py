"""Batch API: drive the paper's tables through the compilation service.

:func:`enumerate_jobs` expands each table into the exact set of
(workload x flow x options) jobs its measurements need; :func:`run_tables`
warms the cache with one deduplicated parallel batch, then regenerates the
tables — whose adapters hit the same service — without recompiling
anything.  The harness is imported lazily to keep ``repro.service`` a leaf
package that :mod:`repro.compilers` can depend on.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from ..flows import DEFAULT_ENGINE
from .jobs import CompileJob
from .scheduler import BatchReport, CompileService
from .tuning import (TABLE3_THREADED, TABLE3_THREADS, TABLE5_GRID_SIZES,
                     table3_options)

#: Every flow the batch API can regenerate, in presentation order.
ALL_TABLES = ("table1", "table2", "table3", "table4", "table5", "figure3")


def _filtered(workloads, benchmarks: Optional[Sequence[str]]):
    for workload in workloads:
        if benchmarks is None or workload.name in benchmarks:
            yield workload


def jobs_for(table: str,
             benchmarks: Optional[Sequence[str]] = None,
             engine: str = DEFAULT_ENGINE) -> List[CompileJob]:
    """The compile jobs one table's measurements will request."""
    from ..workloads import (intrinsic_workloads, table1_workloads,
                             table2_workloads)

    jobs: List[CompileJob] = []
    if table == "table1":
        # one flang artifact per workload feeds all four reference columns
        for w in _filtered(table1_workloads(), benchmarks):
            jobs.append(CompileJob("flang", w.name, workload=w,
                                   engine=engine))
    elif table == "table2":
        for w in _filtered(table2_workloads(), benchmarks):
            jobs.append(CompileJob("ours", w.name, workload=w, engine=engine))
            jobs.append(CompileJob("flang", w.name, workload=w,
                                   engine=engine))
    elif table == "table3":
        for w in _filtered(intrinsic_workloads(), benchmarks):
            opts = table3_options(w.name)
            jobs.append(CompileJob("ours", w.name, workload=w, options=opts,
                                   engine=engine))
            jobs.append(CompileJob("flang", w.name, workload=w,
                                   engine=engine))
            if w.name in TABLE3_THREADED:
                jobs.append(CompileJob("ours", w.name, workload=w,
                                       threads=TABLE3_THREADS, options=opts,
                                       engine=engine))
    elif table == "table4":
        for name in ("jacobi", "pw-advection"):
            kwargs = (("openmp", True),)
            for flow in ("ours", "flang"):
                jobs.append(CompileJob(flow, name, workload_kwargs=kwargs,
                                       engine=engine))
                # all core counts share one parallel-bucket artifact
                jobs.append(CompileJob(flow, name, workload_kwargs=kwargs,
                                       threads=2, engine=engine))
    elif table == "table5":
        for cells in TABLE5_GRID_SIZES:
            kwargs = (("openacc", True), ("grid_cells", cells))
            # ours and the modeled nvfortran column share this artifact
            jobs.append(CompileJob("ours", "pw-advection",
                                   workload_kwargs=kwargs, gpu=True,
                                   engine=engine))
    elif table == "figure3":
        name = benchmarks[0] if benchmarks else "dotproduct"
        jobs.append(CompileJob("ours", name, options={"vector_width": 0},
                               engine=engine))
        jobs.append(CompileJob("ours", name, options={"vector_width": 4},
                               engine=engine))
        jobs.append(CompileJob("ours", name,
                               options={"vector_width": 4, "tile": True},
                               engine=engine))
    else:
        raise KeyError(f"unknown table {table!r} (choose from {ALL_TABLES})")
    return jobs


def enumerate_jobs(tables: Optional[Sequence[str]] = None,
                   benchmarks: Optional[Sequence[str]] = None,
                   engine: str = DEFAULT_ENGINE) -> List[CompileJob]:
    jobs: List[CompileJob] = []
    for table in tables or ALL_TABLES:
        jobs.extend(jobs_for(table, benchmarks, engine))
    return jobs


def run_tables(tables: Optional[Sequence[str]] = None,
               service: Optional[CompileService] = None,
               max_workers: Optional[int] = None,
               benchmarks: Optional[Sequence[str]] = None,
               engine: str = DEFAULT_ENGINE,
               incremental: bool = True) -> Dict[str, Any]:
    """Warm the cache in one parallel batch, then regenerate the tables.

    ``incremental=False`` turns off the per-function stage store for every
    job in the batch (compiles from scratch; artifact keys are unaffected).

    Returns ``{"tables": {name: ExperimentTable}, "batch": BatchReport,
    "counters": {...}, "function_counters": {...}, "elapsed_s": {...}}``.
    """
    from . import get_default_service, use_service
    from ..harness import experiments

    tables = tuple(tables or ALL_TABLES)
    service = service or get_default_service()

    jobs = enumerate_jobs(tables, benchmarks, engine)
    if not incremental:
        for job in jobs:
            job.incremental = False

    t0 = time.perf_counter()
    batch: BatchReport = service.submit(jobs, max_workers=max_workers)
    t_batch = time.perf_counter() - t0

    producers = {
        "table1": lambda: experiments.table1(benchmarks, engine=engine),
        "table2": lambda: experiments.table2(benchmarks, engine=engine),
        "table3": lambda: experiments.table3(benchmarks, engine=engine),
        "table4": lambda: experiments.table4(engine=engine),
        "table5": lambda: experiments.table5(TABLE5_GRID_SIZES,
                                             engine=engine),
        "figure3": lambda: experiments.figure3_vectorization(
            benchmarks[0] if benchmarks else "dotproduct", engine=engine),
    }
    results: Dict[str, Any] = {}
    t1 = time.perf_counter()
    with use_service(service):
        for table in tables:
            results[table] = producers[table]()
    t_tables = time.perf_counter() - t1

    return {"tables": results, "batch": batch, "counters": service.counters(),
            "function_counters": service.function_counters(),
            "jit_counters": service.jit_counters(),
            "elapsed_s": {"batch": t_batch, "tables": t_tables,
                          "total": t_batch + t_tables}}


__all__ = ["ALL_TABLES", "jobs_for", "enumerate_jobs", "run_tables"]
