"""Runtime estimation from dynamic operation counts.

The interpreter executes each compiled benchmark at a *reduced* problem size
and records dynamic operation counts per category and context; this module
converts those counts into a modeled wall-clock time at the *paper's* problem
size by

1. scaling the counts by the workload's work ratio (full size / interpreted
   size — linear for stencils per sweep, cubic for matmul, ...),
2. applying a compiler capability profile (vectorisation fraction, address
   arithmetic overhead, runtime-library usage) for the reference compilers
   that we cannot rebuild, and the identity profile for the two flows we do
   build (their differences are already structural, visible in the counts),
3. feeding the scaled counts through a simple issue/bandwidth machine model
   (compute-bound vs memory-bound roofline, OpenMP fork/join and bandwidth
   saturation for threading, kernel launch plus HBM roofline for GPU).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from .interpreter import ExecutionStats
from .models import (ARCHER2, CIRRUS_V100, CompilerProfile, CPUModel,
                     GPUModel, OURS_PROFILE)


@dataclass
class WorkloadScaling:
    """How interpreted work relates to full-size work."""

    work_ratio: float = 1.0          # full work units / interpreted work units
    bytes_per_element: float = 8.0
    #: working set at full size (bytes) — drives the memory-bound model
    working_set_bytes: float = 0.0
    #: fraction of dynamic work that is inside parallel regions when threaded
    parallel_fraction: float = 0.95


@dataclass
class RuntimeBreakdown:
    compute_s: float = 0.0
    memory_s: float = 0.0
    runtime_library_s: float = 0.0
    overhead_s: float = 0.0
    total_s: float = 0.0
    bound: str = "compute"

    def as_dict(self) -> Dict[str, float]:
        return {"compute_s": self.compute_s, "memory_s": self.memory_s,
                "runtime_library_s": self.runtime_library_s,
                "overhead_s": self.overhead_s, "total_s": self.total_s}


class PerformanceModel:
    """Converts execution statistics into modeled runtimes."""

    def __init__(self, cpu: CPUModel = ARCHER2, gpu: GPUModel = CIRRUS_V100):
        self.cpu = cpu
        self.gpu = gpu

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _scaled(stats: ExecutionStats, category: str, ratio: float,
                contexts=None) -> float:
        return stats.total(category, contexts) * ratio

    # ------------------------------------------------------------------ CPU serial
    def cpu_runtime(self, stats: ExecutionStats, scaling: WorkloadScaling,
                    profile: CompilerProfile = OURS_PROFILE,
                    threads: int = 1) -> RuntimeBreakdown:
        cpu = self.cpu
        r = scaling.work_ratio
        contexts = None  # all contexts

        scalar_fp = (self._scaled(stats, "float_arith", r, contexts)
                     + self._scaled(stats, "float_fma", r, contexts)
                     + self._scaled(stats, "cmp", r, contexts) * 0.5)
        vector_fp = (self._scaled(stats, "vector_float", r, contexts)
                     + self._scaled(stats, "vector_int", r, contexts) * 0.5)
        math_fp = self._scaled(stats, "float_math", r, contexts)
        int_ops = (self._scaled(stats, "int_arith", r, contexts)
                   + self._scaled(stats, "index_arith", r, contexts)
                   + self._scaled(stats, "cast", r, contexts) * 0.5)
        loads = self._scaled(stats, "load", r, contexts)
        stores = self._scaled(stats, "store", r, contexts)
        vloads = self._scaled(stats, "vector_load", r, contexts)
        vstores = self._scaled(stats, "vector_store", r, contexts)
        array_elems = self._scaled(stats, "array_assign_elements", r, contexts) + \
            self._scaled(stats, "linalg_elements", r, contexts)
        branches = (self._scaled(stats, "branch", r, contexts)
                    + self._scaled(stats, "loop_iter", r, contexts))
        runtime_elems = self._scaled(stats, "runtime_elem", r, contexts)
        runtime_calls = sum(stats.runtime_calls.values())
        allocs = stats.total("alloc") + stats.total("free")

        # apply the compiler capability profile (structural rescaling for the
        # reference compilers; identity for the flows whose IR we actually ran)
        if profile.vector_fraction > 0 and profile.vector_width > 1 and vector_fp == 0:
            moved = scalar_fp * profile.vector_fraction
            scalar_fp -= moved
            vector_fp += moved / profile.vector_width
            moved_mem = (loads + stores) * profile.vector_fraction
            loads -= moved_mem * (loads / max(loads + stores, 1.0))
            stores -= moved_mem * (stores / max(loads + stores, 1.0))
            vloads += moved_mem / profile.vector_width
        int_ops *= profile.index_overhead
        loads *= profile.memory_overhead
        stores *= profile.memory_overhead
        branches *= profile.loop_overhead

        # compute time (cycles)
        cycles = (scalar_fp / cpu.scalar_flops_per_cycle
                  + vector_fp / cpu.vector_ops_per_cycle
                  + math_fp * cpu.math_func_cycles
                  + int_ops / cpu.int_ops_per_cycle
                  + (loads + stores) / cpu.mem_ops_per_cycle
                  + (vloads + vstores) / cpu.mem_ops_per_cycle
                  + array_elems * (1.0 / profile.runtime_efficiency)
                  + branches * cpu.branch_cycles)
        runtime_cycles = (runtime_elems * 2.0 / profile.runtime_efficiency
                          + runtime_calls * cpu.runtime_call_cycles)
        compute_s = cycles * cpu.cycle_time_s
        runtime_library_s = runtime_cycles * cpu.cycle_time_s

        # memory time (roofline); a single core cannot saturate the socket,
        # so serial runs see the per-core sustainable bandwidth
        bytes_moved = (loads + stores + array_elems + runtime_elems
                       + (vloads + vstores) * profile.vector_width
                       ) * scaling.bytes_per_element
        serial_bw = cpu.per_core_bandwidth_gbs * 1e9 * profile.bandwidth_efficiency
        bandwidth = serial_bw if threads <= 1 else \
            cpu.dram_bandwidth_gbs * 1e9 * profile.bandwidth_efficiency
        memory_s = bytes_moved / bandwidth
        overhead_s = allocs * 400 * cpu.cycle_time_s

        serial_total = max(compute_s, memory_s) + runtime_library_s + overhead_s
        if threads <= 1:
            return RuntimeBreakdown(compute_s, memory_s, runtime_library_s,
                                    overhead_s, serial_total,
                                    "memory" if memory_s > compute_s else "compute")
        return self._threaded(stats, scaling, profile, threads, compute_s,
                              memory_s, runtime_library_s, overhead_s)

    # ------------------------------------------------------------------ threading
    def _threaded(self, stats, scaling, profile, threads, compute_s, memory_s,
                  runtime_library_s, overhead_s) -> RuntimeBreakdown:
        cpu = self.cpu
        par = scaling.parallel_fraction
        serial_part = (compute_s + runtime_library_s) * (1 - par)
        parallel_compute = compute_s * par * profile.omp_body_overhead / threads

        # memory: bandwidth is shared; but when the per-thread working set
        # drops below the aggregate cache, bandwidth pressure falls away
        # (this is what lets jacobi scale super-linearly at 64 cores).
        working_set = scaling.working_set_bytes
        cache_bytes = cpu.llc_per_core_mib * 1024 * 1024 * threads
        if working_set > 0 and working_set < cache_bytes:
            cache_factor = max(0.08, working_set / cache_bytes)
        else:
            cache_factor = 1.0
        shared_bw_s = memory_s * par * cache_factor
        # bandwidth saturates: only ~8-10 cores worth of streams saturate a socket
        bw_scaling = min(threads, 10.0) * (self.cpu.dram_bandwidth_gbs /
                                           (self.cpu.per_core_bandwidth_gbs * 10.0))
        parallel_memory = shared_bw_s / bw_scaling + memory_s * (1 - par)

        fork_join_s = cpu.omp_fork_cycles * cpu.cycle_time_s * max(
            1, stats.parallel_regions)
        total = serial_part + max(parallel_compute, parallel_memory) + \
            fork_join_s + overhead_s
        return RuntimeBreakdown(parallel_compute, parallel_memory,
                                runtime_library_s * (1 - par), fork_join_s + overhead_s,
                                total, "memory" if parallel_memory > parallel_compute
                                else "compute")

    # ------------------------------------------------------------------ GPU
    def gpu_runtime(self, stats: ExecutionStats, scaling: WorkloadScaling,
                    profile: CompilerProfile = OURS_PROFILE) -> RuntimeBreakdown:
        gpu = self.gpu
        r = scaling.work_ratio
        gpu_ctx = ["gpu"]
        flops = (self._scaled(stats, "float_arith", r, gpu_ctx)
                 + self._scaled(stats, "float_fma", r, gpu_ctx) * 2
                 + self._scaled(stats, "float_math", r, gpu_ctx) * 4
                 + self._scaled(stats, "vector_float", r, gpu_ctx) * 4)
        mem_ops = (self._scaled(stats, "load", r, gpu_ctx)
                   + self._scaled(stats, "store", r, gpu_ctx)
                   + (self._scaled(stats, "vector_load", r, gpu_ctx)
                      + self._scaled(stats, "vector_store", r, gpu_ctx)) * 4)
        bytes_moved = mem_ops * scaling.bytes_per_element
        compute_s = flops / (gpu.fp64_tflops * 1e12 * gpu.efficiency)
        memory_s = bytes_moved / (gpu.hbm_bandwidth_gbs * 1e9 * profile.bandwidth_efficiency)
        launches = max(1, stats.gpu_kernel_launches)
        overhead_s = launches * gpu.kernel_launch_us * 1e-6
        overhead_s += (scaling.working_set_bytes / 2 ** 30) * \
            gpu.host_register_ms_per_gib * 1e-3
        # host-side (serial) part of the program
        host = self.cpu_runtime(stats, WorkloadScaling(work_ratio=r,
                                                       working_set_bytes=scaling.working_set_bytes),
                                profile, threads=1)
        host_serial_s = 0.05 * host.total_s
        total = max(compute_s, memory_s) + overhead_s + host_serial_s
        return RuntimeBreakdown(compute_s, memory_s, 0.0, overhead_s, total,
                                "memory" if memory_s > compute_s else "compute")


__all__ = ["PerformanceModel", "RuntimeBreakdown", "WorkloadScaling"]
