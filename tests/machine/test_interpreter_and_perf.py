"""Tests for the execution substrate: interpreter, machine models, profiler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import (ARCHER2, CRAY_PROFILE, FLANG_V20_PROFILE,
                           GNU_PROFILE, OURS_PROFILE, ExecutionStats,
                           FortranArray, Interpreter, PerformanceModel,
                           WorkloadScaling, profile_stats)
from repro.machine.values import Cell, ElementPtr

from ..conftest import last_value, ours_module, run_flang, run_ours


class TestValues:
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_fortran_array_column_major_indexing(self, shape, data):
        arr = FortranArray(shape)
        indices = [data.draw(st.integers(1, s)) for s in shape]
        # column-major: the first subscript varies fastest in storage
        flat, stride = 0, 1
        for index, extent in zip(indices, shape):
            flat += (index - 1) * stride
            stride *= extent
        ElementPtr(arr, flat=flat).store(42.5)
        assert arr.data[flat] == 42.5
        # the numpy view addresses the same element by its Fortran indices
        assert arr.as_numpy()[tuple(i - 1 for i in indices)] == 42.5

    def test_cell_and_element_ptr(self):
        cell = Cell(3)
        ptr = ElementPtr(cell)
        assert ptr.load() == 3
        ptr.store(7)
        assert cell.value == 7

    def test_element_ptr_flat_index(self):
        arr = FortranArray([4, 4])
        ptr = ElementPtr(arr, flat=5)
        ptr.store(9.0)
        assert arr.data[5] == 9.0


class TestInterpreter:
    def test_scalar_arithmetic_program(self):
        src = """
program p
  implicit none
  real(kind=8) :: x
  integer :: i
  x = 1.5d0
  i = 3
  x = x * real(i, 8) + 2.0d0 ** 2
  print *, x
end program p
"""
        assert last_value(run_flang(src)) == pytest.approx(8.5)
        assert last_value(run_ours(src)) == pytest.approx(8.5)

    def test_function_call_and_return_value(self, conditional_source):
        interp = run_ours(conditional_source)
        assert interp.printed[-1].split() == ["1", "2"]

    def test_stats_categories_populated(self, simple_program_source):
        interp = run_ours(simple_program_source)
        stats = interp.stats
        assert stats.total("float_arith") > 0
        assert stats.total("load") > 0
        assert stats.total("store") > 0
        assert stats.total_ops > 0

    def test_parallel_context_tracked(self):
        from repro.workloads import jacobi
        src = jacobi(openmp=True).source(scaled=True)
        interp = run_flang(src)
        assert interp.stats.parallel_regions > 0
        assert "parallel" in interp.stats.counts

    def test_gpu_context_tracked(self):
        from repro.workloads import pw_advection
        src = pw_advection(openacc=True).source(scaled=True)
        interp = run_ours(src, gpu=True)
        assert interp.stats.gpu_kernel_launches >= 1
        assert interp.stats.gpu_threads > 0

    def test_execution_limit(self, simple_program_source):
        from repro.machine import ExecutionLimitExceeded
        interp = Interpreter(ours_module(simple_program_source), max_ops=50)
        with pytest.raises(ExecutionLimitExceeded):
            interp.run_main()


class TestPerformanceModel:
    def _stats(self, **categories) -> ExecutionStats:
        stats = ExecutionStats()
        for key, value in categories.items():
            stats.counts["serial"][key] = value
        return stats

    def test_more_work_takes_longer(self):
        model = PerformanceModel()
        small = model.cpu_runtime(self._stats(float_arith=1e6, load=1e6),
                                  WorkloadScaling(work_ratio=1.0))
        large = model.cpu_runtime(self._stats(float_arith=1e6, load=1e6),
                                  WorkloadScaling(work_ratio=10.0))
        assert large.total_s > small.total_s

    def test_vectorised_counts_run_faster(self):
        model = PerformanceModel()
        scalar = self._stats(float_arith=8e6, load=8e6, store=2e6)
        vector = self._stats(vector_float=2e6, vector_load=2e6, vector_store=5e5)
        s = model.cpu_runtime(scalar, WorkloadScaling())
        v = model.cpu_runtime(vector, WorkloadScaling())
        assert v.total_s < s.total_s

    def test_cray_profile_beats_flang_profile_on_identical_counts(self):
        model = PerformanceModel()
        stats = self._stats(float_arith=5e6, load=6e6, store=2e6,
                            index_arith=8e6, loop_iter=1e6)
        cray = model.cpu_runtime(stats, WorkloadScaling(), CRAY_PROFILE)
        flang = model.cpu_runtime(stats, WorkloadScaling(), FLANG_V20_PROFILE)
        gnu = model.cpu_runtime(stats, WorkloadScaling(), GNU_PROFILE)
        assert cray.total_s < gnu.total_s < flang.total_s

    def test_threading_reduces_runtime_until_bandwidth_saturates(self):
        model = PerformanceModel()
        stats = self._stats(float_arith=2e7, load=2e7, store=5e6, loop_iter=1e6)
        scaling = WorkloadScaling(work_ratio=1.0, parallel_fraction=0.98,
                                  working_set_bytes=8e9)
        serial = model.cpu_runtime(stats, scaling, OURS_PROFILE, threads=1)
        t8 = model.cpu_runtime(stats, scaling, OURS_PROFILE, threads=8)
        t64 = model.cpu_runtime(stats, scaling, OURS_PROFILE, threads=64)
        assert t8.total_s < serial.total_s
        assert t64.total_s <= t8.total_s
        speedup_64 = serial.total_s / t64.total_s
        assert speedup_64 < 64  # bandwidth-bound: far from ideal scaling

    def test_cache_fit_allows_superlinear_scaling(self):
        """Working sets that drop into aggregate cache scale better (jacobi)."""
        model = PerformanceModel()
        stats = self._stats(float_arith=1e6, load=6e7, store=2e7, loop_iter=1e6)
        big = WorkloadScaling(parallel_fraction=0.99, working_set_bytes=100e9)
        small = WorkloadScaling(parallel_fraction=0.99, working_set_bytes=16e6)
        speed_big = model.cpu_runtime(stats, big, OURS_PROFILE, 1).total_s / \
            model.cpu_runtime(stats, big, OURS_PROFILE, 64).total_s
        speed_small = model.cpu_runtime(stats, small, OURS_PROFILE, 1).total_s / \
            model.cpu_runtime(stats, small, OURS_PROFILE, 64).total_s
        assert speed_small > speed_big

    def test_gpu_runtime_scales_with_work(self):
        model = PerformanceModel()
        stats = ExecutionStats()
        stats.counts["gpu"]["float_arith"] = 1e6
        stats.counts["gpu"]["load"] = 1e6
        stats.gpu_kernel_launches = 1
        small = model.gpu_runtime(stats, WorkloadScaling(work_ratio=1e3))
        large = model.gpu_runtime(stats, WorkloadScaling(work_ratio=1e4))
        assert large.total_s > small.total_s

    @given(st.floats(1.0, 1e6), st.floats(0.0, 1e6))
    @settings(max_examples=30, deadline=None)
    def test_runtime_is_positive_and_monotone_in_flops(self, flops, loads):
        model = PerformanceModel()
        base = self._stats(float_arith=flops, load=loads)
        more = self._stats(float_arith=flops * 2 + 1, load=loads)
        t_base = model.cpu_runtime(base, WorkloadScaling()).total_s
        t_more = model.cpu_runtime(more, WorkloadScaling()).total_s
        assert t_base > 0
        assert t_more >= t_base


class TestProfiler:
    def test_flang_profile_is_scalar_ours_is_vectorised(self):
        """Section IV: Flang's executables are entirely scalar; the standard
        flow vectorises the stencil loops."""
        from repro.workloads import jacobi
        src = jacobi().source(scaled=True)
        flang_mix = profile_stats(run_flang(src).stats)
        ours_mix = profile_stats(run_ours(src).stats)
        assert flang_mix.vectorised_fp_fraction == 0.0
        assert ours_mix.vectorised_fp_fraction > 0.0
        assert flang_mix.total_instructions > ours_mix.total_instructions
