"""Tests for the paper's optimisation passes (Section VI)."""

import pytest

from repro.core import convert_fir_to_standard
from repro.ir.pass_manager import PassManager
from repro.ir.printer import print_op

from ..conftest import last_value, ours_module, run_flang, run_ours


ALLOCATABLE_STENCIL = """
program p
  implicit none
  integer, parameter :: n = 32
  real(kind=8), dimension(:,:), allocatable :: u, v
  real(kind=8) :: t
  integer :: i, j
  allocate(u(n, n), v(n, n))
  do j = 1, n
    do i = 1, n
      u(i, j) = real(i + j, 8)
    end do
  end do
  do j = 2, n - 1
    do i = 2, n - 1
      v(i, j) = 0.25d0 * (u(i - 1, j) + u(i + 1, j) + u(i, j - 1) + u(i, j + 1))
    end do
  end do
  t = sum(v)
  print *, t
end program p
"""


class TestStaticShapeRecovery:
    def test_dynamic_memrefs_become_static(self):
        module = ours_module(ALLOCATABLE_STENCIL, vector_width=0)
        text = print_op(module)
        assert "memref<32x32xf64>" in text

    def test_reallocated_arrays_stay_dynamic(self):
        src = """
program p
  implicit none
  real(kind=8), dimension(:), allocatable :: x
  allocate(x(8))
  x(1) = 1.0d0
  deallocate(x)
  allocate(x(16))
  x(2) = 2.0d0
  print *, x(2)
end program p
"""
        module = ours_module(src, vector_width=0)
        text = print_op(module)
        assert "memref<?xf64>" in text

    def test_semantics_preserved(self):
        assert last_value(run_flang(ALLOCATABLE_STENCIL)) == \
            pytest.approx(last_value(run_ours(ALLOCATABLE_STENCIL)))


class TestDescriptorLoadHoisting:
    def test_container_loads_hoisted_out_of_loops(self):
        module = ours_module(ALLOCATABLE_STENCIL, vector_width=0)
        # inside every affine/scf loop body there should be no loads of the
        # outer memref-of-memref containers left
        for op in module.walk():
            if op.name in ("scf.for", "affine.for"):
                for inner in op.walk():
                    if inner.name == "memref.load":
                        source_type = inner.operands[0].type
                        if source_type.rank == 0:
                            assert not hasattr(source_type.element_type, "rank") or \
                                not isinstance(source_type.element_type,
                                               type(source_type)), \
                                "outer-memref dereference left inside a loop"


class TestVectorisation:
    def test_stencil_loop_is_vectorised(self):
        module = ours_module(ALLOCATABLE_STENCIL, vector_width=4)
        names = {op.name for op in module.walk()}
        assert "vector.load" in names or "vector.store" in names

    def test_vector_width_respected(self):
        module = ours_module(ALLOCATABLE_STENCIL, vector_width=4)
        text = print_op(module)
        assert "vector<4xf64>" in text

    def test_disabled_vectorisation_produces_no_vector_ops(self):
        module = ours_module(ALLOCATABLE_STENCIL, vector_width=0)
        names = {op.name for op in module.walk()}
        assert not any(n.startswith("vector.") for n in names)

    def test_reduction_loop_uses_vector_reduction(self):
        src = """
program p
  implicit none
  integer, parameter :: n = 64
  real(kind=8), dimension(n) :: x, y
  real(kind=8) :: acc
  integer :: i
  do i = 1, n
    x(i) = real(i, 8)
    y(i) = 2.0d0
  end do
  acc = 0.0d0
  do i = 1, n
    acc = acc + x(i) * y(i)
  end do
  print *, acc
end program p
"""
        module = ours_module(src, vector_width=4)
        names = {op.name for op in module.walk()}
        assert "vector.reduction" in names
        assert last_value(run_ours(src)) == pytest.approx(
            sum(i * 2.0 for i in range(1, 65)))

    def test_vectorised_results_match_scalar(self):
        scalar = last_value(run_ours(ALLOCATABLE_STENCIL, vector_width=0))
        vectorised = last_value(run_ours(ALLOCATABLE_STENCIL, vector_width=4))
        assert scalar == pytest.approx(vectorised)


class TestParallelisationAndFMA:
    def test_scf_parallel_and_openmp_lowering(self):
        module = ours_module(ALLOCATABLE_STENCIL, vector_width=0, threads=2)
        names = {op.name for op in module.walk()}
        assert "omp.parallel" in names and "omp.wsloop" in names

    def test_reduction_loops_not_parallelised(self):
        """The paper's simple scf.parallel conversion skips reductions."""
        src = """
program p
  implicit none
  real(kind=8), dimension(64) :: x
  real(kind=8) :: acc
  integer :: i
  do i = 1, 64
    x(i) = 1.0d0
  end do
  acc = 0.0d0
  do i = 1, 64
    acc = acc + x(i)
  end do
  print *, acc
end program p
"""
        module = ours_module(src, vector_width=0, threads=2)
        # the accumulation loop must stay serial: at least one scf.for remains
        parallel_bodies = [op for op in module.walk() if op.name == "omp.wsloop"]
        serial_loops = [op for op in module.walk() if op.name in ("scf.for", "affine.for")]
        assert serial_loops, "reduction loop was incorrectly parallelised"

    def test_fma_uplift(self):
        src = """
program p
  implicit none
  real(kind=8), dimension(32) :: x, y
  real(kind=8) :: alpha
  integer :: i
  alpha = 1.5d0
  do i = 1, 32
    x(i) = real(i, 8)
    y(i) = 2.0d0
  end do
  do i = 1, 32
    y(i) = y(i) + alpha * x(i)
  end do
  print *, y(32)
end program p
"""
        module = ours_module(src, vector_width=0)
        names = {op.name for op in module.walk()}
        assert "math.fma" in names

    def test_tiling_marks_loops(self):
        from repro.workloads import get_workload
        w = get_workload("matmul")
        module = ours_module(w.source(scaled=True), vector_width=0, tile=True)
        tiled = [op for op in module.walk()
                 if op.name in ("affine.for", "scf.for") and op.get_attr("tiled")]
        assert tiled


class TestGPULowering:
    def test_acc_kernels_become_gpu_launch(self):
        from repro.workloads import pw_advection
        src = pw_advection(openacc=True).source(scaled=True)
        module = ours_module(src, vector_width=0, gpu=True)
        names = {op.name for op in module.walk()}
        assert "gpu.launch" in names
        assert "gpu.host_register" in names
        assert not any(n.startswith("acc.") for n in names)

    def test_gpu_results_match_cpu(self):
        from repro.workloads import pw_advection
        cpu_src = pw_advection(openacc=False).source(scaled=True)
        gpu_src = pw_advection(openacc=True).source(scaled=True)
        assert last_value(run_ours(cpu_src)) == pytest.approx(
            last_value(run_ours(gpu_src, gpu=True)))

    def test_flang_raises_internal_error_on_openacc(self):
        """Section VI-C: Flang v18 ICEs with a missing
        LLVMTranslationDialectInterface when OpenACC is used."""
        from repro.flang import FlangCodegenError
        from repro.flows import get_flow
        from repro.workloads import pw_advection
        with pytest.raises(FlangCodegenError,
                           match="LLVMTranslationDialectInterface"):
            get_flow("flang").run(pw_advection(openacc=True))
