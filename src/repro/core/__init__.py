"""The paper's primary contribution: Flang HLFIR/FIR -> standard MLIR flow.

Contains the Section V mapping (``fir_to_standard``), the paper's own
optimisation passes (static shape recovery, allocatable-descriptor load
hoisting, scf->affine promotion, affine super-vectorisation, tiling and
unrolling, scf->parallel, OpenACC->GPU) and the flow's pass pipelines
(Figure 2); the ``ours`` flow (:mod:`repro.flows.builtin`) runs them.
"""

from .acc_to_gpu import ConvertAccToGpuPass
from .affine_transforms import AffineLoopTilePass, AffineLoopUnrollPass
from .affine_vectorize import AffineSuperVectorizePass, LoopVectorizer
from .alloca_scope import AllocaScopePass, wrap_in_alloca_scope
from .branch_fixup import BranchFixupPass, fixup_branches
from .fir_to_standard import (ConversionError, ConvertFirToStandardPass,
                              FirToStandardLowering, convert_fir_to_standard)
from .hoist_descriptor_loads import (HoistDescriptorLoadsPass,
                                     hoist_descriptor_loads)
from .pipelines import (GPU_PIPELINE, OPENMP_PIPELINE, gpu_pipeline,
                        openmp_pipeline, optimise_pipeline)
from .scf_to_affine import ScfToAffinePass
from .scf_to_parallel import ScfForToParallelPass, convert_loop_to_parallel
from .static_shapes import StaticShapeRecoveryPass

__all__ = [
    "ConvertAccToGpuPass", "AffineLoopTilePass", "AffineLoopUnrollPass",
    "AffineSuperVectorizePass", "LoopVectorizer", "AllocaScopePass",
    "wrap_in_alloca_scope", "BranchFixupPass", "fixup_branches",
    "ConversionError",
    "ConvertFirToStandardPass", "FirToStandardLowering",
    "convert_fir_to_standard", "HoistDescriptorLoadsPass",
    "hoist_descriptor_loads", "GPU_PIPELINE", "OPENMP_PIPELINE",
    "gpu_pipeline", "openmp_pipeline", "optimise_pipeline", "ScfToAffinePass", "ScfForToParallelPass",
    "convert_loop_to_parallel", "StaticShapeRecoveryPass",
]
