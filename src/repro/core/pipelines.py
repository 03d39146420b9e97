"""Pass pipelines used by the standard-MLIR flow.

:func:`standard_flow_pipeline` is the whole flow after the Section V
conversion, up to the optimised standard-dialect module the machine
executes: the paper's own passes
(static shape recovery, descriptor-load hoisting, affine promotion,
super-vectorisation) between standard cleanups, with the threading / GPU
lowerings in front when asked for.  The conversions to the ``llvm`` dialect
that end the paper's Listing 1 and Figure 3 are not modelled (README quotes
both pipelines as text).
"""

from __future__ import annotations

from typing import List, Optional

# make sure every pass is registered before pipelines are parsed
from .. import transforms as _transforms  # noqa: F401
from ..ir.pass_manager import PassManager
from . import (acc_to_gpu as _acc, affine_transforms as _at,
               affine_vectorize as _av, alloca_scope as _as,
               branch_fixup as _bf, hoist_descriptor_loads as _hdl,
               scf_to_affine as _sta, scf_to_parallel as _stp,
               static_shapes as _ss)  # noqa: F401

#: Threading: convert eligible loops to scf.parallel and lower to OpenMP.
OPENMP_PIPELINE = (
    "builtin.module(convert-scf-for-to-parallel, convert-scf-to-openmp, "
    "canonicalize, cse)"
)

#: GPU offload via OpenACC (Section VI-C).
GPU_PIPELINE = (
    "builtin.module(convert-acc-to-gpu, convert-parallel-loops-to-gpu, "
    "canonicalize, cse)"
)


def optimise_pipeline(vector_width: int = 4, *, tile: bool = False,
                      tile_size: int = 32, unroll: int = 0) -> PassManager:
    """The standard-flow optimisation pipeline (tunable, Section VI)."""
    pm = PassManager()
    pm.add("canonicalize")
    pm.add("cse")
    pm.add("forward-scalar-stores")
    pm.add("canonicalize")
    pm.add("cse")
    pm.add("loop-invariant-code-motion")
    pm.add("insert-alloca-scopes")
    pm.add("recover-static-shapes")
    pm.add("hoist-allocatable-loads")
    pm.add("convert-linalg-to-loops")
    pm.add("raise-scf-to-affine")
    if tile:
        pm.add("affine-loop-tile", tile_size=tile_size)
    if unroll:
        pm.add("affine-loop-unroll", unroll_factor=unroll)
    # drop the now-dead scalar subscript arithmetic before vectorisation so
    # loop bodies contain only elementwise work
    pm.add("canonicalize")
    pm.add("cse")
    if vector_width and vector_width > 1:
        pm.add("affine-super-vectorize", virtual_vector_size=vector_width)
    pm.add("math-uplift-to-fma")
    pm.add("canonicalize")
    pm.add("cse")
    return pm


def standard_flow_pipeline(vector_width: int = 4, *, tile: bool = False,
                           tile_size: int = 32, unroll: int = 0,
                           parallelise: bool = False,
                           gpu: bool = False) -> PassManager:
    """The standard flow after the conversion as ONE op-anchored nest.

    The ``ours`` flow's pipeline text is ``convert-fir-to-standard`` followed
    by this nest (:meth:`repro.flows.builtin.OursFlow.pipeline`): every stage —
    the initial scalar cleanups, the optional GPU/OpenMP lowerings and the
    Section V/VI optimisation stage — is anchored per-``func.func`` (MLIR
    ``OpPassManager`` style).  All of these passes transform one function at
    a time, so anchoring the whole flow under one nest changes nothing about
    what runs; what it buys is the function-granular machinery in
    :mod:`repro.ir.pass_manager`: with a ``function_cache`` unchanged
    functions are spliced from the store instead of recompiled.  Running it yields a single
    :class:`~repro.ir.pass_manager.PassTimingReport` covering every stage.
    """
    pm = PassManager()
    # forward/eliminate the per-iteration loop-variable stores first so the
    # parallelisation and GPU lowerings see clean loop nests
    fn = pm.nest("func.func")
    for name in ("canonicalize", "cse", "forward-scalar-stores",
                 "canonicalize", "cse"):
        fn.add(name)
    if gpu:
        fn.passes.extend(gpu_pipeline().passes)
    if parallelise:
        fn.passes.extend(openmp_pipeline().passes)
    fn.passes.extend(optimise_pipeline(vector_width, tile=tile,
                                       tile_size=tile_size,
                                       unroll=unroll).passes)
    return pm


def openmp_pipeline() -> PassManager:
    return PassManager.from_pipeline(OPENMP_PIPELINE)


def gpu_pipeline() -> PassManager:
    return PassManager.from_pipeline(GPU_PIPELINE)


__all__ = [
    "OPENMP_PIPELINE", "GPU_PIPELINE", "optimise_pipeline",
    "standard_flow_pipeline", "openmp_pipeline", "gpu_pipeline",
]
