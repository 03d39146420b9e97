"""Pass pipelines used by the standard-MLIR flow.

``BASE_PIPELINE`` is the mlir-opt invocation of Listing 1; the vectorisation
flow of Figure 3 and the threading / GPU flows extend it with the additional
passes developed by the paper.
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

#: Listing 1: the base mlir-opt pipeline lowering the standard dialects to llvm.
BASE_PIPELINE = (
    "builtin.module(canonicalize, cse, loop-invariant-code-motion, "
    "convert-linalg-to-loops, convert-scf-to-cf, "
    "convert-cf-to-llvm{index-bitwidth=64}, fold-memref-alias-ops, "
    "lower-affine, finalize-memref-to-llvm, "
    "convert-arith-to-llvm{index-bitwidth=64}, convert-func-to-llvm, "
    "math-uplift-to-fma, convert-math-to-llvm, fold-memref-alias-ops, "
    "lower-affine, finalize-memref-to-llvm, reconcile-unrealized-casts)"
)

#: The optimisation stage run before lowering to llvm: the paper's own passes
#: (static shape recovery, descriptor-load hoisting, affine promotion,
#: super-vectorisation) followed by cleanups.  This is the IR level the
#: machine model consumes.
OPTIMISE_PIPELINE = (
    "builtin.module(canonicalize, cse, loop-invariant-code-motion, "
    "recover-static-shapes, hoist-allocatable-loads, "
    "convert-linalg-to-loops, raise-scf-to-affine, "
    "affine-super-vectorize{virtual-vector-size=4}, "
    "math-uplift-to-fma, canonicalize, cse)"
)

#: Figure 3: vectorisation pipeline from affine down to llvm.
VECTORIZE_PIPELINE = (
    "builtin.module(affine-super-vectorize{virtual-vector-size=4}, "
    "lower-affine, convert-scf-to-cf, "
    "convert-vector-to-llvm{enable-x86vector}, "
    "convert-cf-to-llvm{index-bitwidth=64}, finalize-memref-to-llvm, "
    "convert-arith-to-llvm{index-bitwidth=64}, convert-func-to-llvm, "
    "reconcile-unrealized-casts)"
)

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


def base_pipeline() -> PassManager:
    return PassManager.from_pipeline(BASE_PIPELINE)


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
                           gpu: bool = False, **_ignored) -> PassManager:
    """The whole standard flow as ONE op-anchored nested pipeline.

    This is what the ``ours`` flow's pipeline builder returns: every stage —
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


def to_llvm_pipeline() -> PassManager:
    """The tail of Listing 1: lower everything that remains to the llvm dialect."""
    return PassManager.from_pipeline(
        "builtin.module(lower-affine, convert-scf-to-cf, "
        "convert-vector-to-llvm{enable-x86vector}, "
        "convert-cf-to-llvm{index-bitwidth=64}, fold-memref-alias-ops, "
        "finalize-memref-to-llvm, convert-arith-to-llvm{index-bitwidth=64}, "
        "convert-func-to-llvm, convert-math-to-llvm, "
        "reconcile-unrealized-casts)")


__all__ = [
    "BASE_PIPELINE", "OPTIMISE_PIPELINE", "VECTORIZE_PIPELINE",
    "OPENMP_PIPELINE", "GPU_PIPELINE", "base_pipeline", "optimise_pipeline",
    "standard_flow_pipeline", "openmp_pipeline", "gpu_pipeline",
    "to_llvm_pipeline",
]
