"""The built-in compilation flows: baseline ``flang`` and the paper's ``ours``.

Each is data: a name, an options schema, a capability check and a function
from options to pipeline text; :meth:`~repro.flows.base.Flow.compile` drives
both.  Everything flow-specific lives here, so the service and the table
spec contain no per-flow branches.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .base import ExecutionContext, Flow, FlowOption, OptionsSchema
from .registry import register_flow


@register_flow
class FlangFlow(Flow):
    """Baseline Flang: HLFIR -> FIR, bespoke code generation (Figure 1).

    Executed at the FIR level.  Takes no pipeline options, so jobs that
    differ only in standard-flow options deduplicate to one artifact.

    The pipeline stays module-anchored, so ``flang`` compiles never reach
    the function store or its unit memo: with ``convert-hlfir-to-fir``
    anchored on ``func.func``, fingerprinting, cloning and storing every
    ``flang`` function made cold table runs 25 % slower.
    """

    name = "flang"
    description = ("baseline Flang v20: HLFIR -> FIR, bespoke code "
                   "generation, runtime-library intrinsics (Figure 1)")
    schema = OptionsSchema()
    snapshot_stages = {"hlfir": None}
    final_stage = "fir"

    def check_capabilities(self, workload, execution: ExecutionContext) -> None:
        if execution.gpu or workload.uses_openacc:
            # Section VI-C: Flang v18 ICEs on OpenACC lowering
            from ..flang import FlangCodegenError
            raise FlangCodegenError(
                "missing LLVMTranslationDialectInterface for the acc dialect")

    def pipeline(self, options: Dict[str, Any]) -> str:
        return "builtin.module(convert-hlfir-to-fir)"


@register_flow
class OursFlow(Flow):
    """The paper's flow: HLFIR/FIR -> standard MLIR -> optimised IR (Fig. 2).

    Executed at the optimised standard-dialect level.  ``parallelise`` and
    ``gpu`` are derived from the execution context and the workload (OpenMP
    sources parallelise themselves; OpenACC forces the GPU lowering), so
    they are canonical key material but not user-settable options.
    """

    name = "ours"
    description = ("the paper's flow: Flang frontend -> standard MLIR "
                   "dialects -> optimisation passes (Figure 2, Listing 1)")
    schema = OptionsSchema(
        FlowOption("vector_width", int, 4,
                   "affine super-vectorisation width (0 disables)"),
        FlowOption("tile", bool, False, "affine loop tiling"),
        FlowOption("tile_size", int, 32, "tile size when tiling"),
        FlowOption("unroll", int, 0, "affine loop unroll factor (0 disables)"),
    )
    snapshot_stages = {"hlfir": None, "standard": "convert-fir-to-standard"}
    final_stage = "optimised"

    def normalise_options(self, options: Optional[Dict[str, Any]], workload,
                          execution: ExecutionContext) -> Dict[str, Any]:
        normalised = self.schema.coerce(options, strict=False)
        normalised["parallelise"] = (execution.parallel
                                     and not workload.uses_openmp)
        normalised["gpu"] = execution.gpu or workload.uses_openacc
        return normalised

    def pipeline(self, options: Dict[str, Any]) -> str:
        """The Section V conversion, then the optimisation nest."""
        from ..core import pipelines
        from ..core.fir_to_standard import ConvertFirToStandardPass
        pm = pipelines.standard_flow_pipeline(**options)
        pm.passes.insert(0, ConvertFirToStandardPass())
        return pm.describe()


__all__ = ["FlangFlow", "OursFlow"]
