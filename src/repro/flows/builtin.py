"""The built-in compilation flows: baseline ``flang`` and the paper's ``ours``.

Each is a one-object registration over the corresponding driver; everything
flow-specific (capability checks, options, pipelines, stage names) lives
here, so the service and the table spec contain no per-flow branches.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ..ir.pass_manager import PassInstrumentation, PassManager
from .base import (ExecutionContext, Flow, FlowOption, FlowResult,
                   OptionsSchema)
from .registry import register_flow


@register_flow
class FlangFlow(Flow):
    """Baseline Flang: HLFIR -> FIR, bespoke code generation (Figure 1).

    Executed at the FIR level.  Takes no pipeline options, so jobs that
    differ only in standard-flow options deduplicate to one artifact.
    """

    name = "flang"
    description = ("baseline Flang v20: HLFIR -> FIR, bespoke code "
                   "generation, runtime-library intrinsics (Figure 1)")
    schema = OptionsSchema()
    snapshot_stages = ("hlfir",)

    def check_capabilities(self, workload, execution: ExecutionContext) -> None:
        if execution.gpu or workload.uses_openacc:
            # Section VI-C: Flang v18 ICEs on OpenACC lowering
            from ..flang import FlangCodegenError
            raise FlangCodegenError(
                "missing LLVMTranslationDialectInterface for the acc dialect")

    def pipeline(self, options: Dict[str, Any]) -> Optional[PassManager]:
        from ..flang.hlfir_to_fir import ConvertHlfirToFirPass
        return PassManager([ConvertHlfirToFirPass()])

    def compile(self, workload, options: Dict[str, Any],
                execution: ExecutionContext, *,
                verify_each: bool = False,
                collect_statistics: bool = True,
                instrumentation: Sequence[PassInstrumentation] = (),
                stages: Sequence[str] = ()) -> FlowResult:
        from ..flang import FlangCompiler
        compiler = FlangCompiler(verify_each=verify_each,
                                 collect_statistics=collect_statistics,
                                 instrumentations=instrumentation)
        return compiler.compile(workload.source(scaled=True), stop_at="fir",
                                stages=stages)


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
    snapshot_stages = ("hlfir", "standard")

    def normalise_options(self, options: Optional[Dict[str, Any]], workload,
                          execution: ExecutionContext) -> Dict[str, Any]:
        normalised = self.schema.coerce(options, strict=False)
        normalised["parallelise"] = (execution.parallel
                                     and not workload.uses_openmp)
        normalised["gpu"] = execution.gpu or workload.uses_openacc
        return normalised

    def pipeline(self, options: Dict[str, Any]) -> PassManager:
        from ..core import pipelines
        return pipelines.standard_flow_pipeline(**options)

    def compile(self, workload, options: Dict[str, Any],
                execution: ExecutionContext, *,
                verify_each: bool = False,
                collect_statistics: bool = True,
                instrumentation: Sequence[PassInstrumentation] = (),
                stages: Sequence[str] = ()) -> FlowResult:
        from ..core import StandardMLIRCompiler
        compiler = StandardMLIRCompiler(
            vector_width=options["vector_width"],
            parallelise=options["parallelise"], gpu=options["gpu"],
            tile=options["tile"], tile_size=options["tile_size"],
            unroll=options["unroll"], verify_each=verify_each,
            collect_statistics=collect_statistics,
            instrumentations=instrumentation)
        return compiler.compile(workload.source(scaled=True), stages=stages)


__all__ = ["FlangFlow", "OursFlow"]
