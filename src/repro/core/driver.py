"""Driver of the paper's compilation flow (Figure 2).

Fortran source is parsed with the (reused) Flang frontend, the combined
HLFIR/FIR IR is intercepted and lowered to the standard MLIR dialects by the
transformation of Section V, and the standard optimisation passes (plus the
paper's own passes) are applied.  The driver stops at that optimised
standard-dialect module — the level the machine executes; the lowering to
the ``llvm`` dialect that ends Listing 1 is not modelled.

The optimisation stage runs as ONE op-anchored nested pipeline
(:func:`repro.core.pipelines.standard_flow_pipeline`), so a compilation
yields a single :class:`~repro.ir.pass_manager.PassTimingReport` and can be
instrumented pass-by-pass (``python -m repro.opt --timing --dump-ir``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..dialects import dialects_used, uses_only_standard_dialects
from ..dialects.builtin import ModuleOp
from ..flang.driver import FlangCompiler
from ..flows.base import FlowResult
from ..ir.pass_manager import PassInstrumentation, PassTimingReport
from .fir_to_standard import convert_fir_to_standard
from . import pipelines


class StandardFlowResult(FlowResult):
    """All stages of one standard-MLIR-flow compilation.

    A :class:`~repro.flows.base.FlowResult` whose stages are ``hlfir``,
    ``standard`` and ``optimised``; the historical attribute names remain
    available as properties.  ``hlfir`` and ``standard`` are intermediate:
    kept only when the compile named them.
    """

    def __init__(self, source: str, hlfir_module: Optional[ModuleOp],
                 standard_module: Optional[ModuleOp],
                 optimised_module: ModuleOp,
                 pipeline_description: str = "",
                 timing: Optional[PassTimingReport] = None):
        super().__init__(flow="ours", source=source,
                         stages={"hlfir": hlfir_module,
                                 "standard": standard_module,
                                 "optimised": optimised_module},
                         pipeline=pipeline_description, timing=timing)

    @property
    def hlfir_module(self) -> ModuleOp:
        return self.kept_stage("hlfir")

    @property
    def standard_module(self) -> ModuleOp:
        return self.kept_stage("standard")

    @property
    def optimised_module(self) -> ModuleOp:
        return self.stages["optimised"]

    @property
    def pipeline_description(self) -> str:
        return self.pipeline

    @property
    def is_standard_only(self) -> bool:
        return uses_only_standard_dialects(self.standard_module)


class StandardMLIRCompiler:
    """The paper's flow: Flang frontend + standard MLIR dialects and passes.

    Options select the extra flows evaluated in Section VI:

    * ``vector_width`` — affine super-vectorisation width (4 on ARCHER2/AVX2,
      0 disables vectorisation);
    * ``parallelise`` — convert eligible loops to scf.parallel and lower to
      OpenMP (Tables III/IV);
    * ``gpu`` — lower OpenACC regions to the gpu dialect (Table V);
    * ``tile`` / ``unroll`` — affine loop tiling/unrolling used for the
      linalg-backed intrinsics (Table III).

    ``verify_each`` and ``instrumentations`` thread straight into the
    optimisation pipeline's :class:`~repro.ir.pass_manager.PassManager`.
    """

    name = "our-approach"
    version = "llvm-20"

    def __init__(self, *, vector_width: int = 4, parallelise: bool = False,
                 gpu: bool = False, tile: bool = False, tile_size: int = 32,
                 unroll: int = 0, verify_each: bool = False,
                 collect_statistics: bool = True,
                 instrumentations: Sequence[PassInstrumentation] = ()):
        self.vector_width = vector_width
        self.parallelise = parallelise
        self.gpu = gpu
        self.tile = tile
        self.tile_size = tile_size
        self.unroll = unroll
        self.verify_each = verify_each
        self.collect_statistics = collect_statistics
        self.instrumentations = list(instrumentations)
        self._frontend = FlangCompiler()

    # -- pipeline description (Figure 2 / Figure 3) ---------------------------------
    def flow_description(self) -> List[str]:
        steps = [
            "Flang lex/parse + AST optimisation",
            "lower to HLFIR + FIR (Flang)",
            "transform HLFIR/FIR -> standard MLIR dialects (this paper)",
            "standard MLIR optimisation passes"
            + (f" + affine super-vectorisation (width {self.vector_width})"
               if self.vector_width > 1 else ""),
        ]
        if self.parallelise:
            steps.append("scf.parallel -> OpenMP dialect (convert-scf-to-openmp)")
        if self.gpu:
            steps.append("OpenACC -> scf.parallel -> gpu dialect")
        steps.append("(paper, not modelled: lower to the llvm dialect via "
                     "mlir-opt, Listing 1; mlir-translate; clang links the "
                     "Flang runtime)")
        return steps

    def build_pipeline(self):
        """The whole optimisation stage as one nested PassManager."""
        pm = pipelines.standard_flow_pipeline(
            self.vector_width, tile=self.tile, tile_size=self.tile_size,
            unroll=self.unroll, parallelise=self.parallelise, gpu=self.gpu)
        pm.verify_each = self.verify_each
        pm.set_collect_statistics(self.collect_statistics)
        pm.instrumentations.extend(self.instrumentations)
        return pm

    # -- compilation -----------------------------------------------------------------
    def compile(self, source: str, *,
                stages: Sequence[str] = ()) -> StandardFlowResult:
        """Compile ``source``; ``stages`` names the intermediate stages
        (``hlfir``, ``standard``) to snapshot — a whole-module clone each,
        so none is taken unless asked for."""
        hlfir_module = self._frontend.lower_to_hlfir(source)
        hlfir_snapshot = hlfir_module.clone() if "hlfir" in stages else None
        standard_module = convert_fir_to_standard(hlfir_module)
        standard_snapshot = standard_module.clone() \
            if "standard" in stages else None

        optimised = standard_module
        opt_pm = self.build_pipeline()
        opt_pm.run(optimised)

        return StandardFlowResult(
            source=source,
            hlfir_module=hlfir_snapshot,
            standard_module=standard_snapshot,
            optimised_module=optimised,
            pipeline_description=opt_pm.describe(),
            timing=opt_pm.last_report,
        )


__all__ = ["StandardMLIRCompiler", "StandardFlowResult"]
