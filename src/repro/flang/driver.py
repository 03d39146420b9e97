"""The baseline Flang compilation driver (Figure 1 of the paper).

Stages: Fortran source -> parse/semantics -> HLFIR+FIR -> (HLFIR lowered to
FIR only).  The driver stops there: FIR is the level the machine executes
for this flow, and Flang's bespoke FIR -> LLVM-IR code generation is not
modelled.  The ``hlfir`` stage is kept on request (``stages=``); results are
:class:`~repro.flows.base.FlowResult` subclasses, so both drivers expose the
same ``stages`` / ``module`` / ``timing`` shape.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..dialects.builtin import ModuleOp
from ..flows.base import FlowResult
from ..frontend import analyze, parse_source
from ..frontend.lowering import FortranLowering
from ..ir.pass_manager import (PassInstrumentation, PassManager,
                               PassTimingReport)
from .hlfir_to_fir import ConvertHlfirToFirPass


class FlangCodegenError(Exception):
    """Raised when Flang's code generation cannot handle the input.

    Raised for OpenACC input (by the ``flang`` flow's capability check),
    mirroring the ``LLVMTranslationDialectInterface`` internal error the
    paper reports for Flang v18 (Section VI-C).
    """


class FlangCompilationResult(FlowResult):
    """The stages of one baseline-Flang compilation.

    A :class:`~repro.flows.base.FlowResult` whose stages are ``hlfir`` and
    ``fir``; the historical attribute names remain available as
    properties.  ``hlfir`` is intermediate when the compile goes on to
    FIR: kept only when the compile named it.
    """

    def __init__(self, source: str, hlfir_module: Optional[ModuleOp],
                 fir_module: Optional[ModuleOp],
                 timing: Optional[PassTimingReport] = None):
        super().__init__(flow="flang", source=source,
                         stages={"hlfir": hlfir_module, "fir": fir_module},
                         timing=timing)

    @property
    def hlfir_module(self) -> ModuleOp:
        return self.kept_stage("hlfir")

    @property
    def fir_module(self) -> ModuleOp:
        return self.kept_stage("fir")


class FlangCompiler:
    """Compile Fortran with the baseline Flang flow, up to FIR."""

    name = "flang"
    version = "20.0.0"

    def __init__(self, *, verify_each: bool = False,
                 collect_statistics: bool = True,
                 instrumentations: Sequence[PassInstrumentation] = ()):
        self.verify_each = verify_each
        self.collect_statistics = collect_statistics
        self.instrumentations = list(instrumentations)

    # -- pipeline descriptions (Figure 1) -----------------------------------------
    def flow_description(self) -> List[str]:
        return [
            "lex/parse + AST optimisation",
            "lower to HLFIR + FIR",
            "HLFIR -> FIR bufferisation",
            "(Flang, not modelled: bespoke FIR -> LLVM-IR code generation, "
            "LLVM backend)",
        ]

    # -- compilation ----------------------------------------------------------------
    def lower_to_hlfir(self, source: str) -> ModuleOp:
        unit = parse_source(source)
        analysis = analyze(unit)
        return FortranLowering(analysis).lower()

    def compile(self, source: str, *, stop_at: str = "fir",
                stages: Sequence[str] = ()) -> FlangCompilationResult:
        """Compile ``source`` up to ``stop_at`` (``hlfir`` or ``fir``);
        ``stages`` names the earlier stages to snapshot (a whole-module
        clone each — the lowering rewrites the one module in place)."""
        hlfir_module = self.lower_to_hlfir(source)
        if stop_at == "hlfir":
            return FlangCompilationResult(source, hlfir_module, None)
        hlfir_snapshot = hlfir_module.clone() if "hlfir" in stages else None
        pm = PassManager([ConvertHlfirToFirPass()],
                         verify_each=self.verify_each,
                         collect_statistics=self.collect_statistics,
                         instrumentations=self.instrumentations)
        pm.run(hlfir_module)
        return FlangCompilationResult(source, hlfir_snapshot, hlfir_module,
                                      timing=pm.last_report)


__all__ = ["FlangCompiler", "FlangCompilationResult", "FlangCodegenError"]
