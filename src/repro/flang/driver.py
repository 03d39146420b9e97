"""The baseline Flang compilation driver (Figure 1 of the paper).

Stages: Fortran source -> parse/semantics -> HLFIR+FIR -> (HLFIR lowered to
FIR only) -> direct LLVM-dialect code generation.  Intermediate modules are
kept on request (``stages=``) so the experiments can analyse/execute the
flow at any stage; results are :class:`~repro.flows.base.FlowResult`
subclasses, so both drivers expose the same ``stages`` / ``module`` /
``timing`` shape.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..dialects.builtin import ModuleOp
from ..flows.base import FlowResult
from ..frontend import analyze, parse_source
from ..frontend.lowering import FortranLowering
from ..ir.pass_manager import (PassInstrumentation, PassManager,
                               PassTimingReport)
from .codegen import FirCfgConversionPass, FirToLLVMPass, FlangCodegenError
from .hlfir_to_fir import ConvertHlfirToFirPass


class FlangCompilationResult(FlowResult):
    """All intermediate stages of one baseline-Flang compilation.

    A :class:`~repro.flows.base.FlowResult` whose stages are ``hlfir``,
    ``fir`` and ``llvm``; the historical attribute names remain available
    as properties.  Every stage before the one the compile stopped at is
    intermediate: kept only when the compile named it.
    """

    def __init__(self, source: str, hlfir_module: Optional[ModuleOp],
                 fir_module: Optional[ModuleOp],
                 llvm_module: Optional[ModuleOp],
                 error: Optional[str] = None,
                 timing: Optional[PassTimingReport] = None):
        super().__init__(flow="flang", source=source,
                         stages={"hlfir": hlfir_module, "fir": fir_module,
                                 "llvm": llvm_module},
                         timing=timing, error=error)

    @property
    def hlfir_module(self) -> ModuleOp:
        return self.kept_stage("hlfir")

    @property
    def fir_module(self) -> ModuleOp:
        return self.kept_stage("fir")

    @property
    def llvm_module(self) -> Optional[ModuleOp]:
        return self.stages["llvm"]

    @property
    def succeeded(self) -> bool:
        return self.error is None


class FlangCompiler:
    """Compile Fortran with the baseline Flang flow.

    ``use_hlfir=False`` models Flang v17, which lowered straight to FIR
    without the HLFIR layer (the paper compares v17 and v20 in Table I); in
    that mode the HLFIR stage is produced and immediately lowered, mirroring
    the older pipeline's behaviour of carrying less high-level information.
    """

    name = "flang"
    version = "20.0.0"

    def __init__(self, use_hlfir: bool = True, optimization_level: int = 3,
                 *, verify_each: bool = False, collect_statistics: bool = True,
                 instrumentations: Sequence[PassInstrumentation] = ()):
        self.use_hlfir = use_hlfir
        self.optimization_level = optimization_level
        self.verify_each = verify_each
        self.collect_statistics = collect_statistics
        self.instrumentations = list(instrumentations)

    # -- pipeline descriptions (Figure 1) -----------------------------------------
    def flow_description(self) -> List[str]:
        return [
            "lex/parse + AST optimisation",
            "lower to HLFIR + FIR" if self.use_hlfir else "lower to FIR",
            "HLFIR -> FIR bufferisation" if self.use_hlfir else "(no HLFIR stage)",
            "bespoke FIR -> LLVM-IR code generation",
            "LLVM backend",
        ]

    def _pass_manager(self, passes) -> PassManager:
        return PassManager(passes, verify_each=self.verify_each,
                           collect_statistics=self.collect_statistics,
                           instrumentations=self.instrumentations)

    # -- compilation ----------------------------------------------------------------
    def lower_to_hlfir(self, source: str) -> ModuleOp:
        unit = parse_source(source)
        analysis = analyze(unit)
        return FortranLowering(analysis).lower()

    def lower_to_fir(self, hlfir_module: ModuleOp) -> ModuleOp:
        pm = self._pass_manager([ConvertHlfirToFirPass()])
        pm.run(hlfir_module)
        self._last_report = pm.last_report
        return hlfir_module

    def lower_to_llvm(self, fir_module: ModuleOp) -> ModuleOp:
        pm = self._pass_manager([FirCfgConversionPass(), FirToLLVMPass()])
        pm.run(fir_module)
        self._last_report = pm.last_report
        return fir_module

    def compile(self, source: str, *, stop_at: str = "llvm",
                stages: Sequence[str] = ()) -> FlangCompilationResult:
        """Compile ``source`` up to ``stop_at``; ``stages`` names the
        earlier stages to snapshot (a whole-module clone each — every
        lowering rewrites the one module in place)."""
        hlfir_module = self.lower_to_hlfir(source)
        if stop_at == "hlfir":
            return FlangCompilationResult(source, hlfir_module, None, None)
        hlfir_snapshot = hlfir_module.clone() if "hlfir" in stages else None
        fir_module = self.lower_to_fir(hlfir_module)
        timing = self._last_report
        if stop_at == "fir":
            return FlangCompilationResult(source, hlfir_snapshot, fir_module,
                                          None, timing=timing)
        # code generation can fail half way through the module: the FIR
        # stage is what such a compile returns, so it is cloned either way
        fir_snapshot = fir_module.clone()
        try:
            llvm_module = self.lower_to_llvm(fir_module)
            timing = timing.merged(self._last_report)
        except FlangCodegenError as exc:
            return FlangCompilationResult(source, hlfir_snapshot, fir_snapshot,
                                          None, error=str(exc), timing=timing)
        return FlangCompilationResult(
            source, hlfir_snapshot,
            fir_snapshot if "fir" in stages else None, llvm_module,
            timing=timing)


class FlangV17Compiler(FlangCompiler):
    """Flang 17.0.0 (LLVM 16): the pre-HLFIR pipeline."""

    version = "17.0.0"

    def __init__(self, optimization_level: int = 3, **kwargs):
        super().__init__(use_hlfir=False,
                         optimization_level=optimization_level, **kwargs)


__all__ = ["FlangCompiler", "FlangV17Compiler", "FlangCompilationResult",
           "FlangCodegenError"]
