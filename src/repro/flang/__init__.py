"""The baseline Flang compilation flow: HLFIR -> FIR.

This package models the *status quo* the paper compares against: Flang's
bespoke lowering that bypasses the standard MLIR dialects and optimisation
passes (Figure 1).  The flow stops at FIR, the level the machine executes.
"""

from .driver import FlangCodegenError, FlangCompilationResult, FlangCompiler
from .hlfir_to_fir import ConvertHlfirToFirPass, convert_hlfir_to_fir
from . import runtime

__all__ = [
    "FlangCodegenError", "FlangCompilationResult", "FlangCompiler",
    "ConvertHlfirToFirPass", "convert_hlfir_to_fir", "runtime",
]
