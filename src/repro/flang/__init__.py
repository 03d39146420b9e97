"""The baseline Flang compilation flow: HLFIR -> FIR.

This package models the *status quo* the paper compares against: Flang's
bespoke lowering that bypasses the standard MLIR dialects and optimisation
passes (Figure 1).  The ``flang`` flow (:mod:`repro.flows.builtin`) stops at
FIR, the level the machine executes; Flang's FIR -> LLVM-IR code generation
is not modelled.
"""

from .hlfir_to_fir import ConvertHlfirToFirPass, convert_hlfir_to_fir
from . import runtime


class FlangCodegenError(Exception):
    """Raised when Flang's code generation cannot handle the input.

    Raised for OpenACC input (by the ``flang`` flow's capability check),
    mirroring the ``LLVMTranslationDialectInterface`` internal error the
    paper reports for Flang v18 (Section VI-C).
    """


__all__ = [
    "FlangCodegenError", "ConvertHlfirToFirPass", "convert_hlfir_to_fir",
    "runtime",
]
