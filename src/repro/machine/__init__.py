"""Execution and performance substrate.

Replaces the paper's ARCHER2/Cirrus hardware: an IR interpreter produces
numerical results plus dynamic operation counts, and the machine models
convert those counts into modeled runtimes (see DESIGN.md for the
substitution rationale).
"""

from .interpreter import (ENGINE_NAMES, ExecutionLimitExceeded,
                          ExecutionStats, Interpreter, InterpreterError)
from .models import (ARCHER2, CIRRUS_V100, CRAY_PROFILE, FLANG_V17_PROFILE,
                     FLANG_V20_PROFILE, GNU_PROFILE, NVFORTRAN_PROFILE,
                     OURS_PROFILE, CompilerProfile, CPUModel, GPUModel)
from .perf import PerformanceModel, RuntimeBreakdown, WorkloadScaling
from .profiler import InstructionMix, profile_stats
from .semantics import int_ceildiv, int_div, int_floordiv, int_rem
from .values import Cell, ElementPtr, FortranArray, as_ndarray

__all__ = [
    "ENGINE_NAMES", "ExecutionLimitExceeded", "ExecutionStats", "Interpreter",
    "InterpreterError", "ARCHER2", "CIRRUS_V100", "CRAY_PROFILE",
    "FLANG_V17_PROFILE", "FLANG_V20_PROFILE", "GNU_PROFILE",
    "NVFORTRAN_PROFILE", "OURS_PROFILE", "CompilerProfile", "CPUModel",
    "GPUModel", "PerformanceModel", "RuntimeBreakdown", "WorkloadScaling",
    "InstructionMix", "profile_stats",
    "Cell", "ElementPtr", "FortranArray",
    "as_ndarray", "int_div", "int_rem",
    "int_floordiv", "int_ceildiv",
]
