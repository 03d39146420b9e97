"""Standard MLIR transformation and conversion passes.

Importing this package registers every pass with the pass registry so that
``PassManager.from_pipeline`` can resolve pipeline strings.
"""

from .cleanup import (CanonicalizePass, CSEPass, LoopInvariantCodeMotionPass,
                      MathUpliftToFMAPass)
from .convert_linalg_to_loops import ConvertLinalgToLoopsPass
from .parallel_lowering import (ConvertParallelLoopsToGpuPass,
                                ConvertScfToOpenMPPass)

__all__ = [
    "CanonicalizePass", "CSEPass", "LoopInvariantCodeMotionPass",
    "MathUpliftToFMAPass", "ConvertLinalgToLoopsPass",
    "ConvertParallelLoopsToGpuPass", "ConvertScfToOpenMPPass",
]
