"""MLIR-like IR infrastructure (SSA values, operations, regions, passes).

This package is the foundation every other subsystem builds on; it plays the
role MLIR + xDSL play in the paper.
"""

from .attributes import (AffineExpr, AffineMapAttr, ArrayAttr, Attribute,
                         BoolAttr, DenseIntElementsAttr, FloatAttr,
                         IntegerAttr, StringAttr, SymbolRefAttr, TypeAttr)
from .builder import Builder, InsertPoint
from .core import (Block, BlockArgument, IRError, OpResult, Operation, Region,
                   UnregisteredOp, Use, Value, create_operation, register_op)
from .pass_manager import (FunctionPass, Pass, PassError, PassManager,
                           PipelineSettings, available_passes,
                           current_settings, get_registered_pass,
                           parse_pipeline, pipeline_settings, register_pass)
from .printer import Printer, print_op
from .structural_hash import STRUCTURAL_HASH_VERSION, structural_fingerprint
from .rewriter import (PatternRewriter, RewritePattern, RewritePatternSet,
                       apply_patterns_greedily)
from .types import (DYNAMIC, FloatType, FunctionType, IndexType, IntegerType,
                    MemRefType, NoneType, ShapedType, Type, VectorType, f32,
                    f64, i1, i8, i16, i32, i64, index, none)
from .verifier import VerificationError, verify_module, verify_operation

__all__ = [name for name in dir() if not name.startswith("_")]
