"""Fortran frontend: lexer, parser, semantic analysis and HLFIR/FIR lowering.

This package plays the role of Flang's frontend stages (Figure 1 of the
paper): parsing Fortran source, building symbol tables and lowering to the
HLFIR + FIR dialects mixed with a handful of standard MLIR dialects.
"""

from .ast_nodes import CompilationUnit
from .lexer import LexError, Token, tokenize
from .lowering import FortranLowering, LoweringError, lower_to_hlfir
from .parser import ParseError, Parser, parse_source
from .semantics import (AnalysisResult, SemanticAnalyzer, SemanticError,
                        Symbol, SymbolTable, analyze)
from . import ast_nodes, ftypes, intrinsics

__all__ = [
    "CompilationUnit", "LexError", "Token", "tokenize", "FortranLowering",
    "LoweringError", "lower_to_hlfir", "ParseError", "Parser",
    "parse_source", "AnalysisResult", "SemanticAnalyzer", "SemanticError",
    "Symbol", "SymbolTable", "analyze", "ast_nodes", "ftypes", "intrinsics",
]
