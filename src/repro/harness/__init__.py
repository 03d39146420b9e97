"""The paper's published numbers and the tables they are compared in.

The tables themselves are declared and regenerated by
:mod:`repro.service.tables` (``run_tables``).
"""

from .reporting import (ExperimentRow, ExperimentTable, format_table,
                        ordering_agreement, speedup)
from . import paper_data

__all__ = ["ExperimentRow", "ExperimentTable", "format_table",
           "ordering_agreement", "speedup", "paper_data"]
