"""Experiment tables: their rows, formatting and shape comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class ExperimentRow:
    label: str
    measured: Dict[str, float]
    paper: Dict[str, Optional[float]] = field(default_factory=dict)


@dataclass
class ExperimentTable:
    """One regenerated table: modeled values beside the paper's."""

    name: str
    title: str
    columns: Sequence[str]
    rows: List[ExperimentRow] = field(default_factory=list)

    def row(self, label: str) -> ExperimentRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def measured_matrix(self) -> Dict[str, Dict[str, float]]:
        return {r.label: dict(r.measured) for r in self.rows}


def format_table(table: ExperimentTable, *, with_paper: bool = True) -> str:
    """Render an ExperimentTable as fixed-width text (rows mirror the paper)."""
    columns = list(table.columns)
    header = ["benchmark"] + [f"{c} (model)" for c in columns]
    if with_paper:
        header += [f"{c} (paper)" for c in columns]
    widths = [max(18, len(h) + 2) for h in header]
    lines = [table.title, "=" * len(table.title),
             "".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in table.rows:
        cells = [row.label]
        for c in columns:
            value = row.measured.get(c)
            cells.append(_fmt(value))
        if with_paper:
            for c in columns:
                cells.append(_fmt(row.paper.get(c)))
        lines.append("".join(cell.ljust(w) for cell, w in zip(cells, widths)))
    return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "DNC"
    if isinstance(value, float) and math.isnan(value):
        return "DNC"
    return f"{value:.2f}"


def speedup(table: ExperimentTable, baseline: str, candidate: str) -> Dict[str, float]:
    """Per-row speed-up of ``candidate`` over ``baseline`` (>1 means faster)."""
    out = {}
    for row in table.rows:
        base = row.measured.get(baseline)
        cand = row.measured.get(candidate)
        if base and cand and not math.isnan(base) and not math.isnan(cand) and cand > 0:
            out[row.label] = base / cand
    return out


def ordering_agreement(table: ExperimentTable) -> float:
    """Fraction of benchmark rows whose fastest compiler matches the paper's
    fastest compiler (the headline 'shape' check)."""
    agree = 0
    considered = 0
    for row in table.rows:
        paper_vals = {k: v for k, v in row.paper.items()
                      if v is not None and k in row.measured}
        measured_vals = {k: v for k, v in row.measured.items()
                         if not math.isnan(v) and k in paper_vals}
        if len(paper_vals) < 2 or len(measured_vals) < 2:
            continue
        considered += 1
        if min(paper_vals, key=paper_vals.get) == min(measured_vals, key=measured_vals.get):
            agree += 1
    return agree / considered if considered else 1.0


__all__ = ["ExperimentRow", "ExperimentTable", "format_table", "speedup",
           "ordering_agreement"]
