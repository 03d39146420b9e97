"""Workload descriptions: Fortran kernels plus problem-size metadata.

Each workload carries a Fortran source template, the problem size used in the
paper, a reduced size used for interpretation, and a work model that lets the
performance substrate extrapolate interpreted operation counts to paper-scale
runtimes (see DESIGN.md, "How runtime is produced").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..machine.perf import WorkloadScaling


@dataclass
class Workload:
    name: str
    category: str                      # polyhedron | stencil | intrinsic
    description: str
    source_template: str
    paper_params: Dict[str, int]
    interp_params: Dict[str, int]
    #: work units (e.g. element-updates) as a function of the parameters
    work_model: Callable[[Dict[str, int]], float]
    #: resident working set in bytes as a function of the parameters
    memory_model: Callable[[Dict[str, int]], float] = lambda p: 0.0
    uses_openmp: bool = False
    uses_openacc: bool = False
    #: fraction of runtime inside parallel loops when threaded
    parallel_fraction: float = 0.95

    # ------------------------------------------------------------------ sources
    def source(self, *, scaled: bool = True,
               overrides: Optional[Dict[str, int]] = None) -> str:
        params = dict(self.interp_params if scaled else self.paper_params)
        if overrides:
            params.update(overrides)
        return self.source_template.format(**params)

    def source_hash(self) -> str:
        """SHA-256 of the interpreted (scaled) source actually compiled."""
        return hashlib.sha256(self.source(scaled=True).encode()).hexdigest()

    # ------------------------------------------------------------------ identity
    def identity(self) -> Dict:
        """Stable, JSON-serialisable identity used in service cache keys.

        Only what compiling and executing the workload reads: the name
        (written into the artifact), the OpenMP/OpenACC flags and the hash
        of the scaled source.  Paper sizes are scaling input the harness
        reads from the live workload, not artifact identity.
        """
        return {
            "name": self.name,
            "uses_openmp": self.uses_openmp,
            "uses_openacc": self.uses_openacc,
            "source_sha256": self.source_hash(),
        }

    # ------------------------------------------------------------------ scaling
    def work_ratio(self, overrides: Optional[Dict[str, int]] = None) -> float:
        full_params = dict(self.paper_params)
        if overrides:
            full_params.update(overrides)
        full = self.work_model(full_params)
        scaled = self.work_model(dict(self.interp_params))
        return full / max(scaled, 1.0)

    def scaling(self, overrides: Optional[Dict[str, int]] = None) -> WorkloadScaling:
        full_params = dict(self.paper_params)
        if overrides:
            full_params.update(overrides)
        return WorkloadScaling(
            work_ratio=self.work_ratio(overrides),
            working_set_bytes=self.memory_model(full_params),
            parallel_fraction=self.parallel_fraction,
        )


__all__ = ["Workload"]
