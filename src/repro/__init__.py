"""repro — reproduction of "Fully integrating the Flang Fortran compiler with
standard MLIR" (SC 2024).

Public entry points:

* :class:`repro.flang.FlangCompiler` — the baseline Flang flow (Figure 1);
* :class:`repro.core.StandardMLIRCompiler` — the paper's standard-MLIR flow
  (Figure 2, Section V/VI);
* :mod:`repro.flows` — the flow registry making compilation flows
  first-class, registered objects;
* :mod:`repro.machine` — interpreter + machine models producing modeled
  runtimes;
* :mod:`repro.workloads` — the benchmarks;
* :mod:`repro.service` — the compilation service and the table spec
  (``run_tables``) regenerating Tables I-V and Figure 3, with
  :mod:`repro.harness` holding the paper's numbers to compare against;
* ``python -m repro.opt`` — the mlir-opt analogue: run any flow or textual
  pass pipeline over Fortran source, with timings and IR dumps.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
