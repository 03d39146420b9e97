"""repro — reproduction of "Fully integrating the Flang Fortran compiler with
standard MLIR" (SC 2024).

Public entry points:

* :mod:`repro.flows` — the flow registry: ``get_flow("flang")`` is the
  baseline Flang flow (Figure 1), ``get_flow("ours")`` the paper's
  standard-MLIR flow (Figure 2, Section V/VI).  A flow is its pipeline
  text; ``Flow.compile`` is the one driver (parse, analyse, lower to
  HLFIR, run the pipeline), and ``source_workload`` wraps raw source;
* :mod:`repro.core` / :mod:`repro.flang` — the passes those pipelines
  name (``convert-fir-to-standard`` and the paper's passes;
  ``convert-hlfir-to-fir``);
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
