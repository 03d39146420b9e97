"""Regenerate ``expected_output.json`` (``bench.py regenerate-expected``).

Every benchmark program is compiled by each flow that can build it and run
on the ``reference`` engine (one op at a time, the engine the others are
checked against).  A program's output is accepted only when the flows agree
— integers exactly, reals to ``rtol=1e-9``.  Stats and IR text are left out
on purpose: a later pass improvement may change them, never the answers.

The edit program is not in the file: its expected output is worked out per
seed and per edit by ``inputs.EditProgram.model_output``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402


def reference_output(job) -> List[str]:
    import numpy as np
    from repro.flows import get_flow
    from repro.machine import Interpreter
    result = get_flow(job.flow).run(job.resolve_workload(),
                                    job.options_dict(), job.execution(),
                                    collect_statistics=False)
    if result.error is not None:
        raise RuntimeError(f"{job.flow}/{job.workload_name}: {result.error}")
    with np.errstate(all="ignore"):
        interpreter = Interpreter(result.module, engine="reference")
        interpreter.run_main()
    return list(interpreter.printed)


def main(path: str) -> int:
    import repro.conformance  # noqa: F401  (registers conformance/<seed>)
    from repro.service import CompileJob, enumerate_jobs

    representatives: Dict[str, CompileJob] = {}
    for job in enumerate_jobs():
        representatives.setdefault(
            inputs.program_id(job.workload_name, job.workload_kwargs), job)
    for name, flow in inputs.EXEC_MODULES:
        representatives.setdefault(name, CompileJob(flow, name))
    for kernel in inputs.CONFORMANCE_POOL:
        name = f"conformance/{kernel}"
        representatives.setdefault(name, CompileJob("ours", name))

    programs: Dict[str, List[str]] = {}
    for program, job in sorted(representatives.items()):
        workload = job.resolve_workload()
        ours = reference_output(CompileJob(
            "ours", job.workload_name, workload_kwargs=job.workload_kwargs,
            gpu=job.gpu, workload=workload))
        if not (job.gpu or workload.uses_openacc):
            flang = reference_output(CompileJob(
                "flang", job.workload_name,
                workload_kwargs=job.workload_kwargs, workload=workload))
            problem = inputs.printed_mismatch(ours, flang)
            if problem is not None:
                print(f"REJECTED {program}: flows disagree: {problem}",
                      file=sys.stderr)
                return 1
        programs[program] = ours
        print(f"{program}: {len(ours)} lines", file=sys.stderr)

    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"engine": "reference", "flows": ["ours", "flang"],
                   "real_rtol": inputs.REAL_RTOL,
                   "programs": programs}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(programs)} programs to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
