#!/usr/bin/env python3
"""Compile-side benchmark: per-flow pass time + incremental rebuild, to JSON.

The interpreter side has had a tracked trajectory (``BENCH_interpreter.json``)
since the cached-dispatch engine landed; conformance sweeps made *compile*
time a co-equal bottleneck — hundreds of kernels go through every flow's
pass pipeline per sweep — yet it had no trajectory at all.  This benchmark
runs every registered flow over representative registry workloads with
statistics collection on, and records

* the end-to-end flow wall time (frontend + passes + printing bookkeeping),
* the total pass-pipeline time from the flow's
  :class:`~repro.ir.pass_manager.PassTimingReport`,
* the per-pass wall time / IR-size delta breakdown, and
* **cold-vs-incremental**: one synthetic multi-function module compiled
  from scratch vs rebuilt after a one-function edit against a warm
  :class:`~repro.service.incremental.FunctionArtifactStore`, with the
  outputs asserted bit-identical,

into ``BENCH_compile.json`` so CI can track compile-side performance the
same way it tracks ops/sec.  ``--check-floor`` additionally enforces the
incremental floor: rebuild >= 5x cold.  Exits non-zero when a flow errors
on a workload it is expected to compile, when the bit-identity assert
fails, or when the floor is missed.

Usage: ``PYTHONPATH=src python benchmarks/compile_bench.py [--quick]
[--check-floor] [output.json]``
"""

import json
import platform
import sys
import time
from datetime import datetime, timezone

from repro.core.fir_to_standard import convert_fir_to_standard
from repro.core.pipelines import standard_flow_pipeline
from repro.flows import available_flows, get_flow
from repro.frontend import lower_to_hlfir
from repro.ir import StringAttr, pipeline_settings, print_op
from repro.service.incremental import FunctionArtifactStore
from repro.workloads import get_workload

WORKLOADS = ["ac", "linpk", "tfft", "jacobi", "tra-adv", "dotproduct"]
QUICK_WORKLOADS = ["ac", "jacobi"]
#: Source pool for the synthetic multi-function module (functions are
#: harvested in order until FLEET_SIZE distinct ones are collected).
FLEET_WORKLOADS = ["jacobi", "tra-adv", "ac", "linpk", "tfft", "dotproduct",
                   "sum", "pw-advection", "channel", "air", "nf", "mdbx",
                   "fatigue", "matmul", "capacita", "test_fpu", "doduc",
                   "gas_dyn", "protein", "rnflow", "mp_prop_design",
                   "aermod"]
#: The held-out workload whose function plays the "edited" one (small, so
#: the measured rebuild is dominated by the splice machinery, not by one
#: unusually expensive function body).
EDIT_WORKLOAD = "transpose"
FLEET_SIZE = 22
REPEATS = 3
INCREMENTAL_FLOOR = 5.0
DEFAULT_OUTPUT = "BENCH_compile.json"


def bench_flow(flow_name: str, workload_name: str):
    flow = get_flow(flow_name)
    workload = get_workload(workload_name)
    t0 = time.perf_counter()
    result = flow.run(workload, collect_statistics=True)
    wall_s = time.perf_counter() - t0
    if result.error is not None:
        return {"flow": flow_name, "workload": workload_name, "ok": False,
                "error": result.error, "wall_s": round(wall_s, 4)}
    timing = result.timing
    entry = {
        "flow": flow_name,
        "workload": workload_name,
        "ok": True,
        "wall_s": round(wall_s, 4),
        "pass_total_s": round(timing.total_s, 4) if timing is not None else None,
        "passes": [t.as_dict() for t in timing.timings]
        if timing is not None else [],
    }
    return entry


# ---------------------------------------------------------------------------
# synthetic multi-function module
# ---------------------------------------------------------------------------


def _standard_module(source_text: str):
    return convert_fir_to_standard(lower_to_hlfir(source_text))


def _module_funcs(module):
    return [op for op in module.regions[0].blocks[0].ops
            if op.name == "func.func"]


def _harvest_functions(workload_names, limit):
    """Distinct real function bodies from registry workloads, cloned out of
    their modules."""
    funcs = []
    for name in workload_names:
        if len(funcs) >= limit:
            break
        module = _standard_module(get_workload(name).source(scaled=True))
        for func in _module_funcs(module):
            funcs.append(func.clone())
            if len(funcs) >= limit:
                break
    return funcs


def _build_fleet_module(funcs):
    """One module holding clones of ``funcs``, uniquely renamed.

    The frontend compiles one program unit set at a time; fleet-scale
    modules are built by IR surgery instead — which is also what keeps this
    benchmark purely about the pass pipeline.
    """
    shell = _standard_module(
        "subroutine shell(n)\n  integer, intent(in) :: n\n"
        "end subroutine shell")
    block = shell.regions[0].blocks[0]
    for op in _module_funcs(shell):
        op.erase(check_uses=False)
    for index, func in enumerate(funcs):
        clone = func.clone()
        clone.attributes["sym_name"] = StringAttr(f'"_QPfleet{index}"')
        block.add_op(clone)
    return shell


def _time_pipeline(module_builder, *, store=None, repeats=REPEATS):
    """Best-of-N wall time of the standard pipeline; returns (s, final_text).

    A fresh module is built per repeat (the pipeline mutates in place), and
    only ``pm.run`` is timed — frontend and surgery are outside the clock.
    """
    best = None
    text = None
    for _ in range(repeats):
        module = module_builder()
        pm = standard_flow_pipeline()
        with pipeline_settings(function_cache=store):
            t0 = time.perf_counter()
            pm.run(module)
            elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
            text = print_op(module)
    return best, text


def bench_incremental():
    """Cold compile vs one-function-edit rebuild against a warm store."""
    funcs = _harvest_functions(FLEET_WORKLOADS, FLEET_SIZE)
    edited_funcs = list(funcs)
    edited_funcs[0] = _harvest_functions([EDIT_WORKLOAD], 1)[0]

    cold_s, _ = _time_pipeline(lambda: _build_fleet_module(funcs),
                               store=None)

    # each repeat re-warms a fresh store so every timed rebuild is exactly
    # the one-function-edit scenario: 21 splices + 1 recompile (a shared
    # store would let later repeats splice the edited function too)
    rebuild_s = None
    rebuild_text = None
    store = None
    for _ in range(REPEATS):
        store = FunctionArtifactStore()
        _time_pipeline(lambda: _build_fleet_module(funcs), store=store,
                       repeats=1)
        elapsed, text = _time_pipeline(
            lambda: _build_fleet_module(edited_funcs), store=store,
            repeats=1)
        if rebuild_s is None or elapsed < rebuild_s:
            rebuild_s, rebuild_text = elapsed, text

    cold_edited_s, cold_edited_text = _time_pipeline(
        lambda: _build_fleet_module(edited_funcs), store=None)
    return {
        "functions": len(funcs),
        "edited": 1,
        "cold_s": round(cold_s, 4),
        "cold_edited_s": round(cold_edited_s, 4),
        "incremental_rebuild_s": round(rebuild_s, 4),
        "speedup": round(cold_edited_s / rebuild_s, 2) if rebuild_s else None,
        "identical": rebuild_text == cold_edited_text,
        "floor": INCREMENTAL_FLOOR,
        "floor_checkable": True,
        "store": store.counters.as_dict(),
    }


def main() -> int:
    argv = sys.argv[1:]
    quick = "--quick" in argv
    check_floor = "--check-floor" in argv
    argv = [a for a in argv if a not in ("--quick", "--check-floor")]
    output = argv[0] if argv else DEFAULT_OUTPUT

    runs = []
    failures = 0
    for flow_name in available_flows():
        for workload_name in QUICK_WORKLOADS if quick else WORKLOADS:
            entry = bench_flow(flow_name, workload_name)
            runs.append(entry)
            if not entry["ok"]:
                failures += 1
                print(f"{flow_name:6s} {workload_name:10s} "
                      f"FAILED: {entry['error']}", file=sys.stderr)
                continue
            slowest = max(entry["passes"], key=lambda p: p["wall_s"],
                          default=None)
            slowest_text = (f"slowest {slowest['pass']} "
                            f"{slowest['wall_s'] * 1000:6.1f}ms"
                            if slowest else "no pass timings")
            print(f"{flow_name:6s} {workload_name:10s} "
                  f"flow {entry['wall_s'] * 1000:7.1f}ms  "
                  f"passes {(entry['pass_total_s'] or 0) * 1000:7.1f}ms  "
                  f"{slowest_text}")

    incremental = bench_incremental()
    print(f"incremental {incremental['functions']} funcs (1 edited)  "
          f"cold {incremental['cold_edited_s'] * 1000:7.1f}ms  "
          f"rebuild {incremental['incremental_rebuild_s'] * 1000:7.1f}ms  "
          f"speedup {incremental['speedup']}x  "
          f"identical={incremental['identical']}")

    ok_runs = [r for r in runs if r["ok"]]
    per_pass_totals = {}
    for run in ok_runs:
        for timing in run["passes"]:
            per_pass_totals[timing["pass"]] = \
                per_pass_totals.get(timing["pass"], 0.0) + timing["wall_s"]
    report = {
        "benchmark": "compile_bench",
        "quick": quick,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "runs": runs,
        "total_flow_wall_s": round(sum(r["wall_s"] for r in ok_runs), 4),
        "total_pass_wall_s": round(
            sum(r["pass_total_s"] or 0.0 for r in ok_runs), 4),
        "per_pass_total_s": {name: round(total, 4) for name, total
                             in sorted(per_pass_totals.items(),
                                       key=lambda kv: -kv[1])},
        "incremental": incremental,
    }
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps({k: v for k, v in report.items() if k != "runs"},
                     indent=2))

    # correctness is never optional: the spliced rebuild must be
    # bit-identical to a cold compile on every run
    if not incremental["identical"]:
        print("FAIL: incremental output is not bit-identical to the cold "
              "compile", file=sys.stderr)
        failures += 1
    if check_floor and incremental["speedup"] < incremental["floor"]:
        print(f"FAIL: incremental rebuild speedup "
              f"{incremental['speedup']}x is below the "
              f"{incremental['floor']}x floor", file=sys.stderr)
        failures += 1

    if failures:
        print(f"FAIL: {failures} check(s) failed", file=sys.stderr)
        return 1
    print(f"OK: {len(ok_runs)} flow runs, "
          f"total pass time {report['total_pass_wall_s']}s, "
          f"incremental {incremental['speedup']}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
