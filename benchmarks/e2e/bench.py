#!/usr/bin/env python3
"""End-to-end benchmark: Fortran source to served artifact, seven workloads.

Driver contract (``BENCHMARK.json``)::

    python3 benchmarks/e2e/bench.py --workload W --seed N --seconds S --trace 0|1

runs one workload once and prints, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

For people::

    python3 benchmarks/e2e/bench.py run [--seed 12] [--workload W] [--runs N]
                                        [--trace] [--quick] [-o OUT.json]
    python3 benchmarks/e2e/bench.py compare A.json B.json
    python3 benchmarks/e2e/bench.py regenerate-expected

``run`` prints every metric by name with its unit, checks every output, and
exits non-zero on any wrong answer.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
from recorder import PATH, write_chrome_trace  # noqa: E402

OUT_DIR = HERE / "out"
#: One run — every process it starts — must be over in 180 s.
RUN_TIMEOUT_S = 170.0

#: Process-global switches a developer's shell may carry; a measured process
#: must not inherit them.
SCRUBBED_ENV = ("REPRO_DAEMON_SOCKET", "REPRO_CACHE_DIR", "REPRO_FAULTS",
                "REPRO_NO_DAEMON", "REPRO_NO_JIT_CACHE", "REPRO_CACHE_BUDGET",
                "REPRO_JOB_TIMEOUT", "REPRO_JOB_RETRIES",
                "REPRO_CLIENT_RETRIES")

WORKLOAD_NAMES = spec.WORKLOAD_NAMES


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (not: a wrong answer)."""


# ---------------------------------------------------------------------------
# running one measured process under the speed probe
# ---------------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    # str hashes decide set iteration order in places; pin them so exact
    # counts repeat and timings do not depend on the draw
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode: str, workload: str, seed: int, seconds: float,
              quick: bool, trace: bool, workdir: Path,
              speed: calibrate.SpeedTrace, deadline: float) -> Dict[str, Any]:
    """Run ``child.py`` in its own session, sampling machine speed until it
    exits.  Whatever happens, no process of that session outlives this."""
    result_path = workdir / f"{mode}.result.json"
    command = [sys.executable, str(HERE / "child.py"), mode,
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--quick", str(int(quick)),
               "--trace", str(int(trace)), "--result", str(result_path)]
    log_path = workdir / f"{mode}.log"
    with open(log_path, "wb") as log:
        spawned = time.perf_counter()
        process = subprocess.Popen(command, cwd=workdir, env=child_env(),
                                   stdout=log, stderr=subprocess.STDOUT,
                                   start_new_session=True)
        try:
            while process.poll() is None:
                if time.perf_counter() > deadline:
                    raise BenchmarkError(
                        f"{workload} ({mode}) ran past {RUN_TIMEOUT_S:.0f}s")
                tick = time.perf_counter()
                speed.sample()
                time.sleep(max(0.0, calibrate.SAMPLE_PERIOD_S
                               - (time.perf_counter() - tick)))
            speed.sample()
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            process.wait()
    if process.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(errors="replace")[-2000:]
        raise BenchmarkError(f"{workload} ({mode}) exited with "
                             f"{process.returncode}:\n{tail}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["spawned"] = spawned
    return result


# ---------------------------------------------------------------------------
# raw result -> metrics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one timing's samples."""
    if not values:
        return {"n": 0}
    return {"n": len(values), "median": percentile(values, 50),
            "p25": percentile(values, 25), "p75": percentile(values, 75),
            "p90": percentile(values, 90), "p95": percentile(values, 95),
            "p99": percentile(values, 99),
            "min": min(values), "max": max(values)}


def end_to_end_metrics(raw: Dict[str, Any], speed: calibrate.SpeedTrace
                       ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    intervals = raw["intervals"]
    norm = speed.normalise_all
    busy = norm(intervals.get("iter", []))
    samples = norm(intervals.get("iter.sample", [])) or busy
    if not samples:
        raise BenchmarkError("the workload recorded no iteration")
    setups = norm(intervals.get("setup", []))
    setup = (sum(norm(intervals.get("import", [])))
             + (statistics.median(setups) if setups else 0.0)
             + sum(norm(intervals.get("warmup", []))))
    tail_pct = raw["info"]["tail_percentile"]
    metrics = {
        "setup_s": setup,
        "wall_s": (statistics.fmean(samples) if raw["info"]["wall_is_mean"]
                   else percentile(samples, 50)),
        "tail_s": percentile(samples, tail_pct),
        "ops_per_s": raw["counts"].get("ops", 0) / sum(busy),
        "peak_rss_mb": raw["info"]["peak_rss_kb"] / 1024.0,
    }
    detail = {"samples": describe(samples), "iterations": len(busy),
              "tail_percentile": tail_pct,
              "wall_statistic": ("mean" if raw["info"]["wall_is_mean"]
                                 else "median"),
              "setup_repetitions": len(setups)}
    for name, values in intervals.items():
        if name.startswith("engine."):
            detail.setdefault("engines", {})[name[7:]] = describe(norm(values))
    return metrics, detail


def _span_durations(spans: List[List[Any]], speed: calibrate.SpeedTrace
                    ) -> Dict[str, List[float]]:
    by_name: Dict[str, List[float]] = {}
    for name, _cat, start, end, _parent, _req in spans:
        by_name.setdefault(name, []).append(speed.normalise(start, end))
    return by_name


def _foreign(raw: Dict[str, Any], speed: calibrate.SpeedTrace,
             name: str) -> float:
    """A duration another process measured, at reference speed."""
    entry = raw["foreign"].get(name)
    if not entry:
        return 0.0
    value, start, end = entry
    wall = end - start
    return value * speed.normalise(start, end) / wall if wall > 0 else value


def trace_ratios(measured: Dict[str, Any], probed: Dict[str, Any],
                 speed: calibrate.SpeedTrace) -> Tuple[float, float]:
    """``(trace.coverage, trace.overhead_ratio)``.

    Coverage is the share of the untraced wall that the traced replay's
    top-level spans account for; overhead is traced wall over untraced wall.
    ``tables_cold`` has no in-process replay — its iteration is a process —
    so the probe's hand-sequenced ``run_job`` stands in for it."""
    norm = speed.normalise_all
    intervals = measured["intervals"]
    untraced = norm(intervals.get("iter.sample", [])
                    or intervals.get("iter", []))
    if not untraced:
        return 0.0, 0.0
    base = percentile(untraced, 50)
    traced = norm(intervals.get("traced.sample", [])
                  or intervals.get("traced", []))
    if traced and measured["spans"]:
        top = sum(speed.normalise(s[2], s[3]) for s in measured["spans"]
                  if s[1] == PATH and s[4] == -1)
        overhead = percentile(traced, 50) / base
        return top / sum(traced) * overhead, overhead
    start_up = speed.normalise(probed["spawned"], probed["info"]["t_main"])
    path = start_up + sum(speed.normalise(s[2], s[3])
                          for s in probed["spans"] if s[1] == PATH)
    harness = sum(speed.normalise(s[2], s[3]) for s in probed["spans"]
                  if s[0] == "harness.run_tables")
    imported = sum(speed.normalise(s[2], s[3]) for s in probed["spans"]
                   if s[0] == "proc.import")
    traced_wall = (start_up + imported + harness
                   + sum(norm(probed["intervals"].get("path", []))))
    return path / base, traced_wall / base


def per_layer_metrics(measured: Dict[str, Any], probed: Dict[str, Any],
                      speed: calibrate.SpeedTrace) -> Dict[str, float]:
    lists = _span_durations(probed["spans"], speed)
    sums = {name: sum(values) for name, values in lists.items()}
    counts = probed["counts"]

    def seconds(name: str) -> float:
        return sums.get(name, 0.0)

    def median_of(name: str) -> float:
        values = lists.get(name, [])
        return percentile(values, 50) if values else 0.0

    out: Dict[str, float] = {name: 0.0 for name, _, _ in spec.PER_LAYER}
    out["frontend.parse_s"] = seconds("frontend.parse")
    out["frontend.analyze_s"] = seconds("frontend.analyze")
    out["frontend.lower_s"] = seconds("frontend.lower")
    tokenize = seconds("frontend.tokenize")
    out["frontend.tokens_per_s"] = (counts.get("frontend.tokens", 0) / tokenize
                                    if tokenize else 0.0)
    out["flow.run_s.flang"] = seconds("flow.run.flang")
    out["flow.run_s.ours"] = seconds("flow.run.ours")
    out["core.fir_to_standard_s"] = seconds("core.fir_to_standard")
    out["passes.total_s"] = sum(value for name, value in sums.items()
                                if name.startswith("pass."))
    out["flow.other_s"] = (
        out["flow.run_s.flang"] + out["flow.run_s.ours"]
        - out["passes.total_s"] - out["frontend.parse_s"]
        - out["frontend.analyze_s"] - out["frontend.lower_s"]
        - out["core.fir_to_standard_s"])
    for name in spec.NAMED_PASSES:
        out[f"passes.{name}_s"] = seconds(f"pass.{name}")
    out["ir.clone_s"] = seconds("ir.clone")
    out["ir.print_s"] = seconds("ir.print")
    out["ir.fingerprint_s"] = seconds("ir.fingerprint")
    for engine in ("compiled", "jit", "vector"):
        out[f"machine.first_run_s.{engine}"] = seconds(
            f"machine.first.{engine}")
        out[f"machine.run_s.{engine}"] = seconds(f"machine.run.{engine}")
    runs = (counts.get("machine.vector.vector_runs", 0)
            + counts.get("machine.vector.fallback_runs", 0))
    out["machine.vector.commit_ratio"] = (
        counts.get("machine.vector.vector_runs", 0) / runs if runs else 0.0)
    out["service.key_s"] = seconds("service.key")
    out["service.run_job_s"] = _foreign(probed, speed, "service.run_job")
    out["service.submit_overhead_s"] = (seconds("service.submit")
                                        - out["service.run_job_s"])
    out["service.serialise_s"] = seconds("service.serialise")
    out["service.store_put_s"] = seconds("service.store_put")
    out["service.store_get_s"] = seconds("service.store_get")
    out["service.deserialise_s"] = seconds("service.deserialise")
    out["harness.batch_s"] = seconds("harness.batch")
    out["harness.tables_s"] = seconds("harness.tables")
    out["daemon.startup_s"] = seconds("daemon.startup")
    out["client.connect_s"] = seconds("client.connect")
    out["client.ping_s"] = median_of("client.ping")
    responses = counts.get("client.responses", 0)
    out["client.response_bytes"] = (
        counts.get("client.response_bytes_total", 0) / responses
        if responses else 0.0)
    # the daemon's percentiles are per flow: weight by its compile counts,
    # and take the wire's share flow by flow (a median across flows minus a
    # mean of per-flow medians would mean nothing)
    flows = {name.rsplit(".", 1)[1]: count for name, count in counts.items()
             if name.startswith("daemon.compiles.")}
    compiles = sum(flows.values()) or 1
    for flow, count in flows.items():
        share = count / compiles
        p50 = _foreign(probed, speed, f"daemon.compile_p50_s.{flow}")
        out["daemon.compile_p50_s"] += share * p50
        out["daemon.compile_p99_s"] += share * _foreign(
            probed, speed, f"daemon.compile_p99_s.{flow}")
        out["daemon.miss_overhead_s"] += share * (
            median_of(f"client.execute.miss.{flow}") - p50)
    out["proc.import_s"] = seconds("proc.import")
    for name in out:
        if name in counts:
            out[name] = counts[name]
    out["trace.coverage"], out["trace.overhead_ratio"] = trace_ratios(
        measured, probed, speed)
    return out


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------


def environment() -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = ROOT / ".git" / text[5:]
            commit = ref.read_text().strip() if ref.exists() else text
        else:
            commit = text
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "load_average_1m": load,
            "git_commit": commit, "platform": platform.platform()}


def require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        raise BenchmarkError(
            f"no program to measure: {ROOT / 'src' / 'repro'} is missing "
            f"(run from a checkout of the repository)")


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             quick: bool = False) -> Dict[str, Any]:
    """One run of one workload: end-to-end metrics, or per-layer metrics
    when ``trace`` — never both, tracing never touches a reported timing."""
    require_program()
    if workload not in WORKLOAD_NAMES:
        raise BenchmarkError(f"unknown workload {workload!r} (choose from "
                             f"{', '.join(WORKLOAD_NAMES)})")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT_DIR))
    cpu = calibrate.pin_to_one_cpu()
    speed = calibrate.SpeedTrace(shares_cpu=cpu is not None)
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    try:
        measured = run_child("measure", workload, seed, seconds, quick, trace,
                             workdir, speed, deadline)
        attempted, failed = measured["attempted"], measured["failed"]
        failures = list(measured["failures"])
        result: Dict[str, Any] = {"workload": workload, "seed": seed,
                                  "seconds": seconds, "quick": quick,
                                  "trace": trace, "cpu": cpu}
        if trace:
            probed = run_child("probe", workload, seed, seconds, quick, True,
                               workdir, speed, deadline)
            attempted += probed["attempted"]
            failed += probed["failed"]
            failures += probed["failures"]
            result["metrics"] = per_layer_metrics(measured, probed, speed)
            result["rows"] = probed["rows"]
            trace_path = OUT_DIR / f"trace.{workload}.json"
            write_chrome_trace(str(trace_path),
                               measured["spans"] + probed["spans"])
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            result["metrics"], result["detail"] = end_to_end_metrics(
                measured, speed)
        result.update(attempted=attempted, failed=failed, failures=failures,
                      correct=failed == 0 and attempted > 0,
                      info=measured["info"], machine=speed.summary())
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def metric_units(trace: bool) -> Dict[str, str]:
    if trace:
        return {name: unit for name, unit, _ in spec.PER_LAYER}
    return {name: unit for name, unit, _, _ in spec.END_TO_END}


def driver_line(result: Dict[str, Any]) -> str:
    units = metric_units(result["trace"])
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()}})


def print_result(result: Dict[str, Any], stream=sys.stdout) -> None:
    units = metric_units(result["trace"])
    kind = "per-layer" if result["trace"] else "end-to-end"
    print(f"== {result['workload']}  seed {result['seed']}  {kind}  "
          f"(machine at {result['machine'].get('slowdown_median', 0):.2f}x "
          f"reference time)", file=stream)
    for name, unit in units.items():
        print(f"  {name:36s} {result['metrics'][name]:>16.6g} {unit}",
              file=stream)
    detail = result.get("detail")
    if detail:
        s = detail["samples"]
        tail = (f"p{detail['tail_percentile']:g}"
                if detail["tail_percentile"] < 100
                else f"slowest (of {s['n']}: not a percentile)")
        print(f"  samples: n={s['n']} median={s['median']:.6g}s "
              f"p25={s['p25']:.6g}s p75={s['p75']:.6g}s; wall_s is their "
              f"{detail['wall_statistic']}, tail_s their {tail}; "
              f"{detail['iterations']} iterations", file=stream)
        for engine, d in detail.get("engines", {}).items():
            print(f"  engine {engine:9s} round median={d['median']:.6g}s "
                  f"p25={d['p25']:.6g}s p75={d['p75']:.6g}s n={d['n']}",
                  file=stream)
    print(f"  checked {result['attempted']} outputs, {result['failed']} "
          f"failed (fail_ratio "
          f"{result['failed'] / max(1, result['attempted']):.4g})",
          file=stream)
    for failure in result["failures"][:5]:
        print(f"    FAILED: {failure}", file=stream)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def warn_if_loaded() -> None:
    try:
        load = os.getloadavg()[0]
    except OSError:
        return
    if load > 1.0:
        print(f"warning: load average is {load:.2f}; timings are normalised "
              f"to machine speed but contention this high still adds noise",
              file=sys.stderr)


def cmd_driver(args: argparse.Namespace) -> int:
    result = run_once(args.workload, args.seed, args.seconds,
                      bool(args.trace), bool(args.quick))
    print_result(result, stream=sys.stderr)
    print(driver_line(result))
    return 0 if result["correct"] else 1


def cmd_run(args: argparse.Namespace) -> int:
    warn_if_loaded()
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    seconds = 0.5 if args.quick else float(spec.RUN_SECONDS)
    runs: List[Dict[str, Any]] = []
    started = time.time()
    for name in names:
        for index in range(args.runs):
            result = run_once(name, args.seed + index, seconds, False,
                              args.quick)
            print_result(result)
            runs.append(result)
        if args.trace:
            result = run_once(name, args.seed, seconds, True, args.quick)
            print_result(result)
            runs.append(result)
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    summary = {
        "benchmark": "e2e", "environment": environment(),
        "seed": args.seed, "seconds": seconds, "quick": args.quick,
        "elapsed_s": round(time.time() - started, 1),
        "runs": runs, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / max(1, attempted),
        # this benchmark defines the yardstick; it claims no gain
        "claim": None,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
    print(f"{len(runs)} runs, {attempted} outputs checked, {failed} failed, "
          f"{summary['elapsed_s']}s; claim: null")
    return 1 if failed or not attempted else 0


def _collect(path: str) -> Dict[Tuple[str, str, bool], List[float]]:
    with open(path, encoding="utf-8") as handle:
        summary = json.load(handle)
    values: Dict[Tuple[str, str, bool], List[float]] = {}
    for run in summary["runs"]:
        for name, value in run["metrics"].items():
            values.setdefault((name, run["workload"], run["trace"]),
                              []).append(value)
    return values


def compare_rows(a: Dict, b: Dict) -> List[Dict[str, Any]]:
    """One row per (end-to-end metric, workload), then one per exact count."""
    rows: List[Dict[str, Any]] = []
    for metric, unit, better, bound in spec.END_TO_END:
        for workload in WORKLOAD_NAMES:
            base = a.get((metric, workload, False))
            new = b.get((metric, workload, False))
            if not base or not new:
                continue
            base_d, new_d = describe(base), describe(new)
            ratio = new_d["median"] / base_d["median"]
            worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
            spread = max((d["p75"] - d["p25"]) / d["median"]
                         for d in (base_d, new_d))
            above, below = min(new) > max(base), max(new) < min(base)
            all_worse, all_better = ((above, below) if better == "lower"
                                     else (below, above))
            if worse > bound and (spread <= bound or all_worse):
                verdict = "regressed"
            elif spread > bound and not all_better:
                # the runs cannot tell a change of ``bound`` from no change,
                # however close their medians happened to land
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"metric": metric, "workload": workload,
                         "unit": unit, "base": base_d, "new": new_d,
                         "ratio": ratio, "ratio_base": base_d["median"],
                         "bound": bound, "spread": spread,
                         "verdict": verdict})
    for metric in spec.EXACT_COUNTS:
        for workload in WORKLOAD_NAMES:
            base = a.get((metric, workload, True))
            new = b.get((metric, workload, True))
            if not base or not new:
                continue
            same = set(base) == set(new) and len(set(base)) == 1
            rows.append({"metric": metric, "workload": workload,
                         "unit": "exact", "base": {"median": base[0]},
                         "new": {"median": new[0]},
                         "verdict": "ok" if same else "differs"})
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    rows = compare_rows(_collect(args.base), _collect(args.new))
    bad = 0
    print(f"{'metric':28s} {'workload':13s} {'base median [p25,p75]':>34s} "
          f"{'new median [p25,p75]':>34s} {'ratio':>7s} {'bound':>6s} verdict")
    for row in rows:
        if row["unit"] == "exact":
            if row["verdict"] != "ok":
                print(f"{row['metric']:28s} {row['workload']:13s} "
                      f"{row['base']['median']!s:>34} "
                      f"{row['new']['median']!s:>34} {'':7s} {'exact':>6s} "
                      f"{row['verdict']}")
        else:
            def cell(d):
                return (f"{d['median']:.5g} [{d['p25']:.5g},{d['p75']:.5g}] "
                        f"n={d['n']}")
            print(f"{row['metric']:28s} {row['workload']:13s} "
                  f"{cell(row['base']):>34s} {cell(row['new']):>34s} "
                  f"{row['ratio']:7.3f} {row['bound']:6.2f} {row['verdict']}"
                  f"  (ratio to base {row['ratio_base']:.5g} {row['unit']})")
        bad += row["verdict"] not in ("ok",)
    exact = sum(1 for r in rows if r["unit"] == "exact")
    print(f"{len(rows) - exact} metric/workload pairs, {exact} exact counts, "
          f"{bad} not ok")
    return 1 if bad else 0


def cmd_regenerate(args: argparse.Namespace) -> int:
    require_program()
    completed = subprocess.run(
        [sys.executable, str(HERE / "expected.py"), str(inputs.EXPECTED_PATH)],
        env=child_env(), cwd=ROOT)
    return completed.returncode


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run workloads, print every metric")
    run.add_argument("--seed", type=int, default=12)
    run.add_argument("--workload", choices=WORKLOAD_NAMES)
    run.add_argument("--runs", type=int, default=1,
                     help="untraced runs per workload (seed, seed+1, ...)")
    run.add_argument("--trace", action="store_true",
                     help="add one traced run per workload (per-layer)")
    run.add_argument("--quick", action="store_true",
                     help="tiny program sets, for the self-test")
    run.add_argument("-o", "--output", metavar="OUT.json")
    compare = sub.add_parser("compare", help="compare two `run` outputs")
    compare.add_argument("base")
    compare.add_argument("new")
    sub.add_parser("regenerate-expected",
                   help="rewrite expected_output.json (reference engine)")
    return parser


def driver_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a terminated runner still kills its measured session and removes its
    # scratch directory: turn SIGTERM into an exit the ``finally``s see
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if argv and argv[0].startswith("--") and argv[0] not in ("-h",
                                                                 "--help"):
            return cmd_driver(driver_parser().parse_args(argv))
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "regenerate-expected":
            return cmd_regenerate(args)
        build_parser().print_help()
        return 2
    except BenchmarkError as exc:
        print(f"bench.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
