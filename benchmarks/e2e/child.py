"""Entry point of every process the runner measures.

``measure``         one workload's loop for ``--seconds`` (and, with
                    ``--trace 1``, half of that untraced and half replayed
                    with spans)
``probe``           the per-layer probe over the workload's programs
``cold-iteration``  the fresh process one ``tables_cold`` iteration is

Results go to ``--result`` as raw timestamps; the runner owns every
duration.  The working directory is the run's scratch directory.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from recorder import Recorder, clock  # noqa: E402


def run_loop(workload, rec: Recorder, phase: str, seconds: float) -> None:
    """Iterate for ``seconds`` (at least once), closed loop."""
    rec.phase = phase
    deadline = clock() + seconds
    n = 0
    while n == 0 or clock() < deadline:
        with rec.interval("prepare"):
            workload.prepare(n)
            # every iteration starts from a collected heap, so where the
            # cyclic collector's full passes land does not depend on how
            # many iterations came before
            gc.collect()
        started = clock()
        verify = workload.iteration(n)
        rec.add_interval(phase, started, clock())
        if verify is not None:
            verify()
        n += 1


def measure(args: argparse.Namespace) -> None:
    from workloads import WORKLOADS, Context
    rec = Recorder()
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, quick=bool(args.quick),
                  trace=bool(args.trace), workdir=Path.cwd(), rec=rec)
    workload = WORKLOADS[args.workload](ctx)
    try:
        try:
            workload.setup()
            if ctx.trace:
                run_loop(workload, rec, "iter", ctx.seconds / 2)
                if workload.traceable:
                    rec.tracing = True
                    run_loop(workload, rec, "traced", ctx.seconds / 2)
                    rec.tracing = False
            else:
                run_loop(workload, rec, "iter", ctx.seconds)
            workload.finish()
        finally:
            workload.cleanup()
        rec.info["peak_rss_kb"] = workload.peak_rss_kb()
        rec.info["tail_percentile"] = workload.tail_percentile
        rec.info["wall_is_mean"] = workload.wall_is_mean
    finally:
        rec.dump(args.result)


def probe(args: argparse.Namespace) -> None:
    from probe import run_probe
    from workloads import Context
    rec = Recorder(tracing=True)
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, quick=bool(args.quick), trace=True,
                  workdir=Path.cwd(), rec=rec)
    try:
        run_probe(ctx)
    finally:
        rec.dump(args.result)


def main() -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("measure", "probe",
                                         "cold-iteration"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--cache-dir")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    if args.mode == "cold-iteration":
        from workloads import run_cold_tables_process
        run_cold_tables_process(args.cache_dir, bool(args.quick), args.result)
    elif args.mode == "measure":
        measure(args)
    else:
        probe(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
