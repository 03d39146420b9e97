"""``python -m repro.conformance`` — differential conformance CLI.

Subcommands:

* ``run``   — sweep a seed range through every registered flow x both
  interpreter engines via the compile service (``--jobs`` fans out over a
  process pool); any divergence writes a self-contained repro file and the
  exit status is non-zero.
* ``repro`` — regenerate one seed, re-check it in-process, and (by default)
  shrink the kernel to a minimal repro.
* ``show``  — print the generated kernel for a seed.

Examples::

    python -m repro.conformance run --seeds 200 --jobs 8
    python -m repro.conformance run --seeds 64 --out conformance-repros
    python -m repro.conformance run --seeds 16 --jobs 4 --chaos 0
    python -m repro.conformance repro --seed 1337
    python -m repro.conformance show --seed 7
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import (FlowConfig, KernelReport, check_seed, default_configs,
               generate, run_sweep)
from ..flows import ENGINES
from .reduce import reduce_report


def _parse_engines(spec: Optional[str]) -> Optional[List[str]]:
    """``--engines compiled,jit`` selects interpreter engines (default all)."""
    if not spec:
        return None
    wanted = [name.strip() for name in spec.split(",") if name.strip()]
    if not wanted:
        raise SystemExit(f"--engines selected no engines "
                         f"(known: {', '.join(ENGINES)})")
    unknown = [name for name in wanted if name not in ENGINES]
    if unknown:
        raise SystemExit(f"unknown engine(s) {', '.join(unknown)} "
                         f"(known: {', '.join(ENGINES)})")
    return wanted


def _parse_flows(spec: Optional[str]) -> Optional[List[FlowConfig]]:
    """``--flows flang,ours`` filters the default config set by label."""
    if not spec:
        return None
    wanted = [label.strip() for label in spec.split(",") if label.strip()]
    configs = {config.label: config for config in default_configs()}
    missing = [label for label in wanted if label not in configs]
    if missing:
        known = ", ".join(sorted(configs))
        raise SystemExit(f"unknown flow config(s) {', '.join(missing)} "
                         f"(known: {known})")
    return [configs[label] for label in wanted]


def _write_repro(report: KernelReport, out_dir: str, *,
                 reduced: Optional[str]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"seed_{report.seed}.txt")
    lines = [f"conformance divergence repro — seed {report.seed}", ""]
    lines.append("divergences:")
    lines.extend(f"  - {d.describe()}" for d in report.divergences)
    lines.append("")
    if reduced is not None:
        lines.append(f"reduced kernel (reproduce with: python -m "
                     f"repro.conformance repro --seed {report.seed}):")
        lines.append(reduced.rstrip())
        lines.append("")
    lines.append("original kernel:")
    lines.append(report.source.rstrip())
    lines.append("")
    with open(path, "w") as handle:
        handle.write("\n".join(lines))
    return path


def _print_report(report: KernelReport) -> None:
    for divergence in report.divergences:
        print(f"  {divergence.describe()}")


def _sweep_service(args: argparse.Namespace):
    """A daemon-backed service when one is reachable, else a persistent
    in-process service.

    The in-process fallback binds the service to ``$REPRO_CACHE_DIR`` (when
    set), so sweep compiles persist whole-module artifacts and jit
    translations through the same sharded store a daemon would use —
    ``run_sweep``'s own fallback service is memory-only and was silently
    dropping them.
    Either path is bit-identical; only where compiles happen and whether
    artifacts outlive the process differ.
    """
    from ..service import CACHE_DIR_ENV, maybe_daemon_service
    from ..service.cache import ArtifactCache
    from ..service.client import DaemonUnavailable, discover_client
    from ..service.scheduler import CompileService

    service = None
    if not getattr(args, "no_daemon", False):
        socket_spec = getattr(args, "socket", None)
        service = maybe_daemon_service(socket_spec, max_workers=args.jobs)
        if service is None and socket_spec:
            # an explicitly named socket that does not answer is an error
            discover_client(socket_spec, require=True)  # raises
    if service is not None:
        print(f"using compilation daemon at {service.socket_spec}",
              file=sys.stderr)
        return service
    cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    return CompileService(ArtifactCache(cache_dir=cache_dir),
                          max_workers=args.jobs)


def _cmd_run(args: argparse.Namespace) -> int:
    configs = _parse_flows(args.flows)
    engines = _parse_engines(args.engines)
    seeds = range(args.start, args.start + args.seeds)

    if args.chaos is not None:
        from .chaos import quarantine_demo, run_chaos
        report = run_chaos(
            seeds, range(args.chaos, args.chaos + args.chaos_plans),
            configs=configs, engines=engines, jobs=max(2, args.jobs))
        print(report.summary())
        demo = quarantine_demo(jobs=max(2, args.jobs))
        print(f"quarantine demo: counters {demo['counters']}, "
              f"poison artifact cached: {demo['poisoned']}, "
              f"innocent batch-mate ok: {demo['innocent_ok']}")
        return 0 if report.ok and demo["ok"] else 1

    def progress(seed: int, report: KernelReport) -> None:
        if not report.ok:
            print(f"seed {seed}: DIVERGENT "
                  f"({', '.join(d.kind for d in report.divergences)})")
        elif args.verbose:
            print(f"seed {seed}: ok")

    from ..service.client import DaemonUnavailable
    try:
        service = _sweep_service(args)
    except DaemonUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_sweep(seeds, configs, engines=engines, max_workers=args.jobs,
                       service=service, progress=progress)
    print(report.summary())
    print(f"service counters: {report.service_counters}")
    if report.ok:
        return 0
    for kernel_report in report.divergent:
        _print_report(kernel_report)
        reduced = None
        if not args.no_reduce:
            print(f"reducing seed {kernel_report.seed} ...")
            try:
                reduced = reduce_report(kernel_report, configs)
                print(f"  reduced to {len(reduced.splitlines())} lines")
            except Exception as exc:   # reduction must never mask the find
                print(f"  reduction failed: {type(exc).__name__}: {exc}")
        path = _write_repro(kernel_report, args.out, reduced=reduced)
        print(f"  repro written to {path}")
    return 1


def _cmd_repro(args: argparse.Namespace) -> int:
    from ..ir.pass_manager import pipeline_settings
    from ..service.incremental import get_function_store

    configs = _parse_flows(args.flows)
    # The shrink loop recompiles near-identical kernels hundreds of times;
    # the function store turns untouched functions into splices, and the
    # checks stay bit-identical to cold compiles.
    store = None if args.no_incremental else get_function_store()
    with pipeline_settings(function_cache=store):
        report = check_seed(args.seed, configs,
                            engines=_parse_engines(args.engines))
        kernel = generate(args.seed)
        print(f"seed {args.seed}: features: {', '.join(kernel.features)}")
        if report.ok:
            print("no divergence — kernel is conformant on every registered "
                  "flow and every engine")
            return 0
        _print_report(report)
        reduced = None
        if not args.no_reduce:
            reduced = reduce_report(report, configs)
            print(f"\nreduced repro ({len(reduced.splitlines())} lines):\n")
            print(reduced)
    if args.out:
        path = _write_repro(report, args.out, reduced=reduced)
        print(f"repro written to {path}")
    return 1


def _cmd_show(args: argparse.Namespace) -> int:
    kernel = generate(args.seed)
    print(kernel.source)
    print(f"! features: {', '.join(kernel.features)}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="differential conformance testing: seeded kernel "
                    "generator + cross-flow/cross-engine oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="sweep a seed range")
    run_p.add_argument("--seeds", type=int, default=100,
                       help="number of seeds to sweep (default 100)")
    run_p.add_argument("--start", type=int, default=0,
                       help="first seed (default 0)")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="process-pool width for the compile service")
    run_p.add_argument("--flows", help="comma-separated flow config labels "
                                       "(default: every registered flow + "
                                       "the no-opt baseline)")
    run_p.add_argument("--engines",
                       help="comma-separated interpreter engines to "
                            f"cross-check (default: {','.join(ENGINES)})")
    run_p.add_argument("--out", default="conformance-repros",
                       help="directory for divergence repro files")
    run_p.add_argument("--no-reduce", action="store_true",
                       help="skip shrinking divergent kernels")
    run_p.add_argument("--verbose", action="store_true",
                       help="print every seed, not just divergent ones")
    run_p.add_argument("--socket", default=None, metavar="PATH",
                       help="compilation daemon socket (unix path or "
                            "tcp:HOST:PORT; default: $REPRO_DAEMON_SOCKET "
                            "or the per-user default, when one is running)")
    run_p.add_argument("--no-daemon", action="store_true",
                       help="never use a compilation daemon, even if one "
                            "is running")
    run_p.add_argument("--chaos", type=int, default=None, metavar="SEED",
                       help="chaos mode: rerun the sweep under seeded "
                            "fault-injection plans and require results "
                            "bit-identical to the fault-free baseline")
    run_p.add_argument("--chaos-plans", type=int, default=3, metavar="N",
                       help="number of fault plans to sweep in chaos mode "
                            "(plan seeds SEED..SEED+N-1; default 3)")
    run_p.set_defaults(func=_cmd_run)

    repro_p = sub.add_parser("repro", help="re-check and shrink one seed")
    repro_p.add_argument("--seed", type=int, required=True)
    repro_p.add_argument("--flows")
    repro_p.add_argument("--engines")
    repro_p.add_argument("--out", help="also write the repro file here")
    repro_p.add_argument("--no-reduce", action="store_true")
    repro_p.add_argument("--no-incremental", action="store_true",
                         help="disable the per-function stage store during "
                              "the shrink loop")
    repro_p.set_defaults(func=_cmd_repro)

    show_p = sub.add_parser("show", help="print the kernel for a seed")
    show_p.add_argument("--seed", type=int, required=True)
    show_p.set_defaults(func=_cmd_show)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:    # e.g. `... show --seed 7 | head`
        sys.exit(0)
