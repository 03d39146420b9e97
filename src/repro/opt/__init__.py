"""``python -m repro.opt`` — the repository's ``mlir-opt`` analogue.

Takes Fortran source (a file, stdin, a registered workload, or a built-in
demo kernel), runs either a *registered flow* or a *textual pass pipeline*
over it, and prints stage IR, per-pass timings and verification results:

    python -m repro.opt --flow ours --workload jacobi --timing
    python -m repro.opt --pipeline 'builtin.module(canonicalize,cse)'
    python -m repro.opt --flow ours --option vector_width=8 --dump-ir after
    python -m repro.opt --list-flows

Flows come from :mod:`repro.flows`; pipelines use the same mlir-opt syntax
as Listing 1, including op-anchored nesting (``func.func(canonicalize)``)
and typed pass options (``{virtual-vector-size=8}``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

# register every pass before pipelines are parsed
import repro.core  # noqa: F401
import repro.transforms  # noqa: F401
from ..flows import (DEFAULT_ENGINE, ENGINES, ExecutionContext, FlowError,
                     available_flows, get_flow, source_workload)
from ..frontend import lower_to_hlfir
from ..ir.pass_manager import (IRDumpInstrumentation, PassManager,
                               available_passes, pipeline_settings)
from ..ir.pass_manager import _parse_scalar
from ..ir.printer import print_op
from ..ir.verifier import VerificationError, verify_operation

#: Compiled when no source file and no --workload is given, so that bare
#: invocations like ``python -m repro.opt --pipeline '...'`` run end-to-end.
DEMO_SOURCE = """
subroutine demo_stencil(n)
  implicit none
  integer, intent(in) :: n
  integer :: i
  real(kind=8), dimension(64) :: u, unew
  do i=2, 63
    unew(i) = 0.5d0 * (u(i-1) + u(i+1))
  end do
end subroutine demo_stencil
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.opt",
        description="Run a registered compilation flow or an mlir-opt style "
                    "pass pipeline over Fortran source; print stage IR, "
                    "pass timings and verification results.")
    src = parser.add_argument_group("input")
    src.add_argument("source", nargs="?", metavar="FILE",
                     help="Fortran source file ('-' reads stdin; default: a "
                          "built-in demo kernel)")
    src.add_argument("--workload", metavar="NAME",
                     help="compile a registered workload instead of a file")
    src.add_argument("--workload-arg", action="append", default=[],
                     metavar="K=V",
                     help="workload variant argument (repeatable), e.g. "
                          "openmp=true")

    what = parser.add_argument_group("what to run")
    what.add_argument("--flow", metavar="NAME",
                      help="registered flow to run (default: 'ours' when no "
                           "--pipeline is given; see --list-flows)")
    what.add_argument("--option", action="append", default=[], metavar="K=V",
                      help="flow option (repeatable), validated against the "
                           "flow's options schema, e.g. vector_width=8")
    what.add_argument("--pipeline", metavar="PIPELINE",
                      help="textual pass pipeline in mlir-opt syntax, run "
                           "over the standard-dialect IR")
    what.add_argument("--from", dest="input_stage",
                      choices=("hlfir", "standard"), default="standard",
                      help="IR stage a --pipeline starts from "
                           "(default: standard)")
    what.add_argument("--threads", type=int, default=1, metavar="N",
                      help="execution context: thread count (flows derive "
                           "parallelisation from this)")
    what.add_argument("--gpu", action="store_true",
                      help="execution context: target the GPU lowering")
    what.add_argument("--engine", choices=ENGINES, default=DEFAULT_ENGINE,
                      help="execution context: interpreter engine the "
                           "artifact is built for (affects the service "
                           f"cache key; default: {DEFAULT_ENGINE})")
    what.add_argument("--no-incremental", action="store_true",
                      help="disable the per-function stage store: recompile "
                           "every function even if an identical one was "
                           "optimised before in this process")

    out = parser.add_argument_group("output")
    out.add_argument("-o", "--output", metavar="FILE",
                     help="write the final IR to FILE instead of stdout")
    out.add_argument("--timing", action="store_true",
                     help="print the per-pass timing report (wall time + IR "
                          "size delta)")
    out.add_argument("--print-stages", action="store_true",
                     help="print every named stage snapshot, not just the "
                          "final IR")
    out.add_argument("--no-print-ir", action="store_true",
                     help="suppress IR output (timings/verification only)")
    out.add_argument("--dump-ir", choices=("before", "after", "both"),
                     help="dump IR around every pass (to stderr)")
    out.add_argument("--dump-ir-pass", action="append", default=None,
                     metavar="PASS", help="restrict --dump-ir to these passes")
    out.add_argument("--verify-each", action="store_true",
                     help="verify the IR after every pass")
    out.add_argument("--no-verify", action="store_true",
                     help="skip the final verification")

    info = parser.add_argument_group("introspection")
    info.add_argument("--list-flows", action="store_true",
                      help="list registered flows with their options schemas")
    info.add_argument("--list-passes", action="store_true",
                      help="list every registered pass name")

    parser.add_argument("--no-daemon", action="store_true",
                        help="never fetch artifacts from a running "
                             "compilation daemon (daemon use requires "
                             "--workload and --no-verify, and no local-only "
                             "output such as --timing or --dump-ir)")
    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _parse_assignments(pairs: Sequence[str], what: str) -> Dict[str, Any]:
    """Parse repeated ``k=v`` CLI arguments with pipeline-option typing.

    Each argument is split on its first ``=``; the whole remainder is the
    value (spaces included), typed like a bare pipeline-option token.
    """
    out: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: {what} '{pair}' is not of the form K=V")
        out[key.replace("-", "_")] = _parse_scalar(value)
    return out


def _resolve_input(args) -> Any:
    if args.workload:
        from ..workloads import get_workload
        return get_workload(args.workload,
                            **_parse_assignments(args.workload_arg,
                                                 "--workload-arg"))
    if args.source and args.source != "-":
        with open(args.source) as handle:
            return source_workload(handle.read(), name=args.source)
    if args.source == "-":
        return source_workload(sys.stdin.read(), name="<stdin>")
    print("// no input given: compiling the built-in demo kernel "
          "(pass a file, '-', or --workload)", file=sys.stderr)
    return source_workload(DEMO_SOURCE, name="<demo>")


def _instrumentation(args) -> List[IRDumpInstrumentation]:
    if not args.dump_ir:
        return []
    return [IRDumpInstrumentation(before=args.dump_ir in ("before", "both"),
                                  after=args.dump_ir in ("after", "both"),
                                  only=args.dump_ir_pass)]


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _verify(module, label: str) -> bool:
    try:
        verify_operation(module)
    except VerificationError as exc:
        print(f"// verification FAILED ({label}): {exc}", file=sys.stderr)
        return False
    print(f"// verification: OK ({label})")
    return True


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def _daemon_eligible(args) -> bool:
    """Daemon-served runs must be pure artifact fetches.

    Anything that needs the live module object (final verification, stage
    snapshots, per-pass timing/IR dumps) keeps the in-process path — the
    fallback is silent, so behaviour without a daemon is exactly today's.
    """
    return (not args.no_daemon and args.workload is not None
            and args.no_verify and not args.timing and not args.print_stages
            and not args.verify_each and args.dump_ir is None)


def _run_via_daemon(args, flow, coerced, execution) -> Optional[int]:
    """Serve the run from a compilation daemon; ``None`` means fall back."""
    from ..service import CompileJob, CompileService
    from ..service.client import discover_client

    job = CompileJob(
        flow=flow.name, workload_name=args.workload,
        workload_kwargs=tuple(sorted(_parse_assignments(
            args.workload_arg, "--workload-arg").items())),
        options=coerced, threads=args.threads, gpu=args.gpu,
        engine=args.engine)
    if not CompileService._pool_safe(job):
        return None
    client = discover_client()
    if client is None:
        return None
    try:
        payload, cached = client.execute(job.spec())
    except Exception as exc:
        print(f"// daemon fetch failed ({exc}); compiling in-process",
              file=sys.stderr)
        return None
    finally:
        client.close()
    if not payload["ok"]:
        print(f"error: flow '{flow.name}' failed: {payload['error']}",
              file=sys.stderr)
        return 1
    print(f"// served by compilation daemon at {client.socket_spec}"
          f"{' (cached)' if cached else ''}", file=sys.stderr)
    if not args.no_print_ir:
        _emit(payload["module_text"], args.output)
    if payload.get("pipeline"):
        print(f"// pipeline: {payload['pipeline']}")
    return 0


def _run_flow(args, source) -> int:
    flow = get_flow(args.flow or "ours")
    options = _parse_assignments(args.option, "--option")
    try:
        coerced = flow.schema.coerce(options, strict=True)
    except FlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    execution = ExecutionContext(threads=args.threads, gpu=args.gpu,
                                 engine=args.engine)
    if _daemon_eligible(args):
        status = _run_via_daemon(args, flow, coerced, execution)
        if status is not None:
            return status
    from ..service.incremental import get_function_store
    result = flow.run(source, coerced, execution,
                      verify_each=args.verify_each,
                      instrumentation=_instrumentation(args),
                      function_cache=(None if args.no_incremental
                                      else get_function_store()),
                      stages=(flow.snapshot_stages if args.print_stages
                              else ()))
    if result.error is not None:
        print(f"error: flow '{flow.name}' failed: {result.error}",
              file=sys.stderr)
        return 1

    if args.print_stages and not args.no_print_ir:
        chunks = []
        for name, module in result.stages.items():
            if module is None:
                continue
            chunks.append(f"// -----// stage: {name} //----- //")
            chunks.append(print_op(module))
        _emit("\n".join(chunks), args.output)
    elif not args.no_print_ir:
        _emit(print_op(result.module), args.output)

    if result.pipeline:
        print(f"// pipeline: {result.pipeline}")
    if args.timing and result.timing is not None:
        print(result.timing.render())
    ok = True
    if not args.no_verify:
        ok = _verify(result.module, f"flow {flow.name}, final stage")
    return 0 if ok else 1


def _run_pipeline(args, source) -> int:
    from ..core.fir_to_standard import convert_fir_to_standard
    from ..service.incremental import get_function_store

    module = lower_to_hlfir(source.source(scaled=True))
    if args.input_stage == "standard":
        module = convert_fir_to_standard(module)
    pm = PassManager.from_pipeline(args.pipeline,
                                   verify_each=args.verify_each)
    for instr in _instrumentation(args):
        pm.add_instrumentation(instr)
    with pipeline_settings(function_cache=(None if args.no_incremental
                                           else get_function_store())):
        pm.run(module)

    if not args.no_print_ir:
        _emit(print_op(module), args.output)
    print(f"// pipeline: {pm.describe()}")
    if args.timing:
        print(pm.last_report.render())
    ok = True
    if not args.no_verify:
        ok = _verify(module, f"pipeline over {args.input_stage} IR")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_flows:
        for name in available_flows():
            flow = get_flow(name)
            print(f"{name}\n  {flow.description}\n"
                  f"  options: {flow.schema.describe()}")
        return 0
    if args.list_passes:
        for name in available_passes():
            print(name)
        return 0
    if args.flow and args.pipeline:
        print("error: --flow and --pipeline are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.pipeline and (args.option or args.threads != 1 or args.gpu
                          or args.engine != DEFAULT_ENGINE):
        # a raw pipeline has no options schema and no execution context to
        # normalise against — refuse rather than silently drop the flags
        print("error: --option/--threads/--gpu/--engine only apply to --flow "
              "runs, not --pipeline", file=sys.stderr)
        return 2

    try:
        source = _resolve_input(args)
    except (KeyError, OSError) as exc:
        print(f"error: cannot resolve input: {exc}", file=sys.stderr)
        return 2

    try:
        if args.pipeline:
            return _run_pipeline(args, source)
        return _run_flow(args, source)
    except FlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


__all__ = ["main", "build_parser", "DEMO_SOURCE"]
