"""Differential conformance oracle.

Compiles a kernel through **every registered flow** (plus a no-opt baseline
of the paper's flow), executes each compiled module on **every interpreter
engine** (cached-dispatch, the one-op reference, and the trace-compiling
jit), and flags any divergence in the declared observables:

* between the engines of one flow, printed output and
  :class:`~repro.machine.ExecutionStats` must match **bit for bit** — all
  engines execute the very same module;
* across flows, printed output must match **numerically**: integer and
  logical tokens exactly, real tokens to a tight tolerance (flows may
  legitimately reorder f64 reductions, which perturbs the last few ulps;
  anything above ``rtol=1e-9`` is a real divergence).  Statistics are *not*
  comparable across flows — different pipelines execute different IR.

Two execution paths share the comparison logic: :func:`check_kernel` runs
in-process (what the reducer's predicate uses), and :func:`run_sweep` routes
``(seed, flow, engine)`` jobs through the :class:`~repro.service.CompileService`
scheduler so big sweeps fan out across cores and cache across runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..flows import ENGINES, available_flows, get_flow, source_workload
from ..machine import Interpreter
from ..service import CompileJob, CompileService
from ..service.serialization import stats_to_dict
from .generator import GeneratedKernel, generate

#: Cross-flow tolerance for real-valued output tokens.
REAL_RTOL = 1e-9
REAL_ATOL = 1e-12


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowConfig:
    """One compiled variant under test: a flow name plus pipeline options."""

    label: str
    flow: str
    options: Tuple[Tuple[str, Any], ...] = ()

    def options_dict(self) -> Dict[str, Any]:
        return dict(self.options)


def default_configs() -> List[FlowConfig]:
    """Every registered flow under default options, plus a no-opt baseline.

    The baseline disables the paper flow's vectoriser/unroller/tiler so
    kernel results are also checked against a straight-line compilation.
    """
    names = available_flows()
    configs = [FlowConfig(label=name, flow=name) for name in names]
    if "ours" in names:
        configs.append(FlowConfig(
            label="ours@noopt", flow="ours",
            options=(("tile", False), ("unroll", 0), ("vector_width", 0))))
    return configs


# ---------------------------------------------------------------------------
# observations and divergences
# ---------------------------------------------------------------------------


@dataclass
class Observation:
    """What one (flow config, engine) pair produced for a kernel."""

    config: str
    engine: str
    ok: bool
    printed: Tuple[str, ...] = ()
    stats: Optional[Dict[str, Any]] = None
    error: str = ""

    @property
    def label(self) -> str:
        return f"{self.config}@{self.engine}"


@dataclass
class Divergence:
    """One observed disagreement between two observations of a kernel."""

    kind: str                   # engine-output | engine-stats | engine-error |
                                # flow-output | flow-error | all-failed
    left: str
    right: str
    detail: str
    seed: Optional[int] = None

    def describe(self) -> str:
        prefix = f"seed {self.seed}: " if self.seed is not None else ""
        return f"{prefix}[{self.kind}] {self.left} vs {self.right}: {self.detail}"


@dataclass
class KernelReport:
    """All observations and divergences for one kernel."""

    source: str
    seed: Optional[int] = None
    observations: Dict[Tuple[str, str], Observation] = field(default_factory=dict)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class SweepReport:
    """Outcome of a multi-seed conformance sweep."""

    seeds: List[int] = field(default_factory=list)
    configs: List[str] = field(default_factory=list)
    engines: List[str] = field(default_factory=lambda: list(ENGINES))
    divergent: List[KernelReport] = field(default_factory=list)
    duration: float = 0.0
    service_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergent

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergent)} divergent seed(s)"
        return (f"conformance sweep: {len(self.seeds)} seed(s) x "
                f"{len(self.configs)} flow config(s) x "
                f"{len(self.engines)} engine(s) "
                f"in {self.duration:.1f}s -> {status}")


# ---------------------------------------------------------------------------
# printed-output comparison
# ---------------------------------------------------------------------------


def _parse_number(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return None


def _tokens_equivalent(a: str, b: str, rtol: float, atol: float) -> bool:
    if a == b:
        return True
    na, nb = _parse_number(a), _parse_number(b)
    if na is None or nb is None:
        return False
    if isinstance(na, int) and isinstance(nb, int):
        return na == nb
    fa, fb = float(na), float(nb)
    if math.isnan(fa) or math.isnan(fb):
        return math.isnan(fa) and math.isnan(fb)
    return bool(np.isclose(fa, fb, rtol=rtol, atol=atol))


def printed_difference(a: Sequence[str], b: Sequence[str], *,
                       rtol: float = REAL_RTOL,
                       atol: float = REAL_ATOL) -> Optional[str]:
    """First numeric-aware difference between two printed outputs, or None."""
    if len(a) != len(b):
        return f"line count {len(a)} != {len(b)}"
    for index, (line_a, line_b) in enumerate(zip(a, b)):
        tokens_a, tokens_b = line_a.split(), line_b.split()
        if len(tokens_a) != len(tokens_b):
            return f"line {index}: {line_a!r} != {line_b!r}"
        for token_a, token_b in zip(tokens_a, tokens_b):
            if not _tokens_equivalent(token_a, token_b, rtol, atol):
                return (f"line {index}: token {token_a!r} != {token_b!r} "
                        f"({line_a!r} vs {line_b!r})")
    return None


def _stats_difference(a: Optional[Dict], b: Optional[Dict]) -> Optional[str]:
    if a == b:
        return None
    from ..service.serialization import stats_from_dict
    if a is not None and b is not None:
        details = stats_from_dict(a).diff(stats_from_dict(b))
        if not details:
            return None
        shown = "; ".join(details[:4])
        more = f" (+{len(details) - 4} more)" if len(details) > 4 else ""
        return shown + more
    return "stats present on one engine only"


# ---------------------------------------------------------------------------
# comparison of a full observation set
# ---------------------------------------------------------------------------


def compare_observations(observations: Dict[Tuple[str, str], Observation],
                         configs: Sequence[FlowConfig], *,
                         engines: Sequence[str] = ENGINES,
                         seed: Optional[int] = None) -> List[Divergence]:
    divergences: List[Divergence] = []
    baseline_engine = engines[0]

    # 1. engine parity within each flow config: every other engine must be
    #    bit-exact against the baseline engine (output and statistics)
    for config in configs:
        compiled = observations[(config.label, baseline_engine)]
        for engine in engines[1:]:
            other = observations[(config.label, engine)]
            if compiled.ok != other.ok:
                broken = compiled if not compiled.ok else other
                divergences.append(Divergence(
                    kind="engine-error", left=compiled.label,
                    right=other.label,
                    detail=f"only {broken.label} failed: {broken.error}",
                    seed=seed))
                continue
            if not compiled.ok:
                continue  # all failed: reported by the cross-flow pass below
            if compiled.printed != other.printed:
                detail = printed_difference(compiled.printed, other.printed,
                                            rtol=0.0, atol=0.0) \
                    or "output differs"
                divergences.append(Divergence(
                    kind="engine-output", left=compiled.label,
                    right=other.label, detail=detail, seed=seed))
            stats_detail = _stats_difference(compiled.stats, other.stats)
            if stats_detail is not None:
                divergences.append(Divergence(
                    kind="engine-stats", left=compiled.label,
                    right=other.label, detail=stats_detail, seed=seed))

    # 2. cross-flow output parity on the baseline engine
    compiled_obs = [observations[(config.label, baseline_engine)]
                    for config in configs]
    ok_obs = [o for o in compiled_obs if o.ok]
    if not ok_obs:
        first = compiled_obs[0]
        divergences.append(Divergence(
            kind="all-failed", left=first.label, right=first.label,
            detail=f"every flow failed; first error: {first.error}", seed=seed))
        return divergences
    baseline = ok_obs[0]
    for observation in compiled_obs:
        if observation is baseline:
            continue
        if not observation.ok:
            divergences.append(Divergence(
                kind="flow-error", left=baseline.label, right=observation.label,
                detail=f"{observation.config} failed: {observation.error}",
                seed=seed))
            continue
        detail = printed_difference(baseline.printed, observation.printed)
        if detail is not None:
            divergences.append(Divergence(
                kind="flow-output", left=baseline.label,
                right=observation.label, detail=detail, seed=seed))
    return divergences


# ---------------------------------------------------------------------------
# in-process execution (used by the reducer and single-kernel checks)
# ---------------------------------------------------------------------------


def _observe_in_process(source: str, config: FlowConfig, max_ops: int,
                        engines: Sequence[str] = ENGINES) -> List[Observation]:
    """Compile once, interpret the same module on every engine."""
    workload = source_workload(source, name="conformance/adhoc")
    out: List[Observation] = []
    with np.errstate(all="ignore"):
        try:
            flow = get_flow(config.flow)
            result = flow.run(workload, config.options_dict(),
                              collect_statistics=False)
            if result.error is not None:
                raise RuntimeError(result.error)
            module = result.module
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
            return [Observation(config=config.label, engine=engine, ok=False,
                                error=message) for engine in engines]
        for engine in engines:
            try:
                interpreter = Interpreter(module, max_ops=max_ops,
                                          engine=engine)
                interpreter.run_main()
                out.append(Observation(
                    config=config.label, engine=engine, ok=True,
                    printed=tuple(interpreter.printed),
                    stats=stats_to_dict(interpreter.stats)))
            except Exception as exc:
                out.append(Observation(config=config.label, engine=engine,
                                       ok=False,
                                       error=f"{type(exc).__name__}: {exc}"))
    return out


def check_kernel(source: str, configs: Optional[Sequence[FlowConfig]] = None,
                 *, seed: Optional[int] = None,
                 engines: Optional[Sequence[str]] = None,
                 max_ops: int = 20_000_000) -> KernelReport:
    """Differentially check one kernel, fully in-process."""
    configs = list(configs) if configs is not None else default_configs()
    engines = list(engines) if engines is not None else list(ENGINES)
    report = KernelReport(source=source, seed=seed)
    for config in configs:
        for observation in _observe_in_process(source, config, max_ops,
                                               engines):
            report.observations[(config.label, observation.engine)] = observation
    report.divergences = compare_observations(report.observations, configs,
                                              engines=engines, seed=seed)
    return report


def check_seed(seed: int, configs: Optional[Sequence[FlowConfig]] = None,
               engines: Optional[Sequence[str]] = None) -> KernelReport:
    """Generate the kernel for ``seed`` and differentially check it."""
    return check_kernel(generate(seed).source, configs, seed=seed,
                        engines=engines)


# ---------------------------------------------------------------------------
# service-scheduled sweeps
# ---------------------------------------------------------------------------


def _seed_jobs(seed: int, configs: Sequence[FlowConfig],
               engines: Sequence[str]) -> Dict[Tuple[str, str], CompileJob]:
    jobs: Dict[Tuple[str, str], CompileJob] = {}
    for config in configs:
        for engine in engines:
            jobs[(config.label, engine)] = CompileJob(
                flow=config.flow, workload_name=f"conformance/{seed}",
                options=config.options_dict(), engine=engine)
    return jobs


def run_sweep(seeds: Iterable[int],
              configs: Optional[Sequence[FlowConfig]] = None, *,
              engines: Optional[Sequence[str]] = None,
              service: Optional[CompileService] = None,
              max_workers: int = 1,
              progress=None) -> SweepReport:
    """Differentially check many seeds through the compile service.

    All ``seed x flow x engine`` jobs go into one batch: the service
    deduplicates, strips cache hits and fans the misses out over its process
    pool (generated kernels are pool-safe because ``conformance/<seed>``
    names regenerate deterministically in any process).
    """
    seeds = list(seeds)
    configs = list(configs) if configs is not None else default_configs()
    engines = list(engines) if engines is not None else list(ENGINES)
    if service is None:
        service = CompileService(max_workers=max_workers)
    report = SweepReport(seeds=seeds, configs=[c.label for c in configs],
                         engines=engines)
    started = time.perf_counter()

    # Chunked submission: each chunk's artifacts are collected right after
    # its batch, so the service's memory LRU is never evicted between the
    # pool run and the comparison, and progress is incremental.
    jobs_per_seed = max(1, len(configs) * len(engines))
    chunk_size = max(1, 384 // jobs_per_seed)
    with np.errstate(all="ignore"):
        for offset in range(0, len(seeds), chunk_size):
            chunk = seeds[offset:offset + chunk_size]
            chunk_jobs: Dict[int, Dict[Tuple[str, str], CompileJob]] = {
                seed: _seed_jobs(seed, configs, engines) for seed in chunk}
            service.submit([job for per_seed in chunk_jobs.values()
                            for job in per_seed.values()],
                           max_workers=max_workers)
            for seed in chunk:
                kernel_report = KernelReport(source="", seed=seed)
                for (label, engine), job in chunk_jobs[seed].items():
                    artifact = service.execute(job)  # cache hit after submit
                    kernel_report.observations[(label, engine)] = Observation(
                        config=label, engine=engine, ok=artifact.ok,
                        printed=tuple(artifact.printed),
                        stats=stats_to_dict(artifact.stats)
                        if artifact.stats is not None else None,
                        error=artifact.error)
                kernel_report.divergences = compare_observations(
                    kernel_report.observations, configs, engines=engines,
                    seed=seed)
                if not kernel_report.ok:
                    kernel_report.source = generate(seed).source
                    report.divergent.append(kernel_report)
                if progress is not None:
                    progress(seed, kernel_report)

    report.duration = time.perf_counter() - started
    report.service_counters = service.counters()
    return report


__all__ = [
    "Divergence", "FlowConfig", "KernelReport", "Observation", "SweepReport",
    "check_kernel", "check_seed", "compare_observations", "default_configs",
    "printed_difference", "run_sweep",
]
