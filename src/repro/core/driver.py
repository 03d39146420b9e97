"""Driver of the paper's compilation flow (Figure 2).

Fortran source is parsed with the (reused) Flang frontend, the combined
HLFIR/FIR IR is intercepted and lowered to the standard MLIR dialects by the
transformation of Section V, and the standard optimisation passes (plus the
paper's own passes) are applied.  The driver stops at that optimised
standard-dialect module — the level the machine executes; the lowering to
the ``llvm`` dialect that ends Listing 1 is not modelled.

The optimisation stage runs as ONE op-anchored nested pipeline
(:func:`repro.core.pipelines.standard_flow_pipeline`), so a compilation
yields a single :class:`~repro.ir.pass_manager.PassTimingReport` and can be
instrumented pass-by-pass (``python -m repro.opt --timing --dump-ir``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..dialects import dialects_used, uses_only_standard_dialects
from ..dialects.builtin import ModuleOp
from ..flows.base import FlowResult
from ..frontend import FortranLowering, analyze, parse_source
from ..frontend.units import program_units
from ..ir.core import Operation
from ..ir.pass_manager import (PassInstrumentation, PassTiming,
                               PassTimingReport, current_settings,
                               pipeline_settings)
from ..ir.verifier import verify_operation
from .fir_to_standard import convert_fir_to_standard
from . import pipelines


class StandardFlowResult(FlowResult):
    """All stages of one standard-MLIR-flow compilation.

    A :class:`~repro.flows.base.FlowResult` whose stages are ``hlfir``,
    ``standard`` and ``optimised``; the historical attribute names remain
    available as properties.  ``hlfir`` and ``standard`` are intermediate:
    kept only when the compile named them.
    """

    def __init__(self, source: str, hlfir_module: Optional[ModuleOp],
                 standard_module: Optional[ModuleOp],
                 optimised_module: ModuleOp,
                 pipeline_description: str = "",
                 timing: Optional[PassTimingReport] = None):
        super().__init__(flow="ours", source=source,
                         stages={"hlfir": hlfir_module,
                                 "standard": standard_module,
                                 "optimised": optimised_module},
                         pipeline=pipeline_description, timing=timing)

    @property
    def hlfir_module(self) -> ModuleOp:
        return self.kept_stage("hlfir")

    @property
    def standard_module(self) -> ModuleOp:
        return self.kept_stage("standard")

    @property
    def optimised_module(self) -> ModuleOp:
        return self.stages["optimised"]

    @property
    def pipeline_description(self) -> str:
        return self.pipeline

    @property
    def is_standard_only(self) -> bool:
        return uses_only_standard_dialects(self.standard_module)


class StandardMLIRCompiler:
    """The paper's flow: Flang frontend + standard MLIR dialects and passes.

    Options select the extra flows evaluated in Section VI:

    * ``vector_width`` — affine super-vectorisation width (4 on ARCHER2/AVX2,
      0 disables vectorisation);
    * ``parallelise`` — convert eligible loops to scf.parallel and lower to
      OpenMP (Tables III/IV);
    * ``gpu`` — lower OpenACC regions to the gpu dialect (Table V);
    * ``tile`` / ``unroll`` — affine loop tiling/unrolling used for the
      linalg-backed intrinsics (Table III).

    ``verify_each`` and ``instrumentations`` thread straight into the
    optimisation pipeline's :class:`~repro.ir.pass_manager.PassManager`.
    """

    name = "our-approach"
    version = "llvm-20"

    def __init__(self, *, vector_width: int = 4, parallelise: bool = False,
                 gpu: bool = False, tile: bool = False, tile_size: int = 32,
                 unroll: int = 0, verify_each: bool = False,
                 collect_statistics: bool = True,
                 instrumentations: Sequence[PassInstrumentation] = ()):
        self.vector_width = vector_width
        self.parallelise = parallelise
        self.gpu = gpu
        self.tile = tile
        self.tile_size = tile_size
        self.unroll = unroll
        self.verify_each = verify_each
        self.collect_statistics = collect_statistics
        self.instrumentations = list(instrumentations)

    # -- pipeline description (Figure 2 / Figure 3) ---------------------------------
    def flow_description(self) -> List[str]:
        steps = [
            "Flang lex/parse + AST optimisation",
            "lower to HLFIR + FIR (Flang)",
            "transform HLFIR/FIR -> standard MLIR dialects (this paper)",
            "standard MLIR optimisation passes"
            + (f" + affine super-vectorisation (width {self.vector_width})"
               if self.vector_width > 1 else ""),
        ]
        if self.parallelise:
            steps.append("scf.parallel -> OpenMP dialect (convert-scf-to-openmp)")
        if self.gpu:
            steps.append("OpenACC -> scf.parallel -> gpu dialect")
        steps.append("(paper, not modelled: lower to the llvm dialect via "
                     "mlir-opt, Listing 1; mlir-translate; clang links the "
                     "Flang runtime)")
        return steps

    def build_pipeline(self):
        """The whole optimisation stage as one nested PassManager."""
        pm = pipelines.standard_flow_pipeline(
            self.vector_width, tile=self.tile, tile_size=self.tile_size,
            unroll=self.unroll, parallelise=self.parallelise, gpu=self.gpu)
        pm.verify_each = self.verify_each
        pm.set_collect_statistics(self.collect_statistics)
        pm.instrumentations.extend(self.instrumentations)
        return pm

    # -- compilation -----------------------------------------------------------------
    def compile(self, source: str, *,
                stages: Sequence[str] = ()) -> StandardFlowResult:
        """Compile ``source``; ``stages`` names the intermediate stages
        (``hlfir``, ``standard``) to snapshot — a whole-module clone each,
        so none is taken unless asked for.

        With a function store that memoises program units (see
        :class:`~repro.service.incremental.FunctionArtifactStore`) and no
        snapshots asked for, a top-level unit whose key the store knows is
        served whole: its functions are neither lowered, converted,
        fingerprinted nor passed through the pipeline.  Every other
        function takes the ordinary route, structural lookups included."""
        analysis = analyze(parse_source(source))
        opt_pm = self.build_pipeline()
        store = current_settings().function_cache
        splicer = _UnitSplicer(store, source, analysis, opt_pm.describe()) \
            if not stages and hasattr(store, "lookup_unit") else None

        hlfir_module = FortranLowering(analysis).lower(
            declare_only=splicer.served if splicer else ())
        hlfir_snapshot = hlfir_module.clone() if "hlfir" in stages else None
        standard_module = convert_fir_to_standard(hlfir_module)
        standard_snapshot = standard_module.clone() \
            if "standard" in stages else None

        optimised = standard_module
        if splicer is None:
            opt_pm.run(optimised)
            timing = opt_pm.last_report
        else:
            splicer.drop_declarations(optimised)
            with pipeline_settings(function_cache=splicer):
                opt_pm.run(optimised)
            timing = splicer.finish(optimised, opt_pm.last_report,
                                    verify=self.verify_each,
                                    statistics=self.collect_statistics)

        return StandardFlowResult(
            source=source,
            hlfir_module=hlfir_snapshot,
            standard_module=standard_snapshot,
            optimised_module=optimised,
            pipeline_description=opt_pm.describe(),
            timing=timing,
        )


class _UnitSplicer:
    """One compile against a function store that memoises program units.

    Units the store knows are served whole (:attr:`served`, by subprogram
    name).  For the rest, this object stands in for the store during the
    pipeline nest: it forwards every structural lookup and store, noting
    each function's fingerprint and timings in the order the nest visits
    them, so :meth:`finish` can remember the units and splice the served
    functions back in subprogram order.
    """

    def __init__(self, store, source: str, analysis, pipeline: str):
        self.backing = store
        self.analysis = analysis
        try:
            self.units = program_units(source, analysis, pipeline)
        except Exception:
            # unkeyable (an error lowering will report): compile it all, so
            # the error is the one a compile without the store raises
            self.units = []
        self.served: Dict[str, Tuple[Operation, Tuple[PassTiming, ...]]] = {}
        for unit in self.units:
            functions = store.lookup_unit(unit.key)
            if functions is not None:
                self.served.update(zip(unit.subprograms, functions))
        self.seen: List[Tuple[str, Tuple[PassTiming, ...]]] = []

    # -- the nest's function cache ---------------------------------------------------
    def lookup(self, fingerprint: str):
        hit = self.backing.lookup(fingerprint)
        if hit is not None:
            self.seen.append((fingerprint, tuple(hit[1])))
        return hit

    def store(self, fingerprint: str, func: Operation,
              timings: Sequence[PassTiming] = ()) -> None:
        self.seen.append((fingerprint, tuple(timings)))
        self.backing.store(fingerprint, func, timings)

    # -- around the nest -------------------------------------------------------------
    def drop_declarations(self, module: ModuleOp) -> None:
        """Erase the bodiless functions the served subprograms were
        declared by (conversion needed their signatures, the nest must not
        see them)."""
        for op in list(module.body.ops):
            if op.name == "func.func" and not op.regions[0].blocks:
                op.erase()

    def finish(self, module: ModuleOp, report: PassTimingReport, *,
               verify: bool, statistics: bool) -> PassTimingReport:
        """Splice the served functions back in subprogram order, remember
        the units the nest compiled, and order the timing report by
        function."""
        order = list(self.analysis.subprograms)
        compiled = [name for name in order if name not in self.served]
        functions = [op for op in module.body.ops if op.name == "func.func"]
        pending: List[Operation] = []
        ran = iter(functions)
        for name in order:
            if name in self.served:
                pending.append(self.served[name][0])
                continue
            anchor = next(ran)
            for func in pending:
                module.body.insert_before(anchor, func)
            pending = []
        for func in pending:
            module.body.add_op(func)
        if self.served and verify:
            verify_operation(module)

        if len(self.seen) != len(functions):
            return report   # a fingerprint failed: remember nothing
        seen = dict(zip(compiled, self.seen))
        for unit in self.units:
            if all(name in seen for name in unit.subprograms):
                self.backing.remember_unit(
                    unit.key, [seen[name][0] for name in unit.subprograms])
        if not self.served or not statistics:
            return report
        per_function = {**seen, **self.served}
        return PassTimingReport(
            pipeline=report.pipeline,
            timings=tuple(t for name in order for t in per_function[name][1]))


__all__ = ["StandardMLIRCompiler", "StandardFlowResult"]
