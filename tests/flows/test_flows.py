"""Flow registry behaviour: registration, options schemas, capability
checks, uniform FlowResults, and the acceptance criterion that a newly
registered flow is cacheable and measurable with zero service edits."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.flows import (CapabilityError, ExecutionContext, Flow, FlowError,
                         FlowOption, FlowResult, OptionError, OptionsSchema,
                         available_flows, get_flow, register_flow, registered)
from repro.flows.builtin import OursFlow
from repro.ir import print_op
from repro.machine import OURS_PROFILE, PerformanceModel
from repro.service import ArtifactCache, CompileJob, CompileService, run_job
from repro.workloads import get_workload


class TestRegistry:
    def test_builtin_flows_are_registered(self):
        assert set(available_flows()) >= {"flang", "ours"}

    def test_get_flow_unknown_names_alternatives(self):
        with pytest.raises(FlowError, match="flang.*ours|ours.*flang"):
            get_flow("definitely-not-a-flow")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(FlowError, match="already registered"):
            register_flow(OursFlow())

    def test_temporary_registration_cleans_up(self):
        class TmpFlow(Flow):
            name = "tmp-flow"

        with registered(TmpFlow):
            assert "tmp-flow" in available_flows()
        assert "tmp-flow" not in available_flows()

    def test_unnamed_flow_rejected(self):
        class Nameless(Flow):
            pass

        with pytest.raises(FlowError, match="no name"):
            register_flow(Nameless())

    def test_builtin_collision_fails_cleanly_without_poisoning_lookup(self):
        # even in a fresh process where no lookup has loaded the builtins
        # yet, registering over a builtin name must fail immediately and
        # leave the registry fully usable
        class Impostor(Flow):
            name = "flang"

        with pytest.raises(FlowError, match="already registered"):
            register_flow(Impostor())
        assert set(available_flows()) >= {"flang", "ours"}
        assert get_flow("ours") is not None


class TestOptionsSchema:
    schema = OptionsSchema(
        FlowOption("width", int, 4, "a width"),
        FlowOption("fast", bool, False),
        FlowOption("factor", float, 1.0),
    )

    def test_defaults_fill_in(self):
        assert self.schema.coerce({}) == {"width": 4, "fast": False,
                                          "factor": 1.0}

    def test_values_are_type_coerced(self):
        out = self.schema.coerce({"width": "8", "fast": "true",
                                  "factor": 2})
        assert out == {"width": 8, "fast": True, "factor": 2.0}
        assert isinstance(out["factor"], float)

    def test_dashes_normalise(self):
        assert self.schema.coerce({"width": 2})["width"] == 2

    def test_unknown_option_strict_raises_with_names(self):
        with pytest.raises(OptionError, match="width"):
            self.schema.coerce({"nope": 1})

    def test_unknown_option_lenient_drops(self):
        assert self.schema.coerce({"nope": 1}, strict=False) == \
            self.schema.defaults()

    def test_bad_type_raises(self):
        with pytest.raises(OptionError, match="width"):
            self.schema.coerce({"width": "many"})
        with pytest.raises(OptionError, match="fast"):
            self.schema.coerce({"fast": "maybe"})


class TestBuiltinFlows:
    def test_flang_rejects_openacc(self):
        from repro.workloads import pw_advection
        flow = get_flow("flang")
        with pytest.raises(Exception, match="acc dialect"):
            flow.run(pw_advection(openacc=True))

    def test_ours_normalises_derived_options(self):
        flow = get_flow("ours")
        workload = get_workload("dotproduct")
        opts = flow.normalise_options({}, workload, ExecutionContext(threads=8))
        assert opts["parallelise"] is True
        assert opts["vector_width"] == 4

    def test_ours_pipeline_is_nested_and_tunable(self):
        flow = get_flow("ours")
        workload = get_workload("dotproduct")
        opts = flow.normalise_options({"vector_width": 8}, workload,
                                      ExecutionContext())
        text = flow.pipeline(opts)
        assert text.startswith(
            "builtin.module(convert-fir-to-standard,func.func(")
        assert "affine-super-vectorize{virtual-vector-size=8}" in text

    def test_flow_results_are_uniform(self):
        workload = get_workload("dotproduct")
        for name in ("flang", "ours"):
            result = get_flow(name).run(workload)
            assert isinstance(result, FlowResult)
            assert result.ok
            assert result.module is result.stages[result.stage_names[-1]] or \
                result.module is not None
            assert "hlfir" in result.stage_names
            assert result.timing is not None and result.timing.timings

    def test_intermediate_stages_are_kept_only_when_named(self):
        workload = get_workload("dotproduct")
        for name, final in (("flang", "fir"), ("ours", "optimised")):
            flow = get_flow(name)
            assert "hlfir" in flow.snapshot_stages
            plain = flow.run(workload)
            for stage in flow.snapshot_stages:
                assert plain.stages[stage] is None
            assert plain.module is plain.stages[final]
            kept = flow.run(workload, stages=flow.snapshot_stages)
            assert kept.stage_names == plain.stage_names
            for stage in flow.snapshot_stages:
                assert kept.stages[stage] is not None
                assert kept.stages[stage] is not kept.module
            assert print_op(kept.module) == print_op(plain.module)

    def test_unknown_stage_name_is_a_flow_error(self):
        with pytest.raises(FlowError, match="no intermediate stage 'standard'"
                                            r".*can keep: hlfir"):
            get_flow("flang").run(get_workload("dotproduct"),
                                  stages=("standard",))

    def test_flow_run_records_timing_report(self):
        result = get_flow("ours").run(get_workload("sum"))
        names = [t.pass_name for t in result.timing.timings]
        assert names[0] == "convert-fir-to-standard"
        assert "canonicalize" in names
        assert result.pipeline.startswith("builtin.module(")


class NoOptFlow(Flow):
    """The acceptance-criterion flow: ours, with every optimisation off."""

    name = "ours-noopt"
    description = "standard flow with optimisation disabled"
    schema = OptionsSchema()
    final_stage = "standard"

    def pipeline(self, options):
        return "builtin.module(convert-fir-to-standard)"


class TestNewFlowNeedsNoServiceEdits:
    """Registering a flow must make it cacheable and measurable as-is."""

    def test_distinct_cache_keys(self):
        with registered(NoOptFlow):
            noopt = CompileJob("ours-noopt", "dotproduct").key()
            ours = CompileJob("ours", "dotproduct").key()
            flang = CompileJob("flang", "dotproduct").key()
        assert len({noopt, ours, flang}) == 3

    def test_service_executes_and_caches_the_new_flow(self):
        service = CompileService(ArtifactCache())
        with registered(NoOptFlow):
            first = service.execute(CompileJob("ours-noopt", "dotproduct"))
            second = service.execute(CompileJob("ours-noopt", "dotproduct"))
        assert first.ok and second.ok
        assert second.cached and service.recompilations == 1
        assert first.flow == "ours-noopt"

    def test_custom_flow_batches_stay_in_process(self):
        # the flow registry is per-process: a pool worker would not know
        # ours-noopt, so batch submission must execute it in-process and
        # still populate the submitter's key
        service = CompileService(ArtifactCache(), max_workers=4)
        with registered(NoOptFlow):
            job = CompileJob("ours-noopt", "dotproduct")
            report = service.submit([job, CompileJob("ours-noopt", "sum")])
            assert report.executed == 2
            assert report.pool_executed == 0
            assert not report.failures
            assert service.cache.contains(job.key())

    def test_new_flow_artifact_feeds_the_perf_model(self):
        workload = get_workload("dotproduct")
        service = CompileService(ArtifactCache())
        with registered(NoOptFlow):
            artifact = service.execute(CompileJob("ours-noopt", "dotproduct"))
        assert artifact.ok
        runtime = PerformanceModel().cpu_runtime(
            artifact.stats, workload.scaling(), OURS_PROFILE).total_s
        assert math.isfinite(runtime) and runtime > 0

    def test_unknown_flow_is_a_cacheable_failure(self):
        service = CompileService(ArtifactCache())
        job = CompileJob("no-such-flow", "dotproduct")
        first = service.execute(job)
        second = service.execute(CompileJob("no-such-flow", "dotproduct"))
        assert not first.ok and not second.ok
        assert "no-such-flow" in first.error
        assert "flang" in first.error  # the error names the registered flows
        assert second.cached and service.recompilations == 1

    def test_flow_result_error_becomes_a_failure_artifact(self):
        # a flow that encodes failure in the result (instead of raising)
        # must not be cached as a success built from a partial stage
        class ErrFlow(Flow):
            name = "err-flow"

            def compile(self, workload, options, execution, **kw):
                partial = get_flow("flang").run(workload)
                return FlowResult(flow=self.name, source=partial.source,
                                  stages=partial.stages,
                                  error="code generation gave up")

        with registered(ErrFlow):
            artifact = run_job(CompileJob("err-flow", "dotproduct"))
        assert not artifact.ok
        assert artifact.error == "code generation gave up"

    def test_pipeline_text_may_name_any_built_in_pass(self):
        # a fresh process that imported nothing but repro.flows: the driver,
        # not the flow, makes sure every pass its text names is registered
        script = (
            "from repro.flows import Flow, source_workload\n"
            "class Bare(Flow):\n"
            "    name = 'bare'\n"
            "    def pipeline(self, options):\n"
            "        return 'builtin.module(convert-fir-to-standard)'\n"
            "result = Bare().run(source_workload("
            "'program p\\n  print *, 1\\nend program p\\n'))\n"
            "print(result.pipeline)\n")
        src = Path(__file__).resolve().parents[2] / "src"
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out.strip() == "builtin.module(convert-fir-to-standard)"

    def test_run_job_unknown_flow_artifact(self):
        artifact = run_job(CompileJob("no-such-flow", "dotproduct"))
        assert not artifact.ok
        assert artifact.key == CompileJob("no-such-flow",
                                          "dotproduct").safe_key()
        assert "unknown compiler flow" in artifact.error


class TestDefaultEngine:
    def test_every_default_follows_the_one_definition(self):
        """``DEFAULT_ENGINE`` is spelled once: an interpreter, a job and an
        execution context all land on it when no engine is named."""
        from repro.flows import DEFAULT_ENGINE
        from repro.machine import Interpreter
        module = get_flow("ours").run(get_workload("dotproduct")).module
        assert DEFAULT_ENGINE == "jit"
        assert Interpreter(module).engine == DEFAULT_ENGINE
        assert CompileJob("ours", "dotproduct").engine == DEFAULT_ENGINE
        assert ExecutionContext().engine == DEFAULT_ENGINE
