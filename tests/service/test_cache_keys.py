"""Cache-key correctness: every input that changes the artifact changes the
key, everything that doesn't deduplicates to one key."""

import dataclasses
import json
from collections import defaultdict

import pytest

from repro.service import CompileJob, enumerate_jobs, run_job
from repro.workloads import get_workload, jacobi, pw_advection


def key(options=None, **kwargs):
    kwargs.setdefault("flow", "ours")
    kwargs.setdefault("workload_name", "dotproduct")
    return CompileJob(options=options or {}, **kwargs).key()


class TestPipelineOptionKeys:
    def test_identical_jobs_share_a_key(self):
        assert key() == key()

    @pytest.mark.parametrize("variant", [
        {"options": {"vector_width": 0}}, {"options": {"vector_width": 8}},
        {"options": {"tile": True}}, {"options": {"tile_size": 16}},
        {"options": {"unroll": 4}}, {"threads": 64}, {"gpu": True},
        {"flow": "flang"},
    ])
    def test_option_changes_change_the_key(self, variant):
        assert key(**variant) != key()

    def test_default_options_are_explicit_defaults(self):
        # sparse options normalise through the flow schema, so spelling a
        # default out changes nothing
        assert key(options={"vector_width": 4}) == key()
        assert key(options={"tile": False, "unroll": 0}) == key()

    def test_option_order_is_irrelevant(self):
        assert key(options={"tile": True, "unroll": 4}) == \
            key(options={"unroll": 4, "tile": True})

    def test_thread_counts_bucket_to_one_parallel_artifact(self):
        # a non-OpenMP source differs serial vs threaded (``parallelise``),
        # never by core count
        assert key(threads=2) == key(threads=64)
        assert key(threads=1) != key(threads=2)

    @pytest.mark.parametrize("flow", ["ours", "flang"])
    @pytest.mark.parametrize("name", ["jacobi", "pw-advection"])
    def test_openmp_sources_share_a_key_at_every_thread_count(self, flow,
                                                              name):
        # an OpenMP source parallelises itself: Table IV's serial and
        # threaded cells are one artifact, scaled by the perf model
        keys = {CompileJob(flow, name, workload_kwargs=(("openmp", True),),
                           threads=threads).key()
                for threads in (1, 2, 64)}
        assert len(keys) == 1

    def test_flang_gpu_flag_still_changes_the_key(self):
        # FlangFlow.check_capabilities reads it: the GPU job is a failure
        assert key(flow="flang", gpu=True) != key(flow="flang", gpu=False)

    def test_flang_flow_ignores_standard_pipeline_options(self):
        # vector_width/tile/unroll are not in the flang flow's schema, so
        # jobs differing only there deduplicate to one flang artifact
        assert key(flow="flang", options={"vector_width": 0}) == \
            key(flow="flang", options={"vector_width": 8})
        assert key(flow="flang", options={"tile": True}) == key(flow="flang")

    def test_unknown_flow_key_does_not_raise_via_safe_key(self):
        job = CompileJob("no-such-flow", "dotproduct")
        with pytest.raises(Exception):
            job.key()
        assert job.safe_key() == CompileJob("no-such-flow",
                                            "dotproduct").safe_key()
        assert job.safe_key() != CompileJob("no-such-flow", "sum").safe_key()


class TestWorkloadVariantKeys:
    def test_distinct_workloads_distinct_keys(self):
        assert key(workload_name="sum") != key(workload_name="dotproduct")

    def test_openmp_variant_changes_the_key(self):
        base = CompileJob("ours", "jacobi", workload=jacobi()).key()
        omp = CompileJob("ours", "jacobi",
                         workload=jacobi(openmp=True)).key()
        assert base != omp

    def test_openacc_variant_changes_the_key(self):
        base = CompileJob("ours", "pw-advection",
                          workload=pw_advection()).key()
        acc = CompileJob("ours", "pw-advection",
                         workload=pw_advection(openacc=True)).key()
        assert base != acc

    def test_grid_cells_variants_share_a_key(self):
        # grid_cells sizes only the paper-scale run the perf model scales
        # to; the interpreted source is the same
        small = CompileJob("ours", "pw-advection", gpu=True,
                           workload=pw_advection(openacc=True,
                                                 grid_cells=134_000_000)).key()
        large = CompileJob("ours", "pw-advection", gpu=True,
                           workload=pw_advection(openacc=True,
                                                 grid_cells=536_000_000)).key()
        assert small == large

    def test_paper_params_only_change_shares_a_key(self):
        base = get_workload("jacobi")
        bigger = dataclasses.replace(
            base, paper_params={**base.paper_params, "n": 4096})
        assert bigger.source() == base.source()
        assert CompileJob("ours", "jacobi", workload=bigger).key() == \
            CompileJob("ours", "jacobi", workload=base).key()

    def test_attached_and_registry_workloads_agree(self):
        # the pool worker resolves the workload via the registry; the key it
        # computes must match the key the submitting side computed
        attached = CompileJob(
            "ours", "jacobi", workload_kwargs=(("openmp", True),),
            workload=jacobi(openmp=True)).key()
        resolved = CompileJob(
            "ours", "jacobi", workload_kwargs=(("openmp", True),)).key()
        assert attached == resolved

    def test_spec_round_trip_preserves_the_key(self):
        job = CompileJob("ours", "pw-advection",
                         workload_kwargs=(("openacc", True),
                                          ("grid_cells", 134_000_000)),
                         gpu=True, options={"vector_width": 8})
        assert CompileJob.from_spec(job.spec()).key() == job.key()

    def test_spec_round_trip_preserves_options(self):
        job = CompileJob("ours", "dotproduct",
                         options={"tile": True, "tile_size": 16, "unroll": 2})
        back = CompileJob.from_spec(job.spec())
        assert back.options_dict() == job.options_dict()
        assert back.key() == job.key()


def test_table_job_keys_are_exactly_as_fine_as_their_artifacts():
    """Over every job the six tables submit, two jobs share a key if and
    only if they compile and run to the same payload: a coarser key would
    serve a wrong artifact, a finer one compiles the same one twice."""
    artifacts = {}
    for job in enumerate_jobs():
        spec = json.dumps(job.spec(), sort_keys=True)
        if spec not in artifacts:
            payload = run_job(job).to_payload()
            artifacts[spec] = (payload.pop("key"),
                               json.dumps(payload, sort_keys=True))
    payloads_by_key, keys_by_payload = defaultdict(set), defaultdict(set)
    for key, payload in artifacts.values():
        payloads_by_key[key].add(payload)
        keys_by_payload[payload].add(key)
    assert all(len(payloads) == 1 for payloads in payloads_by_key.values())
    assert all(len(keys) == 1 for keys in keys_by_payload.values())
    assert len(payloads_by_key) == 46


class TestKeyMaterial:
    def test_material_names_schema_flow_and_source_hash(self):
        material = CompileJob("ours", "dotproduct").key_material()
        assert material["schema"] >= 2
        assert material["flow"] == "ours"
        assert material["workload"]["source_sha256"] == \
            get_workload("dotproduct").source_hash()
        assert material["pipeline"]["vector_width"] == 4

    def test_material_pipeline_is_flow_normalised(self):
        # derived options (parallelise, gpu) come from the execution context
        # and the workload, via the flow's normalisation hook
        serial = CompileJob("ours", "dotproduct").key_material()
        threaded = CompileJob("ours", "dotproduct", threads=8).key_material()
        assert serial["pipeline"]["parallelise"] is False
        assert threaded["pipeline"]["parallelise"] is True
        # ... and that is the only way a thread count reaches the key
        assert serial["execution"] == threaded["execution"]
        acc = CompileJob("ours", "pw-advection",
                         workload=pw_advection(openacc=True)).key_material()
        assert acc["pipeline"]["gpu"] is True
