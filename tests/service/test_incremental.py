"""Function-granular incremental compilation: invalidation and what persists.

* **minimal invalidation** — mutate one function of a two-function module
  and exactly that function recompiles; every other function is spliced
  from the store, and the final module is bit-identical to a cold compile
  of the mutated source;
* **what persists** — across service generations over one cache directory
  only whole-module artifacts are served from disk: function stages live
  in their process, artifacts written under an older
  ``KEY_SCHEMA_VERSION`` read back as clean misses, and function payloads
  an earlier store left in the shards are never read.
"""

import pytest

from repro.core.fir_to_standard import convert_fir_to_standard
from repro.core.pipelines import standard_flow_pipeline
from repro.frontend import lower_to_hlfir
from repro.ir import pipeline_settings, print_op
from repro.service import incremental
from repro.service.cache import ArtifactCache, address
from repro.service.incremental import FunctionArtifactStore
from repro.service.jobs import CompileJob, run_job
from repro.service.scheduler import CompileService, bind_jit_store

F1 = """
subroutine inc_one(n)
  implicit none
  integer, intent(in) :: n
  integer :: i
  real(kind=8), dimension(40) :: a
  do i = 1, 40
    a(i) = a(i) + 1.0d0
  end do
end subroutine inc_one
"""

F2 = """
subroutine scale_two(n)
  implicit none
  integer, intent(in) :: n
  integer :: i
  real(kind=8), dimension(40) :: b, c
  do i = 1, 40
    c(i) = b(i) * 2.0d0
  end do
end subroutine scale_two
"""

F2_EDITED = """
subroutine scale_two(n)
  implicit none
  integer, intent(in) :: n
  integer :: i
  real(kind=8), dimension(40) :: b, c
  do i = 1, 40
    c(i) = b(i) * 2.0d0 + 0.5d0
  end do
end subroutine scale_two
"""

MAIN = """
program driver
  implicit none
  real(kind=8), dimension(40) :: a
  real(kind=8) :: s
  integer :: i
  do i = 1, 40
    a(i) = 1.0d0
  end do
  call inc_one(40)
  call scale_two(40)
  s = 0.0d0
  do i = 1, 40
    s = s + a(i)
  end do
  print *, s
end program driver
"""


def _standard_module(source):
    return convert_fir_to_standard(lower_to_hlfir(source))


def _compile(source, store):
    module = _standard_module(source)
    pm = standard_flow_pipeline()
    with pipeline_settings(function_cache=store):
        pm.run(module)
    return module


def test_mutating_one_function_recompiles_exactly_one():
    store = FunctionArtifactStore()
    cold = _compile(F1 + F2, store)
    assert store.counters.misses == 2 and store.counters.stores == 2

    # same source again: every function splices from the store
    warm = _compile(F1 + F2, store)
    assert store.counters.memory_hits == 2
    assert store.counters.misses == 2          # unchanged
    assert print_op(warm) == print_op(cold)

    # edit one function: exactly one recompile (one new miss, one hit)
    incremental = _compile(F1 + F2_EDITED, store)
    assert store.counters.memory_hits == 3
    assert store.counters.misses == 3
    assert store.counters.stores == 3

    # bit-identical to a from-scratch compile of the edited source
    cold_edited = _compile(F1 + F2_EDITED, FunctionArtifactStore())
    assert print_op(incremental) == print_op(cold_edited)


def test_incremental_result_executes_identically():
    from repro.machine import Interpreter

    store = FunctionArtifactStore()
    _compile(F1 + F2 + MAIN, store)                # warm the store
    incremental = _compile(F1 + F2_EDITED + MAIN, store)
    assert store.counters.memory_hits == 2         # inc_one + driver spliced
    cold = _compile(F1 + F2_EDITED + MAIN, FunctionArtifactStore())

    runs = []
    for module in (incremental, cold):
        interp = Interpreter(module)
        interp.run_main()
        runs.append((interp.stats, tuple(interp.printed)))
    assert runs[0] == runs[1]


def test_disabled_cache_never_touches_store():
    store = FunctionArtifactStore()
    _compile(F1 + F2, store)
    lookups_before = store.counters.lookups
    module = _standard_module(F1 + F2)
    with pipeline_settings(function_cache=None):
        standard_flow_pipeline().run(module)
    assert store.counters.lookups == lookups_before


def test_run_job_feeds_and_reuses_process_store():
    from repro.service.incremental import get_function_store

    store = get_function_store()
    run_job(CompileJob("ours", "dotproduct"))
    hits_before = store.counters.memory_hits
    artifact = run_job(CompileJob("ours", "dotproduct"))
    assert artifact.ok
    assert store.counters.memory_hits > hits_before

    # incremental=False must bypass the store entirely
    lookups_before = store.counters.lookups
    bypass = run_job(CompileJob("ours", "dotproduct", incremental=False))
    assert bypass.ok and bypass.module_text == artifact.module_text
    assert store.counters.lookups == lookups_before


def test_incremental_flag_does_not_change_cache_key():
    a = CompileJob("ours", "dotproduct", incremental=True)
    b = CompileJob("ours", "dotproduct", incremental=False)
    assert a.key() == b.key()
    assert CompileJob.from_spec(b.spec()).incremental is False


# ---------------------------------------------------------------------------
# what persists across service generations
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_process_store(monkeypatch):
    """A cold process: an empty function store, and no jit tier bound
    after the test."""
    store = FunctionArtifactStore()
    monkeypatch.setattr(incremental, "_PROCESS_STORE", store)
    yield store
    bind_jit_store(None)


def _generation(tmp_path):
    return CompileService(ArtifactCache(cache_dir=str(tmp_path)))


def test_persistent_store_serves_across_processes_simulation(
        tmp_path, monkeypatch, fresh_process_store):
    # two services sharing one sharded cache directory model two daemon
    # generations: the second (fresh memory, fresh function store) serves
    # the artifact from disk and runs no function stage at all
    cold = _generation(tmp_path).execute(CompileJob("ours", "dotproduct"))
    assert fresh_process_store.counters.stores > 0

    second = FunctionArtifactStore()
    monkeypatch.setattr(incremental, "_PROCESS_STORE", second)
    service = _generation(tmp_path)
    warm = service.execute(CompileJob("ours", "dotproduct"))
    assert warm.cached and service.recompilations == 0
    assert service.counters()["disk_hits"] == 1
    assert second.counters.lookups == 0 and len(second) == 0
    assert warm.module_text == cold.module_text


def test_schema_bump_turns_old_artifacts_into_clean_misses(
        tmp_path, monkeypatch, fresh_process_store):
    # artifacts written under the previous schema version must neither hit
    # nor corrupt a service running the current one
    from repro.service import jobs as jobs_mod

    monkeypatch.setattr(jobs_mod, "KEY_SCHEMA_VERSION",
                        jobs_mod.KEY_SCHEMA_VERSION - 1)
    old = _generation(tmp_path)
    written = old.execute(CompileJob("ours", "dotproduct"))
    assert written.ok and old.recompilations == 1

    monkeypatch.setattr(jobs_mod, "KEY_SCHEMA_VERSION",
                        jobs_mod.KEY_SCHEMA_VERSION + 1)
    migrated = _generation(tmp_path)
    result = migrated.execute(CompileJob("ours", "dotproduct"))
    assert result.ok and not result.cached
    assert migrated.recompilations == 1
    assert migrated.counters()["disk_hits"] == 0
    assert result.module_text == written.module_text


def test_leftover_function_payloads_on_disk_are_never_read(
        tmp_path, monkeypatch, fresh_process_store):
    # a cache directory an earlier store shared keeps function entries
    # under their old addresses; they age out through the byte budget and
    # are never addressed again, however they read
    cold = CompileService().execute(CompileJob("ours", "dotproduct"))
    fingerprints = list(fresh_process_store._live)
    assert fingerprints
    shards = ArtifactCache(cache_dir=str(tmp_path)).store
    for fp in fingerprints:
        shards.put(address("function", fp), {"function": "corrupt"})

    fresh = FunctionArtifactStore()
    monkeypatch.setattr(incremental, "_PROCESS_STORE", fresh)
    service = _generation(tmp_path)
    result = service.execute(CompileJob("ours", "dotproduct"))
    assert result.ok and not result.cached
    assert fresh.counters.misses == len(fingerprints)
    assert fresh.counters.memory_hits == 0
    assert result.module_text == cold.module_text
    stats = service.cache.stats()
    assert "function" not in stats["by_namespace"]
    assert stats["corrupt_entries"] == 0


def test_lru_eviction_bounds_live_tier():
    store = FunctionArtifactStore(memory_entries=1)
    _compile(F1 + F2, store)
    assert len(store) == 1
