"""Service-side wiring of the jit's persistent tier.

The translation *payloads* and their verification live in
``repro.machine.jit`` (covered by ``tests/machine/test_jit_persistence``)
and addressing is the namespaced store's (``tests/service/test_store.py``);
this module tests the service glue: :func:`bind_process_stores` points the
function store and the jit tier at a service's cache together (or unbinds
both), :meth:`CompileService.jit_counters` surfaces the accounting, and
``repro.conformance run``'s fallback service persists through
``$REPRO_CACHE_DIR`` like a daemon would.
"""

import argparse

import pytest

from repro.machine import jit as machine_jit
from repro.service.cache import ArtifactCache
from repro.service.incremental import bind_process_stores, get_function_store
from repro.service.scheduler import CompileService


@pytest.fixture(autouse=True)
def _isolated_process_stores():
    saved = (get_function_store().cache, machine_jit.get_translation_store())
    bind_process_stores(None)
    yield
    get_function_store().cache = saved[0]
    machine_jit.set_translation_store(saved[1])
    machine_jit.clear_translation_cache()


def _bound_dirs():
    """(function store's cache dir, jit tier's cache dir), None = unbound."""
    fn_cache = get_function_store().cache
    jit_cache = machine_jit.get_translation_store()
    return (fn_cache.cache_dir if fn_cache is not None else None,
            jit_cache.cache_dir if jit_cache is not None else None)


class TestStoreProtocol:
    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path))
        payload = {"format": 5, "magic": "00", "bytecode": ["AAAA"]}
        digest = "c0de" * 16
        assert cache.get(digest, ns="jit") is None
        assert not cache.contains(digest, ns="jit")
        cache.put(digest, payload, ns="jit")
        assert cache.contains(digest, ns="jit")
        assert cache.get(digest, ns="jit") == payload
        assert ArtifactCache(cache_dir=str(tmp_path)).get(
            digest, ns="jit") == payload

    def test_corrupt_payload_is_a_miss_not_an_error(self, tmp_path):
        digest = "bad0" * 16
        ArtifactCache(cache_dir=str(tmp_path)).put(
            digest, {"format": 5, "magic": "00"}, ns="jit")    # no bytecode
        reader = ArtifactCache(cache_dir=str(tmp_path))
        assert reader.get(digest, ns="jit") is None
        assert reader.stats()["by_namespace"]["jit"]["misses"] == 1


class TestInstall:
    def test_memory_only_cache_stays_process_local(self):
        # no disk tier -> encoding payloads would cost overhead for zero
        # cross-process benefit
        bind_process_stores(ArtifactCache())
        assert _bound_dirs() == (None, None)

    def test_none_cache_stays_process_local(self, tmp_path):
        bind_process_stores(ArtifactCache(cache_dir=str(tmp_path)))
        bind_process_stores(None)
        assert _bound_dirs() == (None, None)

    def test_persistent_cache_installs_store(self, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path))
        bind_process_stores(cache)
        assert machine_jit.get_translation_store() is cache
        assert get_function_store().cache is cache

    @pytest.mark.parametrize("persistent_first", [True, False])
    def test_a_later_service_rebinds_both_tiers_together(self, tmp_path,
                                                         persistent_first):
        # a memory-only service created after a persistent one used to
        # leave jit translations going to the *old* directory
        caches = [ArtifactCache(cache_dir=str(tmp_path)), ArtifactCache()]
        if not persistent_first:
            caches.reverse()
        for cache in caches:
            CompileService(cache)
        expected = None if persistent_first else caches[-1].cache_dir
        assert _bound_dirs() == (expected, expected)


class TestServiceCounters:
    def test_jit_counters_shape_and_worker_merge(self, tmp_path):
        service = CompileService(ArtifactCache(cache_dir=str(tmp_path)))
        assert machine_jit.get_translation_store() is service.cache
        counters = service.jit_counters()
        for field in ("memory_hits", "disk_hits", "misses", "stores",
                      "hits", "lookups", "hit_rate"):
            assert field in counters

        # pool workers report their process-local deltas back; they must
        # show up in the service-level totals
        service._counters.merge({"jit.disk_hits": 5, "jit.misses": 5})
        merged = service.jit_counters()
        assert merged["disk_hits"] == counters["disk_hits"] + 5
        assert merged["lookups"] >= counters["lookups"] + 10

    def test_memory_only_service_has_no_jit_store(self):
        CompileService(ArtifactCache())
        assert machine_jit.get_translation_store() is None


class TestConformanceServiceBinding:
    def test_sweep_fallback_binds_to_cache_dir_env(self, tmp_path,
                                                   monkeypatch):
        # ISSUE satellite: `repro.conformance run` must persist artifacts
        # through the sharded store instead of a silent memory-only cache
        from repro.conformance.__main__ import _sweep_service
        from repro.service import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "store"))
        args = argparse.Namespace(no_daemon=True, jobs=1, socket=None)
        service = _sweep_service(args)
        assert service.cache.persistent
        assert str(service.cache.cache_dir) == str(tmp_path / "store")
        assert machine_jit.get_translation_store() is service.cache
        assert service.function_store.cache is service.cache

    def test_sweep_persists_function_artifacts(self, tmp_path, monkeypatch):
        from repro.conformance.oracle import run_sweep
        from repro.service import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "store"))
        from repro.conformance.__main__ import _sweep_service
        args = argparse.Namespace(no_daemon=True, jobs=1, socket=None)
        service = _sweep_service(args)
        report = run_sweep([3], engines=["compiled", "jit"], service=service)
        assert report.seeds == [3]
        # compiles flowed through the persistent store: function-stage
        # artifacts survive for the next process
        assert service.function_store.counters.as_dict()["stores"] > 0
        shards = list((tmp_path / "store" / "shards").glob("*.json"))
        assert shards, "sweep stored nothing in the sharded disk store"
