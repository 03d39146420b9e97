"""Service-side wiring of the jit's persistent tier.

The translation *payloads* and their verification live in
``repro.machine.jit`` (covered by ``tests/machine/test_jit_persistence``)
and addressing is the namespaced store's (``tests/service/test_store.py``);
this module tests the service glue: :func:`bind_jit_store` points the jit
tier at a service's persistent cache (or unbinds it), the function store
never reaches the cache, :meth:`CompileService.jit_counters` surfaces the
accounting, and
``repro.conformance run``'s fallback service persists through
``$REPRO_CACHE_DIR`` like a daemon would.
"""

import argparse

import pytest

from repro.machine import jit as machine_jit
from repro.service.cache import ArtifactCache
from repro.service.scheduler import CompileService, bind_jit_store


@pytest.fixture(autouse=True)
def _isolated_process_stores():
    saved = machine_jit.get_translation_store()
    bind_jit_store(None)
    yield
    machine_jit.set_translation_store(saved)
    machine_jit.clear_translation_cache()


def _bound_dir():
    """The jit tier's cache dir, None = unbound."""
    jit_cache = machine_jit.get_translation_store()
    return jit_cache.cache_dir if jit_cache is not None else None


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
        bind_jit_store(ArtifactCache())
        assert _bound_dir() is None

    def test_none_cache_stays_process_local(self, tmp_path):
        bind_jit_store(ArtifactCache(cache_dir=str(tmp_path)))
        bind_jit_store(None)
        assert _bound_dir() is None

    def test_persistent_cache_installs_store(self, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path))
        bind_jit_store(cache)
        assert machine_jit.get_translation_store() is cache

    @pytest.mark.parametrize("persistent_first", [True, False])
    def test_a_later_service_rebinds_the_jit_tier(self, tmp_path,
                                                  persistent_first):
        # a memory-only service created after a persistent one used to
        # leave jit translations going to the *old* directory
        caches = [ArtifactCache(cache_dir=str(tmp_path)), ArtifactCache()]
        if not persistent_first:
            caches.reverse()
        for cache in caches:
            CompileService(cache)
        expected = None if persistent_first else caches[-1].cache_dir
        assert _bound_dir() == expected


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

    def test_sweep_persists_artifacts(self, tmp_path, monkeypatch):
        from repro.conformance.oracle import run_sweep
        from repro.service import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "store"))
        from repro.conformance.__main__ import _sweep_service
        args = argparse.Namespace(no_daemon=True, jobs=1, socket=None)
        service = _sweep_service(args)
        report = run_sweep([3], engines=["compiled", "jit"], service=service)
        assert report.seeds == [3]
        # compiles flowed through the persistent store: whole-module
        # artifacts survive for the next process, function stages do not
        by_ns = service.cache.stats()["by_namespace"]
        assert by_ns["artifact"]["stores"] > 0
        assert "function" not in by_ns
        shards = list((tmp_path / "store" / "shards").glob("*.json"))
        assert shards, "sweep stored nothing in the sharded disk store"
