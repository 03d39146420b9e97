"""Sharded disk store: layout, durability, LRU byte budget."""

import json

import pytest

from repro.service.cache import ArtifactCache
from repro.service.sharded import (SHARDED_FORMAT, ShardedStore,
                                   parse_byte_size)


def payload_for(key, size=0):
    return {"key": key, "ok": True, "module_text": "x" * size}


KEY_A = "aa" + "0" * 62
KEY_A2 = "aa" + "1" * 62   # same shard as KEY_A
KEY_B = "bb" + "0" * 62


class TestLayout:
    def test_keys_fan_out_by_hash_prefix(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        store.put(KEY_A, payload_for(KEY_A))
        store.put(KEY_A2, payload_for(KEY_A2))
        store.put(KEY_B, payload_for(KEY_B))
        assert (tmp_path / "shards" / "aa.json").exists()
        assert (tmp_path / "shards" / "bb.json").exists()
        blob = json.loads((tmp_path / "shards" / "aa.json").read_text())
        assert set(blob["entries"]) == {KEY_A, KEY_A2}
        assert store.get(KEY_A2) == payload_for(KEY_A2)
        assert (tmp_path / "CACHE_FORMAT").read_text().strip() == \
            str(SHARDED_FORMAT)

    def test_store_reopens_across_instances(self, tmp_path):
        ShardedStore(str(tmp_path)).put(KEY_A, payload_for(KEY_A))
        again = ShardedStore(str(tmp_path))
        assert again.contains(KEY_A)
        assert again.get(KEY_A) == payload_for(KEY_A)
        assert again.total_bytes() > 0


class TestDurability:
    def test_corrupt_shard_is_a_miss_then_recovered(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        store.put(KEY_A, payload_for(KEY_A))
        (tmp_path / "shards" / "aa.json").write_text('{"entries": truncated')
        assert store.get(KEY_A) is None
        assert not store.contains(KEY_A)
        assert store.corrupt_shards > 0
        # the next store into the shard overwrites the wreckage wholesale
        store.put(KEY_A2, payload_for(KEY_A2))
        assert store.get(KEY_A2) == payload_for(KEY_A2)

    def test_corrupt_shard_only_affects_its_prefix(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        store.put(KEY_A, payload_for(KEY_A))
        store.put(KEY_B, payload_for(KEY_B))
        (tmp_path / "shards" / "aa.json").write_text("not json at all")
        assert store.get(KEY_A) is None
        assert store.get(KEY_B) == payload_for(KEY_B)


class TestEviction:
    def test_byte_budget_evicts_least_recently_used(self, tmp_path):
        # measure what one entry costs on disk, then budget for six of the
        # eight entries below: exactly two evictions, in LRU order
        probe = ShardedStore(str(tmp_path / "probe"))
        probe.put(KEY_A, payload_for(KEY_A, size=1000))
        per_entry = probe.total_bytes()
        budget = 6 * per_entry + per_entry // 2
        store = ShardedStore(str(tmp_path / "store"), byte_budget=budget)
        keys = [f"{i:02x}" + "f" * 62 for i in range(8)]
        for key in keys[:4]:
            store.put(key, payload_for(key, size=1000))
        # touch the very first key so it is the *most* recently used
        assert store.get(keys[0]) is not None
        for key in keys[4:]:
            store.put(key, payload_for(key, size=1000))
        assert store.total_bytes() <= budget
        assert store.evictions == 2
        assert store.contains(keys[0]), \
            "recently-read entry must survive eviction"
        assert store.contains(keys[-1]), \
            "the newest entry must survive eviction"
        assert not store.contains(keys[1]), \
            "the oldest untouched entry goes first"
        assert not store.contains(keys[2]), \
            "the second-oldest untouched entry goes next"

    def test_zero_budget_disables_eviction(self, tmp_path):
        store = ShardedStore(str(tmp_path), byte_budget=0)
        for i in range(6):
            key = f"{i:02x}" + "e" * 62
            store.put(key, payload_for(key, size=2000))
        assert store.evictions == 0

    def test_cache_stats_surface_disk_accounting(self, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path), byte_budget=4000)
        for i in range(6):
            key = f"{i:02x}" + "d" * 62
            cache.put(key, payload_for(key, size=1500))
        stats = cache.stats()
        assert stats["evictions"] > 0
        assert 0 < stats["disk_bytes"] <= 4000
        assert stats["byte_budget"] == 4000


class TestByteSize:
    @pytest.mark.parametrize("text,expected", [
        ("0", 0), ("123", 123), ("4K", 4096), ("2M", 2 * 1024 ** 2),
        ("1G", 1024 ** 3), (" 64M ", 64 * 1024 ** 2)])
    def test_parse(self, text, expected):
        assert parse_byte_size(text) == expected

    @pytest.mark.parametrize("text", ["", "x", "-1", "12Q"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_byte_size(text)
