"""The one namespaced store and the one counter type.

* addressing — the ``artifact`` namespace uses job keys as-is, ``jit``
  folds ``KEY_SCHEMA_VERSION`` exactly once and never collides;
* the README's *what-invalidates-what* table, checked constant by constant;
* per-namespace accounting whose flat totals are the sum over namespaces;
* one in-memory home per payload: over a disk tier the LRU holds the
  ``artifact`` namespace only (plus whatever was put non-durably);
* a stateful history test: puts, non-durable puts, gets, memory clears,
  reopens, truncated shards, flipped bytes, foreign writers, injected
  corruption and eviction under a small budget, against a dict model;
* :class:`repro.counters.Counters` itself.
"""

import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.counters import Counters
from repro.service import CompileService, faults, jobs_for
from repro.service.cache import NAMESPACES, ArtifactCache, address
from repro.service.faults import FaultPlan
from repro.service.scheduler import bind_jit_store
from repro.service.jobs import CompileJob

from ..conftest import flang_module

README = Path(__file__).resolve().parents[2] / "README.md"


# ---------------------------------------------------------------------------
# addressing
# ---------------------------------------------------------------------------

class TestAddressing:
    def test_artifact_namespace_uses_the_job_key_as_is(self):
        key = CompileJob("ours", "sum").key()
        assert address("artifact", key) == key

    def test_namespaces_are_disjoint_for_the_same_raw_key(self):
        # the two families share one sharded store; identical key strings
        # must never collide across namespaces
        raw = "feed" * 16
        addresses = {address(ns, raw) for ns in NAMESPACES}
        assert len(addresses) == len(NAMESPACES)

    @pytest.mark.parametrize("ns", [ns for ns in NAMESPACES
                                    if ns != "artifact"])
    def test_schema_version_is_address_material(self, ns, monkeypatch):
        from repro.service import jobs
        before = address(ns, "beef" * 16)
        monkeypatch.setattr(jobs, "KEY_SCHEMA_VERSION",
                            jobs.KEY_SCHEMA_VERSION + 1)
        assert address(ns, "beef" * 16) != before

    @pytest.mark.parametrize("ns", sorted(NAMESPACES))
    def test_distinct_keys_distinct_addresses(self, ns):
        assert address(ns, "a" * 64) != address(ns, "b" * 64)


# ---------------------------------------------------------------------------
# what invalidates what (the README table is the specification)
# ---------------------------------------------------------------------------

def _invalidation_table():
    """``[(module, constant, {namespaces it invalidates})]`` parsed from the
    README's what-invalidates-what table."""
    rows = []
    for line in README.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and re.fullmatch(r"`[A-Z_]+`", cells[0]) \
                and cells[1].endswith(".py`"):
            module = "repro." + cells[1].strip("`")[:-3].replace("/", ".")
            hit = {ns for ns, mark in zip(("artifact", "jit"), cells[2:4])
                   if mark}
            rows.append((module, cells[0].strip("`"), hit))
    return rows


def _sample_addresses():
    """One real address per namespace, recomputed from scratch."""
    from repro.machine import Interpreter, jit

    module = flang_module(
        "program p\n  integer :: i\n  i = 1\n  print *, i\nend program p\n")
    func = next(op for op in module.walk() if op.name == "func.func")
    jit.clear_translation_cache()
    interp = Interpreter(module, engine="jit")
    return {
        "artifact": address("artifact", CompileJob("ours", "sum").key()),
        "jit": address("jit", jit.translation_key(
            interp, func.regions[0].blocks[0])),
    }


def test_readme_table_lists_every_version_constant():
    assert {name for _, name, _ in _invalidation_table()} == {
        "KEY_SCHEMA_VERSION", "STRUCTURAL_HASH_VERSION", "SEMANTICS_VERSION",
        "JIT_FORMAT_VERSION", "SHARDED_FORMAT"}


@pytest.mark.parametrize("module,constant,invalidated", _invalidation_table(),
                         ids=lambda value: value if isinstance(value, str)
                         else None)
def test_bumping_a_constant_moves_exactly_the_tables_namespaces(
        module, constant, invalidated, monkeypatch):
    import importlib
    before = _sample_addresses()
    owner = importlib.import_module(module)
    monkeypatch.setattr(owner, constant, getattr(owner, constant) + 1)
    after = _sample_addresses()
    assert {ns for ns in NAMESPACES if after[ns] != before[ns]} == invalidated


# ---------------------------------------------------------------------------
# per-namespace accounting
# ---------------------------------------------------------------------------

def test_namespaces_are_accounted_separately_and_sum_to_the_flat_keys(
        tmp_path, monkeypatch):
    from repro.service import incremental
    # a cold process: nothing in the clients' own tiers yet
    store = incremental.FunctionArtifactStore()
    monkeypatch.setattr(incremental, "_PROCESS_STORE", store)
    service = CompileService(ArtifactCache(cache_dir=str(tmp_path)))
    try:
        report = service.submit(jobs_for("figure3"))
        assert report.unique == report.executed == 3
        stats = service.cache.stats()
        by_ns = stats["by_namespace"]
        assert by_ns["artifact"]["misses"] == 3
        assert by_ns["artifact"]["stores"] == 3
        # function stages stay in the process: none reach the store
        assert set(by_ns) == {"artifact", "jit"}
        assert store.counters.stores > 0
        assert store.counters.misses == store.counters.stores
        for name in ("memory_hits", "disk_hits", "misses", "stores", "hits",
                     "lookups"):
            assert stats[name] == sum(ns[name] for ns in by_ns.values())
            assert service.counters()[name] == stats[name]
        for name in ("disk_bytes", "evictions", "corrupt_entries"):
            assert name in stats
    finally:
        bind_jit_store(None)


# ---------------------------------------------------------------------------
# one in-memory home per payload
# ---------------------------------------------------------------------------

def _sample_payload(ns):
    return dict.fromkeys(NAMESPACES[ns], f"{ns}-payload")


class TestMemoryHomes:
    def test_over_a_disk_tier_the_lru_holds_artifacts_only(self, tmp_path):
        # jit payloads are decoded into the jit's own code cache; a
        # second, encoded copy in the LRU would only ever be memory
        cache = ArtifactCache(str(tmp_path))
        for ns in NAMESPACES:
            cache.put("k", _sample_payload(ns), ns=ns)
            assert cache.get("k", ns=ns) == _sample_payload(ns)
            assert cache.get("k", ns=ns) == _sample_payload(ns)
        assert list(cache._memory) == [address("artifact", "k")]
        by_ns = cache.stats()["by_namespace"]
        assert by_ns["artifact"]["memory_hits"] == 2
        assert by_ns["jit"]["memory_hits"] == 0
        assert by_ns["jit"]["disk_hits"] == 2

    def test_what_has_no_other_home_stays_in_the_lru(self, tmp_path):
        memory_only = ArtifactCache()
        over_disk = ArtifactCache(str(tmp_path))
        for ns in NAMESPACES:
            memory_only.put("k", _sample_payload(ns), ns=ns)
            over_disk.put("k", _sample_payload(ns), ns=ns, durable=False)
        for cache in (memory_only, over_disk):
            assert len(cache._memory) == len(NAMESPACES)
            for ns in NAMESPACES:
                assert cache.get("k", ns=ns) == _sample_payload(ns)
        # ... and a later durable put does not leave the old one shadowing
        newer = dict(_sample_payload("jit"), newer=True)
        over_disk.put("k", newer, ns="jit")
        assert over_disk.get("k", ns="jit") == newer

    def test_a_cold_service_batch_leaves_only_artifacts_in_the_lru(
            self, tmp_path, monkeypatch):
        from repro.machine import jit
        from repro.service import incremental
        # a cold process: nothing in the clients' own tiers yet
        monkeypatch.setattr(incremental, "_PROCESS_STORE",
                            incremental.FunctionArtifactStore())
        jit.clear_translation_cache()
        service = CompileService(ArtifactCache(str(tmp_path)))
        try:
            report = service.submit(jobs_for("figure3"))
            stats = service.cache.stats()["by_namespace"]
            assert stats["jit"]["stores"]
            assert set(service.cache._memory) == {
                job.key() for job in jobs_for("figure3")}
            assert len(service.cache._memory) == report.unique
        finally:
            bind_jit_store(None)


# ---------------------------------------------------------------------------
# stateful store history against a dict model
# ---------------------------------------------------------------------------

KEYS = ("aa1", "aa2", "b")     # aa1/aa2 share an artifact shard
SLOTS = st.tuples(st.sampled_from(sorted(NAMESPACES)), st.sampled_from(KEYS))


class StoreHistory(RuleBasedStateMachine):
    """``mem``/``disk`` model the two tiers per ``(ns, key)``; ``shaky``
    holds disk entries that damage or eviction *may* have taken (a get may
    then miss, but must never return anything else).

    Over a disk tier the LRU is the ``artifact`` namespace's memory home
    only: ``jit`` payloads live there just when nothing else holds them
    (a non-durable put), so a durable one is always read from disk — where
    injected corruption can reach it."""

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="repro-store-history-")
        self.puts = 0

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    @initialize(budget=st.sampled_from([0, 1500]))
    def open(self, budget):
        self.budget = budget
        self.mem, self.disk, self.shaky = {}, {}, set()
        self._reopen()

    def _reopen(self):
        self.cache = ArtifactCache(self.dir, byte_budget=self.budget)
        self.mem.clear()
        self.gets = dict.fromkeys(NAMESPACES, 0)
        self.memory_hits = dict.fromkeys(NAMESPACES, 0)
        self.stores = dict.fromkeys(NAMESPACES, 0)

    def _payload(self, ns, key, pad):
        self.puts += 1
        token = f"{ns}/{key}/{self.puts}#"
        payload = dict.fromkeys(NAMESPACES[ns], token)
        payload.update(token=token, pad="x" * pad)
        return payload

    def _shard_mates(self, prefix):
        return {slot for slot in self.disk if address(*slot)[:2] == prefix}

    # ------------------------------------------------------------- requests
    @rule(slot=SLOTS, pad=st.integers(0, 400), durable=st.booleans())
    def put(self, slot, pad, durable):
        ns, key = slot
        payload = self._payload(ns, key, pad)
        self.cache.put(key, payload, ns=ns, durable=durable)
        self.stores[ns] += 1
        if ns == "artifact" or not durable:
            self.mem[slot] = payload
        else:
            self.mem.pop(slot, None)
        if durable:
            self.disk[slot] = payload
            self.shaky.discard(slot)
            if self.budget:     # any store may push anything out
                self.shaky |= set(self.disk)

    @rule(slot=SLOTS, corrupt=st.booleans())
    def get(self, slot, corrupt):
        ns, key = slot
        plan = FaultPlan.from_spec("seed=1;store.payload.corrupt:p=1")
        with faults.install(plan if corrupt else None, export=False):
            got = self.cache.get(key, ns=ns)
        self.gets[ns] += 1
        if slot in self.mem:
            assert got == self.mem[slot]
            self.memory_hits[ns] += 1
        elif corrupt or slot not in self.disk:
            assert got is None
        elif slot in self.shaky:
            assert got is None or got == self.disk[slot]
        else:
            assert got == self.disk[slot]
        if got is not None:
            assert self.cache.contains(key, ns=ns)
            if ns == "artifact":
                self.mem[slot] = got

    @rule()
    def clear_memory(self):
        self.cache.clear_memory()
        self.mem.clear()

    @rule()
    def reopen_from_disk(self):
        self._reopen()

    # --------------------------------------------------------------- damage
    @rule(pick=st.integers(0, 255))
    def truncate_a_shard(self, pick):
        shards = sorted(Path(self.dir, "shards").glob("*.json"))
        if not shards:
            return
        shard = shards[pick % len(shards)]
        blob = shard.read_bytes()
        shard.write_bytes(blob[:len(blob) // 2])
        self.shaky |= self._shard_mates(shard.stem)

    @rule(slot=SLOTS)
    def flip_a_byte_in_an_entry(self, slot):
        if slot not in self.disk:
            return
        shard = Path(self.dir, "shards", address(*slot)[:2] + ".json")
        token = self.disk[slot]["token"]
        try:
            text = shard.read_text()
        except OSError:
            return
        if token in text:       # else: already evicted or truncated away
            shard.write_text(text.replace(token, token[:-1] + "%", 1))
            del self.disk[slot]         # fails its CRC from now on

    @rule(slot=SLOTS)
    def foreign_writer_stores_another_shape(self, slot):
        self.cache.store.put(address(*slot), {"junk": slot[1]})
        self.disk.pop(slot, None)
        if self.budget:
            self.shaky |= set(self.disk)

    # ----------------------------------------------------------- invariants
    @invariant()
    def counters_add_up(self):
        stats = self.cache.stats()
        for ns, row in stats["by_namespace"].items():
            assert row["lookups"] == self.gets[ns]
            assert row["lookups"] == row["hits"] + row["misses"]
            assert row["memory_hits"] == self.memory_hits[ns]
            assert row["stores"] == self.stores[ns]
        for name in ("memory_hits", "disk_hits", "misses", "stores",
                     "hits", "lookups"):
            assert stats[name] == sum(row[name] for row
                                      in stats["by_namespace"].values())


StoreHistory.TestCase.settings = settings(max_examples=60,
                                          stateful_step_count=40,
                                          deadline=None)
TestStoreHistory = StoreHistory.TestCase


# ---------------------------------------------------------------------------
# the counter type
# ---------------------------------------------------------------------------

class TestCounters:
    def test_views_share_storage_and_strip_their_prefix(self):
        root = Counters()
        root.view("jit").inc("misses")
        root.inc("function.misses", 2)
        assert root.snapshot() == {"jit.misses": 1, "function.misses": 2}
        assert root.view("function").snapshot() == {"misses": 2}
        assert root.view("jit").misses == 1 and root.misses == 3

    def test_as_dict_derives_hits_lookups_and_hit_rate(self):
        counters = Counters({"memory_hits": 2, "disk_hits": 1, "misses": 1})
        assert counters.as_dict() == {
            "memory_hits": 2, "disk_hits": 1, "misses": 1, "stores": 0,
            "hits": 3, "lookups": 4, "hit_rate": 0.75}
        assert Counters().as_dict()["hit_rate"] == 0.0

    def test_delta_reports_only_what_changed(self):
        counters = Counters({"a": 1, "b": 2})
        before = counters.snapshot()
        assert counters.delta(before) == {}
        counters.inc("b")
        counters.inc("c", 4)
        assert counters.delta(before) == {"b": 1, "c": 4}

    def test_merge_is_associative_and_commutative(self):
        deltas = [{"x": 1, "y": 2}, {"y": 3}, {"x": 5, "z": 1}]

        def fold(order):
            total = Counters()
            for index in order:
                total.merge(deltas[index])
            return total.snapshot()

        nested = Counters(deltas[1])
        nested.merge(deltas[2])
        left = Counters(deltas[0])
        left.merge(nested.snapshot())
        assert fold([0, 1, 2]) == fold([2, 0, 1]) == left.snapshot() \
            == {"x": 6, "y": 5, "z": 1}

    def test_worker_delta_round_trip_through_the_side_channel(self):
        from repro.counters import PROCESS
        from repro.service.jobs import execute_spec_timed
        before = PROCESS.snapshot()
        key, payload, elapsed, delta = execute_spec_timed(
            CompileJob("ours", "dotproduct").spec())
        assert payload["ok"] and payload["key"] == key and elapsed > 0
        assert delta == PROCESS.delta(before)
        assert delta and all(name.startswith(("function.", "jit."))
                             for name in delta)
