"""Persistent jit translations: keying, eviction and the disk tier.

The broad engine-parity guarantee lives in ``test_engine_parity``; these
tests target the translation *cache* mechanics the persistence work fixed
and introduced: bounded LRU eviction (a full cache evicts one entry, not
all), source-digest keying (blocks that emit different source get distinct
translations whatever their uids; a rebuilt block finds its own), the disk
roundtrip (a simulated and a real fresh process load the stored bytecode
with bit-identical output and stats), version bumps and emitter changes as
clean misses, and corrupt payload handling (source of record wins, never
an error).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.machine import Interpreter
from repro.machine import jit
from repro.service.cache import ArtifactCache
from repro.service.serialization import stats_to_dict

from ..conftest import flang_module


def _compile_fir(source: str):
    return flang_module(source)


def _program(body: str) -> str:
    return f"program p\n  implicit none\n{body}\nend program p\n"


#: hot enough (static work >= the jit's _TRANSLATE_WORK) to translate on
#: first entry, so a single run_main exercises the full store pipeline
LOOP_PROGRAM = _program("""
  integer :: i
  real(kind=8), dimension(1024) :: a
  do i = 1, 1024
    a(i) = real(i, 8) * 1.5d0 + 0.25d0
  end do
  print *, a(1), a(511), a(1024)
""")


def _loop_program(operator: str) -> str:
    """One hot loop per arithmetic operator: each emits its own source
    (programs differing only in a constant would share one translation)."""
    return _program(f"""
  integer :: i
  real(kind=8), dimension(1024) :: a
  do i = 1, 1024
    a(i) = real(i, 8) {operator} 2.0d0
  end do
  print *, a(1), a(1024)
""")


def _entry_block(interp: Interpreter):
    for name in ("_QQmain", "main", "MAIN"):
        func = interp.functions.get(name)
        if func is not None:
            return func.regions[0].blocks[0]
    raise AssertionError("module has no main program")


def _run_jit(module):
    interp = Interpreter(module, engine="jit")
    interp.run_main()
    return interp.printed, stats_to_dict(interp.stats)


@pytest.fixture(autouse=True)
def _isolated_translation_cache():
    """Each test starts cold and leaves no store behind."""
    saved = jit.get_translation_store()
    jit.set_translation_store(None)
    jit.clear_translation_cache()
    yield
    jit.set_translation_store(saved)
    jit.clear_translation_cache()


# ---------------------------------------------------------------------------
# Bounded LRU eviction
# ---------------------------------------------------------------------------

class TestCodeCacheLRU:
    def test_full_cache_evicts_one_entry_not_all(self, monkeypatch):
        monkeypatch.setattr(jit, "_CODE_CACHE_MAX", 3)
        modules = [_compile_fir(_loop_program(operator))
                   for operator in "*+-/"]
        interps = [Interpreter(m, engine="jit") for m in modules]
        keys = [jit.translation_key(interp, _entry_block(interp))
                for interp in interps[:3]]
        assert len(set(keys)) == 3
        assert len(jit._CODE_CACHE) == 3

        # touch the oldest entry so it becomes most-recently-used
        jit.compile_block(interps[0], _entry_block(interps[0]))

        # overflowing evicts exactly the single LRU entry (keys[1]) —
        # the old behaviour cleared the whole cache here
        key3 = jit.translation_key(interps[3], _entry_block(interps[3]))
        assert len(jit._CODE_CACHE) == 3
        assert keys[0] in jit._CODE_CACHE
        assert keys[1] not in jit._CODE_CACHE
        assert keys[2] in jit._CODE_CACHE
        assert key3 in jit._CODE_CACHE

    def test_refilling_evicted_entry_keeps_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(jit, "_CODE_CACHE_MAX", 2)
        modules = [_compile_fir(_loop_program(operator))
                   for operator in "*+-"]
        interps = [Interpreter(m, engine="jit") for m in modules]
        for _ in range(2):    # cycle through all three twice
            for interp in interps:
                jit.compile_block(interp, _entry_block(interp))
                assert len(jit._CODE_CACHE) <= 2


# ---------------------------------------------------------------------------
# Source-digest keying vs uid aliasing
# ---------------------------------------------------------------------------

class TestUidCollision:
    def test_colliding_uids_get_distinct_translations(self):
        # a long-lived daemon can see two different blocks with the same
        # _uid (uids restart with every process); the old (_uid, stride)
        # key would alias their translations
        interp_a = Interpreter(_compile_fir(_loop_program("*")), engine="jit")
        interp_b = Interpreter(_compile_fir(_loop_program("+")), engine="jit")
        block_a, block_b = _entry_block(interp_a), _entry_block(interp_b)
        block_b._uid = block_a._uid
        assert block_a._uid == block_b._uid

        key_a = jit.translation_key(interp_a, block_a)
        key_b = jit.translation_key(interp_b, block_b)
        assert key_a != key_b

        source_a = interp_a._jit.source_for(block_a)
        source_b = interp_b._jit.source_for(block_b)
        assert len(jit._CODE_CACHE) == 2
        assert source_a != source_b

    def test_rebuilt_block_reuses_translation(self):
        # the converse guarantee: fresh frontend run, entirely new uids
        # and objects, same emitted source -> same key, no second translation
        interp_a = Interpreter(_compile_fir(LOOP_PROGRAM), engine="jit")
        interp_b = Interpreter(_compile_fir(LOOP_PROGRAM), engine="jit")
        block_a, block_b = _entry_block(interp_a), _entry_block(interp_b)
        assert block_a is not block_b

        before = jit.snapshot_translation_counters()
        jit.compile_block(interp_a, block_a)
        jit.compile_block(interp_b, block_b)
        delta = jit.translation_counters_delta(before)
        assert delta["misses"] == 1
        assert delta["memory_hits"] == 1
        assert len(jit._CODE_CACHE) == 1
        assert jit.translation_key(interp_a, block_a) == \
            jit.translation_key(interp_b, block_b)


# ---------------------------------------------------------------------------
# The process caches hold code, never IR
# ---------------------------------------------------------------------------

class TestProcessCachesDoNotPinModules:
    def test_executed_module_is_collectable(self):
        # a long-lived daemon executes thousands of modules: the process
        # cache must keep only what is structure-portable (code, source),
        # so a dropped module really goes away
        import gc
        import weakref
        module = _compile_fir(LOOP_PROGRAM)
        interp = Interpreter(module, engine="jit")
        interp.run_main()
        assert interp._jit.cache and jit._CODE_CACHE
        alive = weakref.ref(module)
        del module, interp
        gc.collect()
        assert alive() is None
        assert jit._CODE_CACHE    # the translation itself is still cached

    def test_fresh_interpreter_on_live_module_replans_nothing(
            self, monkeypatch):
        # the steady state the daemon and the bench serve: the block owns
        # its instantiation material, so a second interpreter only copies
        # the namespace and exec()s the cached code object
        module = _compile_fir(LOOP_PROGRAM)
        printed, stats = _run_jit(module)

        def no_planning(block):
            raise AssertionError("steady state re-planned a block")
        monkeypatch.setattr(jit, "plan_block", no_planning)
        before = jit.snapshot_translation_counters()
        assert _run_jit(module) == (printed, stats)
        delta = jit.translation_counters_delta(before)
        assert delta["misses"] == 0
        assert delta["memory_hits"] >= 1

    def test_a_clone_of_executed_ir_carries_no_translations(self):
        # the block-owned material binds code objects and live namespaces;
        # it is process-local and must never ride along in the clones the
        # function store serves
        module = _compile_fir(LOOP_PROGRAM)
        printed, stats = _run_jit(module)
        func = next(op for op in module.body.ops if op.name == "func.func")
        assert any(hasattr(block, "_jit") for op in func.walk()
                   for region in op.regions for block in region.blocks)
        clone = func.clone()
        assert not any(hasattr(block, "_jit") for op in clone.walk()
                       for region in op.regions for block in region.blocks)


# ---------------------------------------------------------------------------
# The disk tier (simulated process restarts in-process)
# ---------------------------------------------------------------------------

class _TamperingStore:
    """Wraps a real store, rewriting looked-up payloads (corruption sim)."""

    def __init__(self, inner, rewrite):
        self._inner = inner
        self._rewrite = rewrite

    def get(self, key, ns):
        payload = self._inner.get(key, ns=ns)
        return self._rewrite(dict(payload)) if payload is not None else None

    def put(self, key, payload, ns):
        self._inner.put(key, payload, ns=ns)


class TestDiskTier:
    @pytest.fixture
    def store(self, tmp_path):
        return ArtifactCache(cache_dir=str(tmp_path / "artifacts"))

    def _seed(self, store):
        """Cold run that populates ``store``; returns (printed, stats)."""
        jit.set_translation_store(store)
        before = jit.snapshot_translation_counters()
        printed, stats = _run_jit(_compile_fir(LOOP_PROGRAM))
        delta = jit.translation_counters_delta(before)
        assert delta["misses"] >= 1
        assert delta["stores"] == delta["misses"]
        assert delta["disk_hits"] == 0
        return printed, stats

    def test_fresh_process_loads_what_it_stored(self, store):
        printed, stats = self._seed(store)
        jit.clear_translation_cache()    # simulate a fresh process

        before = jit.snapshot_translation_counters()
        warm_printed, warm_stats = _run_jit(_compile_fir(LOOP_PROGRAM))
        delta = jit.translation_counters_delta(before)
        assert delta["misses"] == 0
        assert delta["disk_hits"] >= 1
        assert warm_printed == printed
        assert warm_stats == stats

    def test_semantics_version_bump_is_clean_miss(self, store, monkeypatch):
        from repro.machine import semantics
        self._seed(store)
        jit.clear_translation_cache()

        monkeypatch.setattr(semantics, "SEMANTICS_VERSION",
                            semantics.SEMANTICS_VERSION + 1)
        before = jit.snapshot_translation_counters()
        _run_jit(_compile_fir(LOOP_PROGRAM))
        delta = jit.translation_counters_delta(before)
        assert delta["disk_hits"] == 0
        assert delta["misses"] >= 1
        assert delta["stores"] == delta["misses"]    # re-stored under new key

    def test_key_schema_version_bump_is_clean_miss(self, store, monkeypatch):
        from repro.service import jobs
        self._seed(store)
        jit.clear_translation_cache()

        monkeypatch.setattr(jobs, "KEY_SCHEMA_VERSION",
                            jobs.KEY_SCHEMA_VERSION + 1)
        before = jit.snapshot_translation_counters()
        _run_jit(_compile_fir(LOOP_PROGRAM))
        delta = jit.translation_counters_delta(before)
        assert delta["disk_hits"] == 0
        assert delta["misses"] >= 1

    def test_emitter_change_without_a_version_bump_is_a_clean_miss(
            self, store, monkeypatch):
        # the address *is* the emitted source: an emitter that writes
        # anything else (here: the kind-assertion test seam) looks up
        # another address, so a payload compiled from other source than
        # this block generates now cannot be found, let alone used — and
        # the changed emitter's translations cannot poison the original's
        printed, stats = self._seed(store)
        jit.clear_translation_cache()

        monkeypatch.setattr(jit, "_ASSERT_KINDS", True)
        before = jit.snapshot_translation_counters()
        warm_printed, warm_stats = _run_jit(_compile_fir(LOOP_PROGRAM))
        delta = jit.translation_counters_delta(before)
        assert delta["disk_hits"] == 0
        assert delta["misses"] >= 1
        assert delta["stores"] == delta["misses"]
        assert (warm_printed, warm_stats) == (printed, stats)

        monkeypatch.setattr(jit, "_ASSERT_KINDS", False)
        jit.clear_translation_cache()
        before = jit.snapshot_translation_counters()
        assert _run_jit(_compile_fir(LOOP_PROGRAM)) == (printed, stats)
        delta = jit.translation_counters_delta(before)
        assert delta["misses"] == 0 and delta["disk_hits"] >= 1

    def test_corrupt_bytecode_falls_back_to_stored_source(self, store):
        # the marshal fast path is only a shortcut: flipping its bytes
        # must fall back to compiling the (verified) source, still a hit
        printed, stats = self._seed(store)
        jit.clear_translation_cache()

        def corrupt(payload):
            payload["bytecode"] = "AAAA"
            return payload

        jit.set_translation_store(_TamperingStore(store, corrupt))
        before = jit.snapshot_translation_counters()
        warm_printed, warm_stats = _run_jit(_compile_fir(LOOP_PROGRAM))
        delta = jit.translation_counters_delta(before)
        assert delta["disk_hits"] >= 1
        assert delta["misses"] == 0
        assert (warm_printed, warm_stats) == (printed, stats)

    def test_partitioned_translation_round_trips_unit_by_unit(
            self, store, monkeypatch, compiled_sources):
        # every step list above 8 ops is cut, so the entry block of
        # LOOP_PROGRAM is several units: one code object, one persisted
        # bytecode blob and — on a foreign interpreter build — one
        # compile() per unit, all addressed by the one joined source
        monkeypatch.setattr(jit, "_UNIT_OPS", 8)
        compiled = compiled_sources
        printed, stats = self._seed(store)
        units = list(compiled)      # every unit the cold run compiled
        stored = [store.get(key, ns="jit") for key in jit._CODE_CACHE]
        assert max(len(payload["bytecode"]) for payload in stored) > 1
        assert sum(len(payload["bytecode"]) for payload in stored) \
            == len(units)
        for entry, payload in zip(jit._CODE_CACHE.values(), stored):
            assert isinstance(entry.code, tuple)
            assert len(entry.code) == len(payload["bytecode"])
            # neither home of a translation holds its source text, nor a
            # second digest of it: the address is the only one
            assert not any(isinstance(getattr(entry, slot), (str, bytes))
                           for slot in entry.__slots__)
            assert set(payload) == {"format", "magic", "bytecode"}
            assert not any(unit in str(payload) for unit in units)

        def warm(rewrite):
            jit.clear_translation_cache()
            del compiled[:]
            jit.set_translation_store(_TamperingStore(store, rewrite))
            before = jit.snapshot_translation_counters()
            observed = _run_jit(_compile_fir(LOOP_PROGRAM))
            assert observed == (printed, stats)
            return jit.translation_counters_delta(before)

        # same build: the blobs are unmarshalled, nothing is compiled
        delta = warm(lambda payload: payload)
        assert delta["misses"] == 0 and delta["disk_hits"] >= 1
        assert compiled == []

        # foreign build: still a hit, recompiled from source unit by unit
        def foreign(payload):
            payload["magic"] = "00000000"
            return payload
        delta = warm(foreign)
        assert delta["misses"] == 0 and delta["disk_hits"] >= 1
        assert sorted(compiled) == sorted(units)

        # a blob list that does not fit the emission (torn): the source
        # decides, unit by unit
        def torn(payload):
            payload["bytecode"] = payload["bytecode"][:-1]
            return payload
        delta = warm(torn)
        assert delta["misses"] == 0 and delta["disk_hits"] >= 1
        assert sorted(compiled) == sorted(units)

    @staticmethod
    def _calls(count: int) -> str:
        """``bump`` is a handful of ops per entry — cold to the tiering —
        entered ``count`` times from a loop the main program runs hot."""
        return """
subroutine bump(total, i)
  implicit none
  integer, intent(inout) :: total
  integer, intent(in) :: i
  total = total + i
end subroutine bump
""" + _program(f"""
  integer :: i, total
  total = 0
  do i = 1, {count}
    call bump(total, i)
  end do
  print *, total
""")

    @staticmethod
    def _bump_block(interp):
        return next(func for name, func in interp.functions.items()
                    if "bump" in name).regions[0].blocks[0]

    def test_cold_block_looks_nothing_up_until_promoted(self, store):
        # a block's address is what it emits, and a cold block is not
        # worth an emission: it runs on thunks — no plan, no lookup in
        # memory or on disk — until it has been entered _PROMOTE_AFTER
        # times, then translates and is stored like any other
        jit.set_translation_store(store)
        before = jit.snapshot_translation_counters()
        few = Interpreter(_compile_fir(self._calls(jit._PROMOTE_AFTER)),
                          engine="jit")
        few.run_main()
        delta = jit.translation_counters_delta(before)
        assert self._bump_block(few) not in few._jit.cache
        assert delta["lookups"] == delta["stores"] == 1     # the main program

        before = jit.snapshot_translation_counters()
        many = Interpreter(_compile_fir(self._calls(12)), engine="jit")
        many.run_main()
        delta = jit.translation_counters_delta(before)
        assert self._bump_block(many) in many._jit.cache
        assert delta["lookups"] == 2 and delta["stores"] == delta["misses"]

        jit.clear_translation_cache()               # a fresh process
        before = jit.snapshot_translation_counters()
        again = Interpreter(_compile_fir(self._calls(12)), engine="jit")
        again.run_main()
        delta = jit.translation_counters_delta(before)
        assert delta["lookups"] == delta["disk_hits"] == 2
        assert again.printed == many.printed
        assert stats_to_dict(again.stats) == stats_to_dict(many.stats)

    def test_live_translation_is_used_at_once_however_cold(self):
        # a translation the block object already resolved instantiates
        # for pennies: the next interpreter on the module uses it on
        # first entry, whatever the tiering thinks of the block
        module = _compile_fir(self._calls(2))
        interp = Interpreter(module, engine="jit")
        jit.compile_block(interp, self._bump_block(interp))     # forced
        interp.run_main()
        before = jit.snapshot_translation_counters()
        interp2 = Interpreter(module, engine="jit")
        interp2.run_main()
        delta = jit.translation_counters_delta(before)
        assert self._bump_block(interp2) in interp2._jit.cache
        assert delta["memory_hits"] == delta["lookups"] == 2


# ---------------------------------------------------------------------------
# The real thing: two separate OS processes sharing one store directory
# ---------------------------------------------------------------------------

_SUBPROCESS_DRIVER = """
import json, sys
from repro.flows import get_flow, source_workload
from repro.machine import Interpreter
from repro.machine import jit
from repro.service.cache import ArtifactCache
from repro.service.serialization import stats_to_dict

cache_dir, source_path = sys.argv[1], sys.argv[2]
jit.set_translation_store(ArtifactCache(cache_dir=cache_dir))
with open(source_path) as fh:
    source = fh.read()
module = get_flow("flang").run(source_workload(source)).module
before = jit.snapshot_translation_counters()
interp = Interpreter(module, engine="jit")
interp.run_main()
print(json.dumps({
    "counters": jit.translation_counters_delta(before),
    "printed": interp.printed,
    "stats": stats_to_dict(interp.stats),
}))
"""


class TestCrossProcess:
    def test_translate_once_fresh_process_compiles_from_store(self, tmp_path):
        source_path = tmp_path / "program.f90"
        source_path.write_text(LOOP_PROGRAM)
        cache_dir = tmp_path / "artifacts"

        def run_once():
            env = dict(os.environ)
            root = os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))))
            env["PYTHONPATH"] = os.path.join(root, "src")
            proc = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_DRIVER,
                 str(cache_dir), str(source_path)],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.strip().splitlines()[-1])

        cold, warm = run_once(), run_once()
        assert cold["counters"]["misses"] >= 1
        assert cold["counters"]["stores"] == cold["counters"]["misses"]
        # the second process never ran a frontend-to-jit translation: every
        # translated block came off disk, bit-identical
        assert warm["counters"]["misses"] == 0
        assert warm["counters"]["disk_hits"] >= 1
        assert warm["counters"]["hit_rate"] == 1.0
        assert warm["printed"] == cold["printed"]
        assert warm["stats"] == cold["stats"]
