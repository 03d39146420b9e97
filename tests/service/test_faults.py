"""Deterministic fault injection: spec round trips, decision determinism,
arming semantics, and the documented site surface."""

from pathlib import Path

import pytest

import repro
from repro.service import faults
from repro.service.faults import (FAULTS_ENV, KNOWN_SITES, FaultInjected,
                                  FaultPlan, FaultRule, FaultSpecError)

SRC_ROOT = Path(repro.__file__).resolve().parent


class TestSpecRoundTrip:
    def test_parse_full_spec(self):
        plan = FaultPlan.from_spec(
            "seed=42;worker.crash:p=1,key=jacobi,attempt=0;"
            "sharded.write.torn:p=0.1")
        assert plan.seed == 42
        assert plan.rules == (
            FaultRule("worker.crash", p=1.0, key="jacobi", attempt=0),
            FaultRule("sharded.write.torn", p=0.1))

    def test_round_trip_is_stable(self):
        spec = ("seed=7;worker.hang:p=0.5,key=x,attempt=2,delay=1.5;"
                "store.payload.corrupt:p=1")
        plan = FaultPlan.from_spec(spec)
        assert FaultPlan.from_spec(plan.to_spec()) == FaultPlan.from_spec(spec)

    def test_attempt_wildcard_and_empty_chunks(self):
        plan = FaultPlan.from_spec(";;seed=1;worker.crash:attempt=*,p=1;;")
        assert plan.rules[0].attempt is None

    @pytest.mark.parametrize("bad", [
        "seed=x", "worker.crash:p=nope", "worker.crash:frob=1",
        "worker.crash:pea", ":p=1",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_spec(bad)


class TestDecisions:
    def test_decisions_are_deterministic_functions_of_the_seed(self):
        plan_a = FaultPlan.from_spec("seed=5;sharded.write.torn:p=0.5")
        plan_b = FaultPlan.from_spec("seed=5;sharded.write.torn:p=0.5")
        keys = [f"key-{i}" for i in range(64)]
        decide = lambda plan: [plan.decide("sharded.write.torn", key=k)
                               is not None for k in keys]
        assert decide(plan_a) == decide(plan_b)
        fired = sum(decide(plan_a))
        assert 0 < fired < len(keys), "p=0.5 must fire sometimes, not always"

    def test_different_seeds_make_different_decisions(self):
        keys = [f"key-{i}" for i in range(64)]
        outcomes = {
            seed: tuple(
                FaultPlan.from_spec(f"seed={seed};worker.crash:p=0.5")
                .decide("worker.crash", key=k) is not None for k in keys)
            for seed in (1, 2)}
        assert outcomes[1] != outcomes[2]

    def test_attempt_scoping_lets_the_retry_through(self):
        plan = FaultPlan.from_spec("seed=1;worker.crash:p=1,key=j,attempt=0")
        assert plan.decide("worker.crash", key="job", attempt=0) is not None
        assert plan.decide("worker.crash", key="job", attempt=1) is None

    def test_site_patterns_are_globs(self):
        plan = FaultPlan.from_spec("seed=1;sharded.*:p=1")
        assert plan.decide("sharded.read.error") is not None
        assert plan.decide("worker.crash") is None

    def test_fired_counts_are_diagnostic_only(self):
        plan = FaultPlan.from_spec("seed=1;worker.crash:p=1")
        plan.decide("worker.crash", key="a")
        assert plan.fired == {"worker.crash": 1}


class TestArming:
    def test_disarmed_sites_are_noops(self):
        assert faults.check("worker.crash", key="anything") is None
        assert faults.corrupt_payload("store.payload.corrupt",
                                      {"ok": True}) == {"ok": True}

    def test_install_arms_and_restores(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        plan = FaultPlan.from_spec("seed=1;sharded.read.error:p=1")
        with faults.install(plan):
            import os
            assert os.environ[FAULTS_ENV] == plan.to_spec()
            with pytest.raises(FaultInjected):
                faults.maybe_raise("sharded.read.error")
        import os
        assert FAULTS_ENV not in os.environ
        assert faults.check("sharded.read.error") is None

    def test_env_only_arming_works(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "seed=1;store.payload.corrupt:p=1")
        faults.rearm_from_env()
        assert faults.check("store.payload.corrupt") is not None
        monkeypatch.delenv(FAULTS_ENV)
        assert faults.check("store.payload.corrupt") is None

    def test_corrupt_payload_mangles_detectably(self):
        plan = FaultPlan.from_spec("seed=1;store.payload.corrupt:p=1")
        with faults.install(plan, export=False):
            assert faults.corrupt_payload("store.payload.corrupt",
                                          {"ok": True}) == \
                {"__fault__": "store.payload.corrupt"}
            assert faults.corrupt_payload("store.payload.corrupt",
                                          "x" * 10) == "x" * 5
            assert faults.corrupt_payload("store.payload.corrupt",
                                          None) is None


class TestChaosPlans:
    def test_random_plans_are_replayable_and_recoverable(self):
        for seed in range(8):
            plan = FaultPlan.random(seed)
            assert plan == FaultPlan.random(seed)
            assert FaultPlan.from_spec(plan.to_spec()) == plan
            assert len(plan.rules) >= 3
            for rule in plan.rules:
                if rule.site in ("worker.crash", "worker.hang"):
                    assert rule.attempt == 0, \
                        "chaos crashes/hangs must spare the retry"

    def test_chaos_corruption_reaches_every_namespace(self):
        # one unfiltered store.payload.corrupt rule, site keys "<ns>:<key>":
        # every random plan carries it and it fires in all three namespaces
        from repro.service.cache import NAMESPACES
        for seed in range(8):
            plan = FaultPlan.random(seed)
            rules = [r for r in plan.rules
                     if r.site == "store.payload.corrupt"]
            assert len(rules) == 1 and not rules[0].key
            for ns in NAMESPACES:
                assert any(plan.decide("store.payload.corrupt",
                                       key=f"{ns}:{index:04x}") is not None
                           for index in range(256)), (seed, ns)

    def test_every_known_site_is_wired_into_the_source(self):
        text = "\n".join(p.read_text()
                         for p in sorted(SRC_ROOT.rglob("*.py")))
        assert len(KNOWN_SITES) == 10
        for site in KNOWN_SITES:
            assert f'"{site}"' in text, \
                f"documented site {site} is not referenced anywhere"
