"""Deterministic fault injection for the compilation service stack.

Every fragile operation in the service — shard reads and writes, payload
deserialisation, pool-worker execution, the daemon socket protocol — calls a
named **injection site** (:func:`check` or one of the ``maybe_*`` helpers).
With no plan armed the call is a single module-global boolean test, so the
production path pays nothing.  Arming a :class:`FaultPlan` makes selected
sites misbehave *deterministically*: whether a site fires is a pure function
of ``(plan seed, site name, context key, attempt)``, never of process-local
RNG state or call ordering, so

* an observed failure sequence is replayable bit-for-bit from its seed,
* pool workers (which re-parse the plan from ``$REPRO_FAULTS``) make the
  very same decisions the parent would, and
* a retry with a bumped ``attempt`` re-rolls the decision, which is how a
  plan expresses "crash the first attempt, let the retry through"
  (``attempt=0`` in the rule).

Spec syntax (``$REPRO_FAULTS`` or :meth:`FaultPlan.from_spec`)::

    seed=42;worker.crash:p=1,key=jacobi,attempt=0;sharded.write.torn:p=0.1

``;`` separates rules, the first ``seed=N`` entry seeds the plan, and each
rule is ``<site-pattern>:param=value,...`` with

* ``p``       — firing probability in [0, 1] (deterministic hash threshold),
* ``key``     — only contexts whose key contains this substring match,
* ``attempt`` — only this attempt number matches (``*``/absent: any),
* ``delay``   — seconds for hang/slow sites (default 30).

Site patterns are :mod:`fnmatch` globs (``sharded.*`` arms every store
site).  The canonical site names are listed in :data:`KNOWN_SITES`.

Arming: :func:`install` (a context manager) arms a plan for the current
thread *and* exports it to ``$REPRO_FAULTS`` so process pools spawned inside
the block inherit it; workers arm themselves from the environment on first
use.  ``REPRO_FAULTS`` alone (no :func:`install`) also works — that is how
the chaos sweep drives whole CLI invocations.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Environment variable carrying a fault-plan spec (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

#: Every injection site threaded through the service stack, with the layer
#: that hosts it.  ``check`` accepts unknown names (plans may predate code),
#: but tests assert the documented surface stays honest.
KNOWN_SITES: Dict[str, str] = {
    "sharded.write.torn": "sharded.py — publish a truncated shard file",
    "sharded.read.error": "sharded.py — shard read raises OSError",
    "sharded.payload.corrupt": "sharded.py — entry mangled before checksum",
    "store.payload.corrupt": "cache.py — disk-tier payload of any "
                             "namespace mangled above the checksum "
                             "(context key \"<ns>:<key>\")",
    "worker.crash": "jobs.py — pool worker dies with os._exit",
    "worker.hang": "jobs.py — pool worker sleeps past the job timeout",
    "client.send.drop": "client.py — connection lost before the request",
    "client.recv.drop": "client.py — connection lost awaiting the response",
    "daemon.response.drop": "daemon.py — daemon closes without responding",
    "daemon.response.slow": "daemon.py — daemon delays its response",
}


class FaultSpecError(ValueError):
    """A fault-plan spec string could not be parsed."""


class FaultInjected(RuntimeError):
    """Base class for errors raised by firing injection sites."""


@dataclass(frozen=True)
class FaultRule:
    """One armed misbehaviour: a site pattern plus firing constraints."""

    site: str                            # fnmatch pattern over site names
    p: float = 1.0                       # firing probability
    key: str = ""                        # substring filter on context keys
    attempt: Optional[int] = None        # None: any attempt
    delay: float = 30.0                  # seconds, for hang/slow sites

    def matches(self, site: str, key: str, attempt: int) -> bool:
        if not fnmatch.fnmatchcase(site, self.site):
            return False
        if self.key and self.key not in key:
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        return True

    def to_spec(self) -> str:
        parts = [f"p={self.p:g}"]
        if self.key:
            parts.append(f"key={self.key}")
        if self.attempt is not None:
            parts.append(f"attempt={self.attempt}")
        if self.delay != 30.0:
            parts.append(f"delay={self.delay:g}")
        return f"{self.site}:{','.join(parts)}"


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultRule` — the unit of replayability."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    #: Site -> number of times a rule fired in *this process* (diagnostics
    #: only; firing decisions never read it).
    fired: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------- decisions
    def _fraction(self, site: str, key: str, attempt: int) -> float:
        """Deterministic uniform draw in [0, 1) for one decision point."""
        material = f"{self.seed}\x1f{site}\x1f{key}\x1f{attempt}"
        digest = hashlib.sha256(material.encode()).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def decide(self, site: str, key: str = "",
               attempt: int = 0) -> Optional[FaultRule]:
        """The first rule that matches *and* wins its probability roll."""
        for rule in self.rules:
            if not rule.matches(site, key, attempt):
                continue
            if rule.p >= 1.0 or self._fraction(site, key, attempt) < rule.p:
                self.fired[site] = self.fired.get(site, 0) + 1
                return rule
        return None

    # ------------------------------------------------------------ spec round trip
    def to_spec(self) -> str:
        return ";".join([f"seed={self.seed}"]
                        + [rule.to_spec() for rule in self.rules])

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        seed = 0
        rules: List[FaultRule] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if chunk.startswith("seed="):
                try:
                    seed = int(chunk[5:])
                except ValueError:
                    raise FaultSpecError(f"bad seed in fault spec: {chunk!r}")
                continue
            site, sep, params = chunk.partition(":")
            if not site:
                raise FaultSpecError(f"empty site in fault spec: {chunk!r}")
            kwargs: Dict[str, Any] = {}
            if sep:
                for pair in params.split(","):
                    pair = pair.strip()
                    if not pair:
                        continue
                    name, eq, value = pair.partition("=")
                    if not eq:
                        raise FaultSpecError(
                            f"bad rule parameter {pair!r} in {chunk!r}")
                    try:
                        if name == "p":
                            kwargs["p"] = float(value)
                        elif name == "key":
                            kwargs["key"] = value
                        elif name == "attempt":
                            kwargs["attempt"] = (None if value == "*"
                                                 else int(value))
                        elif name == "delay":
                            kwargs["delay"] = float(value)
                        else:
                            raise FaultSpecError(
                                f"unknown rule parameter {name!r} "
                                f"in {chunk!r}")
                    except ValueError:
                        raise FaultSpecError(
                            f"bad value for {name!r} in {chunk!r}")
            rules.append(FaultRule(site=site, **kwargs))
        return cls(seed=seed, rules=tuple(rules))

    # ------------------------------------------------------------ chaos plans
    @classmethod
    def random(cls, seed: int) -> "FaultPlan":
        """A randomized-but-replayable recoverable-fault plan for ``seed``.

        Every rule is **recoverable by construction**: worker crashes and
        hangs are confined to attempt 0 (the self-healing scheduler's retry
        then runs clean), store faults degrade to cache misses, and socket
        drops stay under the client's retry budget.  A sweep under any
        ``random`` plan must therefore finish with results bit-identical to
        a fault-free sweep.
        """
        digest = hashlib.sha256(f"chaos-plan:{seed}".encode()).digest()
        menu = [
            FaultRule("sharded.write.torn", p=0.08),
            FaultRule("sharded.read.error", p=0.05),
            FaultRule("sharded.payload.corrupt", p=0.05),
            # no key filter: fires in the artifact, function and jit
            # namespaces alike
            FaultRule("store.payload.corrupt", p=0.08),
            FaultRule("worker.crash", p=0.04, attempt=0),
            FaultRule("worker.hang", p=0.02, attempt=0, delay=2.0),
            FaultRule("client.send.drop", p=0.10, attempt=0),
            FaultRule("client.recv.drop", p=0.10, attempt=0),
        ]
        # pick a deterministic subset from the menu; a torn write, payload
        # corruption, a worker crash and a dropped send are always in
        rules = tuple(rule for index, rule in enumerate(menu)
                      if digest[index % len(digest)] % 3 != 0
                      or index in (0, 3, 4, 6))
        return cls(seed=seed, rules=rules)


# ---------------------------------------------------------------------------
# arming
# ---------------------------------------------------------------------------

#: Fast-path gate: ``check`` returns immediately while this is False.  It is
#: flipped by :func:`install` and by environment (re)scans, so a disarmed
#: process pays one boolean test per site.
_MAYBE_ARMED = bool(os.environ.get(FAULTS_ENV))

_ACTIVE: "ContextVar[Optional[FaultPlan]]" = ContextVar("repro_fault_plan",
                                                        default=None)

#: Plan parsed from the environment, cached against the raw spec string so
#: env changes (tests monkeypatching, chaos drivers) are picked up.
_ENV_CACHE: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def _env_plan() -> Optional[FaultPlan]:
    global _ENV_CACHE, _MAYBE_ARMED
    raw = os.environ.get(FAULTS_ENV) or None
    cached_raw, cached_plan = _ENV_CACHE
    if raw == cached_raw:
        return cached_plan
    plan = FaultPlan.from_spec(raw) if raw else None
    _ENV_CACHE = (raw, plan)
    _MAYBE_ARMED = _MAYBE_ARMED or plan is not None
    return plan


def active_plan() -> Optional[FaultPlan]:
    """The plan governing this context: installed plan first, then env."""
    plan = _ACTIVE.get()
    if plan is not None:
        return plan
    return _env_plan()


@contextmanager
def install(plan: Optional[FaultPlan],
            export: bool = True) -> Iterator[Optional[FaultPlan]]:
    """Arm ``plan`` for this context (and, with ``export``, for subprocess
    pools spawned inside the block, via ``$REPRO_FAULTS``)."""
    global _MAYBE_ARMED
    token = _ACTIVE.set(plan)
    previous_env = os.environ.get(FAULTS_ENV)
    previous_armed = _MAYBE_ARMED
    if plan is not None:
        _MAYBE_ARMED = True
        if export:
            os.environ[FAULTS_ENV] = plan.to_spec()
    elif export:
        os.environ.pop(FAULTS_ENV, None)
    try:
        yield plan
    finally:
        _ACTIVE.reset(token)
        if export:
            if previous_env is None:
                os.environ.pop(FAULTS_ENV, None)
            else:
                os.environ[FAULTS_ENV] = previous_env
        _MAYBE_ARMED = previous_armed or bool(os.environ.get(FAULTS_ENV))


def rearm_from_env() -> None:
    """Re-read ``$REPRO_FAULTS`` (pool-worker initialisers call this so a
    plan exported after worker-module import still arms the fast path)."""
    global _MAYBE_ARMED
    _MAYBE_ARMED = _MAYBE_ARMED or bool(os.environ.get(FAULTS_ENV))


# ---------------------------------------------------------------------------
# injection sites
# ---------------------------------------------------------------------------


def check(site: str, key: str = "", attempt: int = 0) -> Optional[FaultRule]:
    """The armed rule firing at this site for this context, or ``None``.

    This is the only entry point sites need; the ``maybe_*`` helpers wrap
    the common behaviours.  Disarmed cost: one global boolean test.
    """
    if not _MAYBE_ARMED:
        return None
    plan = active_plan()
    if plan is None:
        return None
    return plan.decide(site, key=key, attempt=attempt)


def maybe_raise(site: str, key: str = "", attempt: int = 0,
                exc_type: type = FaultInjected) -> None:
    """Raise ``exc_type`` when the site fires."""
    rule = check(site, key=key, attempt=attempt)
    if rule is not None:
        raise exc_type(f"injected fault at {site} (key={key!r}, "
                       f"attempt={attempt})")


def maybe_sleep(site: str, key: str = "", attempt: int = 0) -> bool:
    """Sleep for the rule's ``delay`` when the site fires."""
    rule = check(site, key=key, attempt=attempt)
    if rule is None:
        return False
    time.sleep(rule.delay)
    return True


def maybe_crash(site: str, key: str = "", attempt: int = 0) -> None:
    """Kill this process with ``os._exit`` when the site fires (simulates a
    segfaulting pool worker: no exception crosses the pipe, the executor
    sees :class:`~concurrent.futures.process.BrokenProcessPool`)."""
    if check(site, key=key, attempt=attempt) is not None:
        os._exit(17)


def corrupt_payload(site: str, payload: Any, key: str = "",
                    attempt: int = 0) -> Any:
    """Return a detectably-mangled copy of ``payload`` when the site fires.

    Dict payloads lose their keys' meaning (every consumer must treat that
    as a miss); string payloads are truncated mid-way (torn write).
    """
    if check(site, key=key, attempt=attempt) is None:
        return payload
    if isinstance(payload, dict):
        return {"__fault__": site}
    if isinstance(payload, (str, bytes)):
        return payload[:max(1, len(payload) // 2)]
    return None


__all__ = ["FAULTS_ENV", "KNOWN_SITES", "FaultInjected", "FaultPlan",
           "FaultRule", "FaultSpecError", "active_plan", "check",
           "corrupt_payload", "install", "maybe_crash", "maybe_raise",
           "maybe_sleep", "rearm_from_env"]
