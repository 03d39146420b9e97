"""The flow registry: name -> :class:`~repro.flows.base.Flow` dispatch.

Mirrors MLIR's pass registration: flows register themselves once, and every
consumer (the compile service, the table spec, ``python -m repro.opt``) looks
them up by name.  The built-in flows live in :mod:`repro.flows.builtin` and
are loaded lazily on first lookup, so importing :mod:`repro.flows.base`
(the machine does, for its engine names) does not load them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Union

from .base import Flow, FlowError

FLOW_REGISTRY: Dict[str, Flow] = {}

_builtin_loaded = False


def _ensure_builtin() -> None:
    global _builtin_loaded
    if not _builtin_loaded:
        # flag first: builtin.py itself calls register_flow while importing
        _builtin_loaded = True
        try:
            from . import builtin  # noqa: F401  (registers the built-in flows)
        except Exception:
            _builtin_loaded = False
            raise


def register_flow(flow: Union[Flow, type], *, replace: bool = False) -> Flow:
    """Register a flow (instance or class) under its ``name``.

    Usable as a class decorator.  Re-registering an existing name raises
    unless ``replace=True``.  Built-in flows are loaded first, so a user
    registration colliding with ``flang``/``ours`` fails here, cleanly,
    rather than poisoning the registry at first lookup.
    """
    _ensure_builtin()
    if isinstance(flow, type):
        instance = flow()
    else:
        instance = flow
    name = instance.name
    if not name or name == "<unnamed>":
        raise FlowError(f"flow {type(instance).__name__} has no name")
    if name in FLOW_REGISTRY and not replace:
        raise FlowError(f"a flow named '{name}' is already registered")
    FLOW_REGISTRY[name] = instance
    return flow if isinstance(flow, type) else instance


def unregister_flow(name: str) -> None:
    FLOW_REGISTRY.pop(name, None)


def get_flow(name: str) -> Flow:
    """Look a flow up by name; the error names the registered alternatives."""
    _ensure_builtin()
    try:
        return FLOW_REGISTRY[name]
    except KeyError:
        raise FlowError(f"unknown compiler flow {name!r} "
                        f"(registered: {', '.join(available_flows())})") from None


def available_flows() -> List[str]:
    _ensure_builtin()
    return sorted(FLOW_REGISTRY)


@contextmanager
def registered(flow: Union[Flow, type]) -> Iterator[Flow]:
    """Temporarily register ``flow`` (tests: try a new flow, then clean up)."""
    register_flow(flow)
    name = flow.name  # the class attribute and the instance attribute agree
    try:
        yield FLOW_REGISTRY[name]
    finally:
        unregister_flow(name)


__all__ = ["FLOW_REGISTRY", "available_flows", "get_flow", "register_flow",
           "registered", "unregister_flow"]
