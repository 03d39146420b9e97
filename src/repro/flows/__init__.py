"""First-class, registered compilation flows.

The mlir-opt analogy carried one level up: where passes register by name so
pipelines are *data* (``builtin.module(canonicalize, cse)``), flows register
by name so entire compilation strategies are data too.  The compile service,
the table spec and ``python -m repro.opt`` all dispatch through
:func:`get_flow`; registering a new :class:`Flow` is the only step needed to
make it cacheable, schedulable and measurable.

* :mod:`repro.flows.base` — :class:`Flow` (whose ``compile`` is the one
  driver), :class:`OptionsSchema`, :class:`ExecutionContext`,
  :class:`FlowResult`, :func:`source_workload`;
* :mod:`repro.flows.registry` — registration and lookup;
* :mod:`repro.flows.builtin` — the ``flang`` and ``ours`` flows.
"""

from .base import (DEFAULT_ENGINE, ENGINES, CapabilityError, ExecutionContext,
                   Flow, FlowError, FlowOption, FlowResult, OptionError,
                   OptionsSchema, source_workload)
from .registry import (FLOW_REGISTRY, available_flows, get_flow,
                       register_flow, registered, unregister_flow)

__all__ = [
    "CapabilityError", "DEFAULT_ENGINE", "ENGINES", "ExecutionContext", "Flow", "FlowError", "FlowOption",
    "FlowResult", "OptionError", "OptionsSchema", "FLOW_REGISTRY",
    "available_flows", "get_flow", "register_flow", "registered",
    "source_workload", "unregister_flow",
]
