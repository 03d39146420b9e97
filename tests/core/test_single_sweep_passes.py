"""Single-sweep passes: same IR as the restart-walk versions, linear cost.

``hoist-allocatable-loads`` used to re-walk a whole loop per (load x
enclosing loop) and ``raise-scf-to-affine`` restarted its function walk
after every promoted loop.  Both now make one sweep.  The old algorithms
live on *here*, as references the production passes must match byte for
byte, and the cost of the new ones is guarded by counting traced line
events on generated programs of two sizes — no timing involved.
"""

import pytest

from repro.conformance.generator import generate
from repro.core import convert_fir_to_standard
from repro.core.hoist_descriptor_loads import (
    HoistDescriptorLoadsPass, _deduplicate_loads, _enclosing_loops,
    _is_container_load, _ops_storing_to)
from repro.core.scf_to_affine import ScfToAffine
from repro.flows import available_flows, get_flow
from repro.frontend import lower_to_hlfir
from repro.ir.pass_manager import PassManager, get_registered_pass
from repro.ir.printer import print_op
from repro.workloads import all_workloads

from ..conftest import count_lines


# ---------------------------------------------------------------------------
# references: the restart-walk algorithms the passes replaced
# ---------------------------------------------------------------------------


def _container_written_in(loop, container) -> bool:
    for op in loop.walk():
        if op.name == "memref.store" and len(op.operands) >= 2 \
                and op.operands[1] is container:
            return True
    return False


def reference_hoist(func) -> int:
    """One loop walk per (load, enclosing loop) query."""
    hoisted = 0
    changed = True
    while changed:
        changed = False
        for op in list(func.walk()):
            if not _is_container_load(op):
                continue
            loops = _enclosing_loops(op)
            if not loops:
                continue
            container = op.operands[0]
            target_loop = None
            for loop in loops:
                if _container_written_in(loop, container):
                    break
                defining = getattr(container, "op", None)
                if defining is not None and loop.is_ancestor_of(defining):
                    break
                target_loop = loop
            if target_loop is None:
                continue
            op.detach()
            target_loop.parent.insert_before(target_loop, op)
            hoisted += 1
            changed = True
    hoisted += _deduplicate_loads(func, _ops_storing_to(func))
    return hoisted


def reference_raise(self) -> int:
    """Restart the function walk after every promoted loop."""
    changed = True
    while changed:
        changed = False
        for op in list(self.func.walk()):
            if op.name == "scf.for" and self._promote(op) is not None:
                changed = True
                self.promoted += 1
                break
    return self.promoted


@pytest.fixture
def restart_walk_passes(monkeypatch):
    calls = {"hoist": 0, "raise": 0}

    def hoist(self, func):
        calls["hoist"] += 1
        reference_hoist(func)

    def raise_(self):
        calls["raise"] += 1
        return reference_raise(self)

    def install():
        monkeypatch.setattr(HoistDescriptorLoadsPass, "run_on_function",
                            hoist)
        monkeypatch.setattr(ScfToAffine, "run", raise_)
        return calls

    return install


def _final_ir(flow_name, workload) -> str:
    result = get_flow(flow_name).run(workload, collect_statistics=False)
    assert result.error is None, result.error
    return print_op(result.module)


PROGRAMS = [pytest.param(w, id=w.name) for w in all_workloads()] + \
    [pytest.param(generate(seed).workload(), id=f"conformance-{seed}")
     for seed in range(32)]


class TestSameIrAsTheRestartWalks:
    @pytest.mark.parametrize("workload", PROGRAMS)
    def test_final_ir_is_byte_identical(self, workload, restart_walk_passes):
        single_sweep = {flow: _final_ir(flow, workload)
                        for flow in available_flows()}
        calls = restart_walk_passes()
        for flow in available_flows():
            assert _final_ir(flow, workload) == single_sweep[flow], flow
        assert calls["hoist"] and calls["raise"]


# ---------------------------------------------------------------------------
# cost: four times the program, about four times the work
# ---------------------------------------------------------------------------

#: quadratic passes read 10-13x here; the linear ones 3.7-4.0x
LINEAR_RATIO = 4.5


def _allocatable_assignments(count: int) -> str:
    """``count`` assignments over allocatable arrays in one loop body."""
    names = [f"a{k}" for k in range(count)]
    declarations = "\n".join(
        f"  real(kind=8), dimension(:), allocatable :: {name}"
        for name in names)
    allocations = "\n".join(f"  allocate({name}(m))" for name in names)
    body = "\n".join(
        f"    {name}(i) = {names[(k + 1) % count]}(i) + {k}.0d0"
        for k, name in enumerate(names))
    return (f"program main\n  implicit none\n"
            f"  integer, parameter :: m = 8\n{declarations}\n"
            f"  integer :: i\n{allocations}\n"
            f"  do i = 1, m\n{body}\n  end do\n"
            f"  print *, a0(1)\nend program main\n")


def _sibling_loops(count: int) -> str:
    loops = "\n".join(
        f"  do i = 1, m\n    a(i) = a(i) + {k}.0d0\n  end do"
        for k in range(count))
    return (f"program main\n  implicit none\n"
            f"  integer, parameter :: m = 8\n"
            f"  real(kind=8), dimension(m) :: a\n  integer :: i\n"
            f"  a = 0.0d0\n{loops}\n"
            f"  print *, a(1)\nend program main\n")


#: what ``optimise_pipeline`` runs ahead of the two passes under test
BEFORE_HOIST = ("canonicalize", "cse", "forward-scalar-stores", "canonicalize",
                "cse", "loop-invariant-code-motion", "insert-alloca-scopes",
                "recover-static-shapes")
BEFORE_RAISE = BEFORE_HOIST + ("hoist-allocatable-loads",
                               "convert-linalg-to-loops")


def _standard(source: str, passes):
    module = convert_fir_to_standard(lower_to_hlfir(source))
    pipeline = PassManager()
    for name in passes:
        pipeline.add(name)
    pipeline.run(module)
    return module


CASES = {
    "hoist-allocatable-loads":
        lambda n: _standard(_allocatable_assignments(n), BEFORE_HOIST),
    "convert-hlfir-to-fir":
        lambda n: lower_to_hlfir(_allocatable_assignments(n)),
    "raise-scf-to-affine":
        lambda n: _standard(_sibling_loops(n), BEFORE_RAISE),
}


@pytest.mark.parametrize("pass_name", sorted(CASES))
def test_pass_cost_grows_linearly_with_the_program(pass_name):
    def cost(size: int) -> int:
        module = CASES[pass_name](size)
        before = print_op(module)
        pass_ = get_registered_pass(pass_name)()
        lines = count_lines(lambda: pass_.run(module))
        assert print_op(module) != before, "the pass had nothing to do"
        return lines

    small, large = cost(16), cost(64)
    assert large / small <= LINEAR_RATIO, (small, large)
