"""Structural fingerprinting: the addressing scheme of incremental compiles.

The contract under test: two functions fingerprint equal iff a
deterministic pass pipeline treats them identically.  Clones and
identically-rebuilt IR must collide; any semantic difference (op names,
attributes, operand wiring, types) and any salt change must not; purely
cosmetic state (uid counters, value name hints) must be invisible.
"""

import pytest

from repro.core.fir_to_standard import convert_fir_to_standard
from repro.flows import get_flow
from repro.frontend import lower_to_hlfir
from repro.ir import StringAttr, structural_fingerprint, structural_hash
from repro.workloads import all_workloads, get_workload

TWO_FUNCS = """
subroutine f1(n)
  implicit none
  integer, intent(in) :: n
  integer :: i
  real(kind=8), dimension(32) :: a, b
  do i = 1, 32
    b(i) = a(i) * 2.0d0
  end do
end subroutine f1

subroutine f2(n)
  implicit none
  integer, intent(in) :: n
  integer :: i
  real(kind=8), dimension(32) :: c
  do i = 1, 32
    c(i) = c(i) + 1.0d0
  end do
end subroutine f2
"""


def _compile_module(source=TWO_FUNCS):
    return convert_fir_to_standard(lower_to_hlfir(source))


def _funcs(module):
    return [op for op in module.regions[0].blocks[0].ops
            if op.name == "func.func"]


def test_clone_fingerprints_identically():
    module = _compile_module()
    for func in _funcs(module):
        assert structural_fingerprint(func) == \
            structural_fingerprint(func.clone())


def test_rebuilt_frontend_run_fingerprints_identically():
    # a fresh frontend run allocates entirely different uids and objects
    a, b = _compile_module(), _compile_module()
    for fa, fb in zip(_funcs(a), _funcs(b)):
        assert structural_fingerprint(fa) == structural_fingerprint(fb)


def test_different_functions_differ():
    f1, f2 = _funcs(_compile_module())
    assert structural_fingerprint(f1) != structural_fingerprint(f2)


def test_attribute_change_changes_fingerprint():
    func = _funcs(_compile_module())[0]
    before = structural_fingerprint(func)
    func.attributes["sym_name"] = StringAttr('"renamed"')
    assert structural_fingerprint(func) != before


def test_salt_changes_fingerprint():
    func = _funcs(_compile_module())[0]
    assert structural_fingerprint(func, salt="func.func(canonicalize)") != \
        structural_fingerprint(func, salt="func.func(canonicalize,cse)")
    assert structural_fingerprint(func, salt="x") == \
        structural_fingerprint(func, salt="x")


def test_name_hints_are_cosmetic():
    module = _compile_module()
    func = _funcs(module)[0]
    before = structural_fingerprint(func)
    for op in func.walk():
        for result in op.results:
            result.name_hint = "renamed_hint"
    assert structural_fingerprint(func) == before


def test_uid_renumbering_is_invisible():
    func = _funcs(_compile_module())[0]
    clone = func.clone()
    assert {op._uid for op in clone.walk()}.isdisjoint(
        op._uid for op in func.walk())
    assert structural_fingerprint(clone) == structural_fingerprint(func)


def test_operand_wiring_matters():
    # swap the operands of a commutative-looking op: the *structure*
    # changed, so the fingerprint must too (passes may not treat the
    # orders identically)
    module = _compile_module()
    func = _funcs(module)[0]
    target = None
    for op in func.walk():
        if op.name == "arith.mulf" and op.operands[0] is not op.operands[1]:
            target = op
            break
    if target is None:
        pytest.skip("no binary mulf with distinct operands in this kernel")
    before = structural_fingerprint(func)
    a, b = target.operands
    target.set_operand(0, b)
    target.set_operand(1, a)
    assert structural_fingerprint(func) != before


# ---------------------------------------------------------------------------
# the token stream is pinned: how it is produced may change, it may not
# ---------------------------------------------------------------------------


class _OneTokenAtATime(structural_hash._Fingerprinter):
    """The token stream of STRUCTURAL_HASH_VERSION 1, written the obvious
    way: the reference the production visitor's fast paths must match."""

    def _visit_ops(self, ops) -> None:
        tokens = self._tokens
        for op in ops:
            tokens.append(f"op:{op.name}")
            for key in sorted(op.attributes):
                attr = op.attributes[key]
                tokens.append(
                    f"attr:{key}={type(attr).__name__}:{attr.mlir()}")
            tokens.append("operands:" + ",".join(
                self._value_token(v) for v in op.operands))
            tokens.append("results:" + ",".join(
                self._type_token(r.type) for r in op.results))
            for result in op.results:
                self._values[id(result)] = len(self._values)
            tokens.append("successors:" + ",".join(
                self._block_token(b) for b in op.successors))
            tokens.append(f"regions:{len(op.regions)}")
            for region in op.regions:
                for block in region.blocks:
                    self._blocks[id(block)] = len(self._blocks)
                for block in region.blocks:
                    tokens.append("block:" + ",".join(
                        self._type_token(a.type) for a in block.args))
                    for arg in block.args:
                        self._values[id(arg)] = len(self._values)
                    self._visit_ops(list(block.ops))
                tokens.append("endregion")


#: ``ours``-flow final module, salt "pin", computed by the commit before
#: the visitor grew its fast paths
PINNED = {
    "jacobi":
        "73ba37496e838fdead9da368b0af9e1812669efedf737bce6e50e1774694f832",
    "pw-advection":
        "afb1f20a32ccccf193d88f4a3b5b1c84224ace8b041d75e208313a4eaf0f65bd",
    "dotproduct":
        "9cd46be625ed94a5420d3bcdcd1f4b17ab2da9a3d3d6e5999b4814942008649c",
}


class TestTokenStreamIsPinned:
    @pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
    def test_digests_match_the_reference_visitor(self, workload,
                                                 monkeypatch):
        module = get_flow("ours").run(get_workload(workload),
                                      collect_statistics=False).module
        def digests():
            return [structural_fingerprint(f, salt="s")
                    for f in _funcs(module)]

        fast = digests()
        if workload in PINNED:
            assert PINNED[workload] == \
                structural_fingerprint(module, salt="pin")
        monkeypatch.setattr(structural_hash, "_Fingerprinter",
                            _OneTokenAtATime)
        assert digests() == fast

    def test_the_version_constant_did_not_move(self):
        assert structural_hash.STRUCTURAL_HASH_VERSION == 1
