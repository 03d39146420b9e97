"""The intrusive op list behind ``Block.ops``.

Four things are pinned here:

* a hypothesis state machine drives every list mutation the IR offers
  against a plain-Python-list model (``OpListHistory``);
* the iterate-while-mutating contract of ``block.ops`` and the walks;
* constant-cost edits, counted in traced line events instead of timed;
* a clone is linked, live IR with fresh uids, in the list's current order.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dialects import arith, scf
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir import Block, IRError, create_operation
from repro.ir import types as T
from repro.ir.attributes import IntegerAttr
from repro.ir.builder import InsertPoint
from repro.ir.core import Operation

from ..conftest import count_lines


def _marker(number: int) -> Operation:
    return create_operation("test.op", attributes={"n": IntegerAttr(number)})


# ---------------------------------------------------------------------------
# (a) every mutation against a list model
# ---------------------------------------------------------------------------

POSITION = st.integers(0, 1 << 16)


class OpListHistory(RuleBasedStateMachine):
    """``main`` and ``side`` are two blocks of one region; ``models`` holds
    what each should contain, ``loose`` the detached ops and ``dead`` the
    erased ones."""

    def __init__(self):
        super().__init__()
        holder = create_operation("test.holder", regions=1)
        self.region = holder.regions[0]
        self.main, self.side = Block(), Block()
        self.region.add_block(self.main)
        self.region.add_block(self.side)
        self.models = {self.main: [], self.side: []}
        self.loose, self.dead = [], []
        self.made = 0
        self.steps = 0

    # ---------------------------------------------------------------- helpers
    def _fresh_or_loose(self, reuse: bool) -> Operation:
        if reuse and self.loose:
            return self.loose.pop()
        self.made += 1
        return _marker(self.made)

    def _pick(self, block, position):
        model = self.models[block]
        return model[position % len(model)] if model else None

    def _block(self, use_side: bool) -> Block:
        return self.side if use_side else self.main

    def _forget(self, op):
        for model in self.models.values():
            if op in model:
                model.remove(op)

    # ------------------------------------------------------------------ rules
    @rule(reuse=st.booleans(), side=st.booleans())
    def add_op(self, reuse, side):
        block = self._block(side)
        op = self._fresh_or_loose(reuse)
        assert block.add_op(op) is op
        self.models[block].append(op)

    @rule(position=POSITION, reuse=st.booleans(), after=st.booleans())
    def insert_next_to(self, position, reuse, after):
        anchor = self._pick(self.main, position)
        if anchor is None:
            return
        op = self._fresh_or_loose(reuse)
        model = self.models[self.main]
        if after:
            self.main.insert_after(anchor, op)
            model.insert(model.index(anchor) + 1, op)
        else:
            self.main.insert_before(anchor, op)
            model.insert(model.index(anchor), op)

    @rule(index=st.integers(-12, 12), reuse=st.booleans())
    def insert_op_at(self, index, reuse):
        op = self._fresh_or_loose(reuse)
        self.main.insert_op_at(index, op)
        self.models[self.main].insert(index, op)

    @rule(position=POSITION, side=st.booleans())
    def detach(self, position, side):
        op = self._pick(self._block(side), position)
        if op is None:
            return
        assert op.detach() is op
        self._forget(op)
        self.loose.append(op)

    @rule(position=POSITION, side=st.booleans())
    def erase(self, position, side):
        op = self._pick(self._block(side), position)
        if op is None:
            return
        op.erase()
        self._forget(op)
        self.dead.append(op)

    @rule(source=POSITION, dest=POSITION, from_side=st.booleans(),
          after=st.booleans())
    def move_next_to(self, source, dest, from_side, after):
        """Within ``main``, or re-attaching a ``side`` op into ``main``."""
        op = self._pick(self._block(from_side), source)
        anchor = self._pick(self.main, dest)
        if op is None or anchor is None or op is anchor:
            return
        (op.move_after if after else op.move_before)(anchor)
        self._forget(op)
        model = self.models[self.main]
        model.insert(model.index(anchor) + (1 if after else 0), op)

    @rule(position=POSITION)
    def reattach_to_side(self, position):
        op = self._pick(self.main, position)
        if op is None:
            return
        self.side.add_op(op)
        self._forget(op)
        self.models[self.side].append(op)

    @rule(position=POSITION)
    def foreign_anchor_is_refused(self, position):
        anchor = self._pick(self.side, position)
        if anchor is None:
            return
        with pytest.raises(IRError):
            self.main.insert_before(anchor, _marker(-1))
        with pytest.raises(IRError):
            self.main.insert_after(anchor, _marker(-1))

    # -------------------------------------------------------------- invariants
    @invariant()
    def blocks_match_their_models(self):
        self.steps += 1
        for block, model in self.models.items():
            ops = block.ops
            assert list(ops) == model
            assert list(reversed(ops)) == model[::-1]
            assert len(ops) == len(model)
            assert bool(ops) is bool(model)
            assert block.first_op is (model[0] if model else None)
            assert block.last_op is (model[-1] if model else None)
            if model:
                assert ops[0] is model[0] and ops[-1] is model[-1]
                probe = self.steps % len(model)
                assert ops[probe] is model[probe]
                assert ops.index(model[probe]) == probe
                assert ops[1:probe + 1] == model[1:probe + 1]
            else:
                with pytest.raises(IndexError):
                    ops[0]
                with pytest.raises(IndexError):
                    ops[-1]
            neighbours = [None] + model + [None]
            for before, op, after in zip(neighbours, model, neighbours[2:]):
                assert op.parent is block and op in ops
                assert op._prev is before and op._next is after

    @invariant()
    def detached_ops_hold_no_links(self):
        for op in self.loose + self.dead:
            assert op.parent is None
            assert op._prev is None and op._next is None
            assert op not in self.main.ops and op not in self.side.ops


OpListHistory.TestCase.settings = settings(max_examples=120,
                                           stateful_step_count=50,
                                           deadline=None)
TestOpListHistory = OpListHistory.TestCase


class TestViewIsReadOnly:
    def test_the_view_has_no_mutators_and_cannot_be_assigned(self):
        block = Block()
        block.add_op(_marker(0))
        for name in ("append", "insert", "remove", "clear", "pop", "extend",
                     "__setitem__", "__delitem__"):
            assert not hasattr(block.ops, name)
        with pytest.raises(AttributeError):
            block.ops = []
        assert "not an op" not in block.ops

    def test_operation_and_block_equality_is_identity_hash_is_uid(self):
        first, second = _marker(1), _marker(1)
        assert first != second and first == first
        assert "__eq__" not in Operation.__dict__ \
            and "__eq__" not in Block.__dict__
        assert hash(first) == first._uid and hash(Block()) != hash(Block())

    def test_users_are_distinct_and_in_first_use_order(self):
        value = arith.ConstantOp(1, T.i32)
        twice = arith.AddIOp(value.result, value.result)
        once = arith.AddIOp(twice.result, value.result)
        assert value.result.users() == [twice, once]


# ---------------------------------------------------------------------------
# (b) iterate while mutating
# ---------------------------------------------------------------------------


def _loop_module(loops: int = 3, body_ops: int = 4):
    """``module { func { [scf.for { body_ops markers; yield }] * loops } }``"""
    fn = FuncOp("main", T.FunctionType((), ()))
    block = fn.entry_block
    bound = arith.ConstantOp(4, T.index)
    block.add_op(bound)
    for _ in range(loops):
        loop = scf.ForOp(bound.result, bound.result, bound.result)
        for number in range(body_ops):
            loop.body.add_op(_marker(number))
        loop.body.add_op(scf.YieldOp())
        block.add_op(loop)
    block.add_op(ReturnOp([]))
    return ModuleOp([fn]), fn


class TestIterateWhileMutating:
    def _block(self, size=6):
        block = Block()
        ops = [_marker(n) for n in range(size)]
        block.add_ops(ops)
        return block, ops

    def test_erasing_the_op_in_hand(self):
        block, ops = self._block()
        seen = []
        for op in block.ops:
            seen.append(op)
            op.erase()
        assert seen == ops and not block.ops

    def test_moving_the_op_in_hand_elsewhere(self):
        block, ops = self._block()
        hoisted = Block()
        seen = []
        for op in block.ops:
            seen.append(op)
            if op.get_attr("n").value % 2:
                hoisted.add_op(op)          # to another block
            elif op is not ops[0]:
                op.move_before(ops[0])      # or up the same one
        assert seen == ops
        assert list(hoisted.ops) == ops[1::2]
        assert list(block.ops) == [ops[2], ops[4], ops[0]]

    def test_inserting_ahead_of_the_op_in_hand(self):
        block, ops = self._block()
        seen = []
        for op in block.ops:
            seen.append(op)
            block.insert_before(op, _marker(-1))
        assert seen == ops and len(block.ops) == 2 * len(ops)

    @pytest.mark.parametrize("walk", ["block", "module"])
    def test_walks_visit_every_original_op_once(self, walk):
        module, fn = _loop_module()
        original = list(module.walk())
        source = fn.entry_block.walk() if walk == "block" else module.walk()
        expected = original[2:] if walk == "block" else original
        seen = []
        for op in source:
            seen.append(op)
            if op.name == "test.op":
                number = op.get_attr("n").value
                if number == 0:
                    op.parent.insert_before(op, _marker(-1))
                elif number == 1:
                    op.erase()
                elif number == 2:
                    op.move_before(op.parent_op())
        assert seen == expected

    def test_ops_under_an_op_erased_mid_walk_are_reported_parentless(self):
        module, fn = _loop_module(loops=2, body_ops=2)
        first_loop = fn.entry_block.ops[1]
        nested = list(first_loop.body.ops)
        seen = []
        for op in module.walk():
            seen.append((op, op.parent))
            if op is first_loop:
                op.erase()
        reported = {id(op): parent for op, parent in seen}
        assert all(reported[id(op)] is None for op in nested)
        assert len(seen) == 2 + 1 + 2 * (1 + 3) + 1


# ---------------------------------------------------------------------------
# (c) edits cost the same in a small and in a large block
# ---------------------------------------------------------------------------


def _edit_costs(size: int):
    block = Block()
    ops = [_marker(n) for n in range(size)]
    block.add_ops(ops)
    middle = ops[size // 2]
    victim, doomed, mover = ops[size // 2 + 1], ops[size // 2 + 2], ops[1]
    fresh = _marker(-1)
    return {
        "insert_before": count_lines(
            lambda: block.insert_before(middle, fresh)),
        "detach": count_lines(victim.detach),
        "erase": count_lines(doomed.erase),
        "move_after": count_lines(lambda: mover.move_after(middle)),
        "InsertPoint.after": count_lines(lambda: InsertPoint.after(middle)),
        "last_op": count_lines(lambda: block.last_op),
    }


def test_edit_cost_does_not_depend_on_block_size():
    small, large = _edit_costs(100), _edit_costs(10_000)
    assert small == large
    assert all(cost > 0 for cost in small.values())


# ---------------------------------------------------------------------------
# (e) clones
# ---------------------------------------------------------------------------


def _straight_line_function(ops: int):
    """Every op hangs off one constant: what is under test is the length of
    the *block*."""
    fn = FuncOp("long", T.FunctionType((), ()))
    block = fn.entry_block
    value = arith.ConstantOp(0, T.i64)
    block.add_op(value)
    for _ in range(ops - 2):
        block.add_op(arith.AddIOp(value.result, value.result))
    block.add_op(ReturnOp([]))
    return fn


def test_clone_of_a_5000_op_block_is_linked_live_ir():
    fn = _straight_line_function(5000)
    ModuleOp([fn])                      # attached: cloned without it
    cloned = fn.clone()
    assert cloned.parent is None
    assert cloned._prev is None and cloned._next is None
    block, original = cloned.entry_block, fn.entry_block
    assert len(block.ops) == len(original.ops) == 5000
    forward = list(block.ops)
    assert list(reversed(block.ops)) == forward[::-1]
    assert block.first_op is forward[0] and block.last_op is forward[-1]
    assert all(op.parent is block for op in forward)
    assert all(a._next is b and b._prev is a
               for a, b in zip(forward, forward[1:]))
    assert {op._uid for op in forward}.isdisjoint(
        op._uid for op in original.ops)
    forward[2500].erase(check_uses=False)
    assert len(block.ops) == 4999 and forward[2499]._next is forward[2501]


def _holder_of(block: Block) -> Operation:
    holder = create_operation("test.holder", regions=1)
    holder.regions[0].add_block(block)
    return holder


def _numbers(block: Block):
    return [op.attributes["n"].value for op in block.ops]


def test_a_clone_follows_the_list_as_edited():
    block = Block()
    ops = [_marker(n) for n in range(6)]
    block.add_ops(ops)
    ops[5].move_before(ops[0])
    ops[2].erase()
    ops[3].detach()
    block.insert_after(ops[4], ops[3])
    holder = _holder_of(block)
    cloned = holder.clone().regions[0].blocks[0]
    assert _numbers(cloned) == _numbers(block) == [5, 0, 1, 4, 3]
    forward = list(cloned.ops)
    assert cloned.first_op is forward[0] and cloned.last_op is forward[-1]
    assert forward[0]._prev is None and forward[-1]._next is None
    assert all(a._next is b and b._prev is a
               for a, b in zip(forward, forward[1:]))
    assert all(op.parent is cloned for op in forward)


def test_a_clone_of_an_empty_block_is_its_own_list():
    block = Block()
    cloned = _holder_of(block).clone().regions[0].blocks[0]
    assert cloned is not block
    assert list(cloned.ops) == [] and len(cloned.ops) == 0
    assert cloned.first_op is None and cloned.last_op is None
    cloned.add_op(_marker(7))
    assert _numbers(cloned) == [7] and len(block.ops) == 0
