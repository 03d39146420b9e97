"""Core SSA IR data structures: values, operations, blocks and regions.

The design intentionally mirrors MLIR / xDSL:

* an :class:`Operation` has operands (SSA values), results, an attribute
  dictionary, nested :class:`Region` s and successor :class:`Block` s;
* a :class:`Block` has block arguments and a list of operations;
* a :class:`Region` has a list of blocks and belongs to an operation;
* def-use chains are maintained automatically so that rewrites can replace
  values and erase operations safely.

Operation classes register themselves by their ``OP_NAME`` so passes and the
interpreter can dispatch on the operation name, and generic (unregistered)
operations can still be represented.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Type as PyType)

from .attributes import Attribute
from .types import Type


class IRError(Exception):
    """Raised for malformed IR or illegal IR manipulation."""


# ---------------------------------------------------------------------------
# Values and uses
# ---------------------------------------------------------------------------

class Use:
    """A single use of a value: (operation, operand index)."""

    __slots__ = ("operation", "index")

    def __init__(self, operation: "Operation", index: int):
        self.operation = operation
        self.index = index

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Use({self.operation.name}, {self.index})"


class Value:
    """Base class for SSA values (operation results and block arguments)."""

    __slots__ = ("type", "uses", "name_hint")

    def __init__(self, type: Type, name_hint: Optional[str] = None):
        self.type = type
        self.uses: List[Use] = []
        self.name_hint = name_hint

    # -- use-list management ----------------------------------------------
    def add_use(self, use: Use) -> None:
        self.uses.append(use)

    def remove_use(self, operation: "Operation", index: int) -> None:
        for i, u in enumerate(self.uses):
            if u.operation is operation and u.index == index:
                del self.uses[i]
                return
        raise IRError("attempting to remove a use that is not registered")

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    def has_one_use(self) -> bool:
        return len(self.uses) == 1

    def users(self) -> List["Operation"]:
        """Distinct using operations, in first-use order."""
        return list(dict.fromkeys(u.operation for u in self.uses))

    def replace_all_uses_with(self, new_value: "Value") -> None:
        if new_value is self:
            return
        for use in list(self.uses):
            use.operation.set_operand(use.index, new_value)

    # -- info ---------------------------------------------------------------
    @property
    def owner(self):  # Operation | Block
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name_hint or ''}: {self.type.mlir()}>"


class OpResult(Value):
    __slots__ = ("op", "index")

    def __init__(self, op: "Operation", index: int, type: Type):
        # one per result of every op built or cloned: the slots are set
        # here rather than through ``Value.__init__``
        self.type = type
        self.uses = []
        self.name_hint = None
        self.op = op
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.op


class BlockArgument(Value):
    __slots__ = ("block", "index")

    def __init__(self, block: "Block", index: int, type: Type):
        self.type = type
        self.uses = []
        self.name_hint = None
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block


# ---------------------------------------------------------------------------
# Operation registry
# ---------------------------------------------------------------------------

OP_REGISTRY: Dict[str, PyType["Operation"]] = {}


def register_op(cls: PyType["Operation"]) -> PyType["Operation"]:
    """Register an operation class under its ``OP_NAME``."""
    name = getattr(cls, "OP_NAME", None)
    if not name:
        raise IRError(f"operation class {cls.__name__} has no OP_NAME")
    OP_REGISTRY[name] = cls
    return cls


# ---------------------------------------------------------------------------
# Operation
# ---------------------------------------------------------------------------

_op_counter = itertools.count()


class Operation:
    """A generic IR operation.

    Subclasses normally define ``OP_NAME`` plus convenience constructors and
    accessors; the base class supports arbitrary (unregistered) operations so
    every dialect concept can be represented even before a dedicated class
    exists.
    """

    OP_NAME: str = "builtin.unregistered"
    #: Trait names (see :mod:`repro.ir.traits`), e.g. ``{"IsTerminator"}``.
    TRAITS: frozenset = frozenset()

    #: ``_prev``/``_next`` link the op into its parent block's op list (see
    #: :class:`Block`); both are ``None`` while the op is detached.
    __slots__ = ("name", "_operands", "results", "attributes", "regions",
                 "successors", "parent", "_uid", "loc", "_prev", "_next")

    def __init__(self,
                 operands: Sequence[Value] = (),
                 result_types: Sequence[Type] = (),
                 attributes: Optional[Dict[str, Attribute]] = None,
                 regions: "Sequence[Region] | int" = 0,
                 successors: Sequence["Block"] = (),
                 name: Optional[str] = None,
                 loc: Optional[Any] = None):
        self.name = name or type(self).OP_NAME
        self._uid = next(_op_counter)
        self.results: List[OpResult] = [
            OpResult(self, i, t) for i, t in enumerate(result_types)
        ]
        self.attributes: Dict[str, Attribute] = \
            dict(attributes) if attributes else {}
        if not regions:
            self.regions: List[Region] = []
        elif isinstance(regions, int):
            self.regions = [Region(parent=self) for _ in range(regions)]
        else:
            self.regions = list(regions)
            for r in self.regions:
                r.parent = self
        self.successors: List[Block] = list(successors)
        self.parent: Optional[Block] = None
        self._prev: Optional[Operation] = None
        self._next: Optional[Operation] = None
        self.loc = loc
        # every operand registers a use (inline: no call per operand)
        own: List[Value] = []
        self._operands = own
        for value in operands:
            if not isinstance(value, Value):
                raise IRError(
                    f"operand of {self.name} is not a Value: {value!r}")
            value.uses.append(Use(self, len(own)))
            own.append(value)

    # -- operand management -------------------------------------------------
    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        old.remove_use(self, index)
        self._operands[index] = value
        value.add_use(Use(self, index))

    def drop_all_references(self) -> None:
        """Drop operand uses and successor references (pre-erase cleanup).

        Ops nested in the erased op's regions die with it: their ``parent``
        is cleared so stale walk snapshots recognise them as erased (the
        pattern drivers and canonicalizer guard on ``op.parent is None``).
        """
        for i, v in enumerate(self._operands):
            v.remove_use(self, i)
        self._operands = []
        self.successors = []
        for region in self.regions:
            for block in region.blocks:
                # the nested ops stay linked in their (dead) block: a walk
                # that is already past ``self`` still has to find them
                for op in block.ops:
                    op.parent = None
                    op.drop_all_references()

    def drop_references(self) -> None:
        """Take this op's whole subtree apart so that reference counting
        frees it the moment the last outside name goes.

        IR is cyclic by construction (an op and its results, a value and
        its users, a block and its ops, a region and its owner), so a
        module nobody will read again otherwise waits for a generation-2
        collection — which a batch of compiles keeps pushing back while the
        dead modules pile up.  Every op, block and region under ``self`` is
        unusable afterwards.
        """
        pending = [self]
        while pending:
            op = pending.pop()
            for result in op.results:
                result.uses = []
            op.results = []
            op._operands = []
            op.successors = []
            op.parent = op._prev = op._next = None
            for region in op.regions:
                region.parent = None
                for block in region.blocks:
                    for arg in block.args:
                        arg.uses = []
                    block.args = []
                    block.parent = None
                    if hasattr(block, "_jit"):
                        del block._jit
                    pending.extend(block.ops)
                    block._first = block._last = None
                    block._count = 0
                region.blocks = []
            op.regions = []

    # -- attribute helpers ---------------------------------------------------
    def get_attr(self, name: str, default: Optional[Attribute] = None) -> Optional[Attribute]:
        return self.attributes.get(name, default)

    def set_attr(self, name: str, value: Attribute) -> None:
        self.attributes[name] = value

    def has_attr(self, name: str) -> bool:
        return name in self.attributes

    # -- structural queries --------------------------------------------------
    @property
    def result(self) -> OpResult:
        if len(self.results) != 1:
            raise IRError(f"{self.name} does not have exactly one result")
        return self.results[0]

    def has_trait(self, trait: str) -> bool:
        return trait in self.TRAITS

    @property
    def dialect(self) -> str:
        return self.name.split(".", 1)[0]

    def parent_op(self) -> Optional["Operation"]:
        if self.parent is None:
            return None
        region = self.parent.parent
        return region.parent if region is not None else None

    def ancestors(self) -> Iterator["Operation"]:
        op = self.parent_op()
        while op is not None:
            yield op
            op = op.parent_op()

    def is_ancestor_of(self, other: "Operation") -> bool:
        return any(a is self for a in other.ancestors())

    def walk(self) -> Iterator["Operation"]:
        """Pre-order walk: yields this op, then every nested op.

        An op's children are read when the walk moves past it, not before,
        so the caller may erase, move or replace the op it was just handed
        (see :func:`_preorder`)."""
        return _preorder([self])

    def walk_postorder(self) -> Iterator["Operation"]:
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.ops):
                    yield from op.walk_postorder()
        yield self

    # -- position / mutation ---------------------------------------------------
    def detach(self) -> "Operation":
        block = self.parent
        if block is not None:
            before, after = self._prev, self._next
            if before is None:
                block._first = after
            else:
                before._next = after
            if after is None:
                block._last = before
            else:
                after._prev = before
            block._count -= 1
            self.parent = self._prev = self._next = None
        return self

    def erase(self, *, check_uses: bool = True) -> None:
        if check_uses:
            for res in self.results:
                if res.num_uses:
                    raise IRError(
                        f"erasing {self.name} whose result still has uses")
        self.detach()
        self.drop_all_references()

    def move_before(self, other: "Operation") -> None:
        if other.parent is None:
            raise IRError("cannot move before a detached operation")
        other.parent.insert_before(other, self)

    def move_after(self, other: "Operation") -> None:
        if other.parent is None:
            raise IRError("cannot move after a detached operation")
        other.parent.insert_after(other, self)

    def replace_all_uses_with(self, new_values: "Sequence[Value] | Value") -> None:
        if isinstance(new_values, Value):
            new_values = [new_values]
        if len(new_values) != len(self.results):
            raise IRError("replacement value count mismatch")
        for res, new in zip(self.results, new_values):
            res.replace_all_uses_with(new)

    # -- cloning ---------------------------------------------------------------
    def clone(self, value_map: Optional[Dict[Value, Value]] = None,
              block_map: Optional[Dict["Block", "Block"]] = None) -> "Operation":
        """Deep-clone this operation (and nested regions).

        ``value_map`` maps original values to replacement values; operands not
        present in the map are reused as-is (which is correct for values
        defined above the cloned region).
        """
        value_map = value_map if value_map is not None else {}
        block_map = block_map if block_map is not None else {}
        # the copy's slots are filled directly: every value is already a
        # checked ``Value``, and the generic constructor's argument handling
        # is most of what a clone of a large function would spend
        new_op = Operation.__new__(type(self))
        new_op.name = self.name
        new_op._uid = next(_op_counter)
        new_op.attributes = dict(self.attributes)
        new_op.successors = [block_map.get(b, b) for b in self.successors] \
            if self.successors else []
        new_op.parent = new_op._prev = new_op._next = None
        new_op.loc = self.loc
        operands = new_op._operands = []
        for value in self._operands:
            value = value_map.get(value, value)
            value.uses.append(Use(new_op, len(operands)))
            operands.append(value)
        results = new_op.results = []
        for old_res in self.results:
            new_res = OpResult(new_op, len(results), old_res.type)
            results.append(new_res)
            value_map[old_res] = new_res
        new_op.regions = [region.clone_into(value_map, block_map, new_op)
                          for region in self.regions] if self.regions else []
        return new_op

    # -- verification -----------------------------------------------------------
    def verify_(self) -> None:
        """Op-specific verification; subclasses may override."""

    # -- misc ---------------------------------------------------------------------
    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Operation {self.name} #{self._uid}>"

    # equality is identity (``object``'s); the hash is the uid rather than
    # ``id()`` so that set/dict iteration order does not depend on addresses
    def __hash__(self):
        return self._uid


class UnregisteredOp(Operation):
    """An operation whose name has no registered class."""

    OP_NAME = "builtin.unregistered"


def create_operation(name: str,
                     operands: Sequence[Value] = (),
                     result_types: Sequence[Type] = (),
                     attributes: Optional[Dict[str, Attribute]] = None,
                     regions: "Sequence[Region] | int" = 0,
                     successors: Sequence["Block"] = ()) -> Operation:
    """Create an operation by name, using the registered class if available.

    The registered class's ``__init__`` is bypassed (generic construction),
    which matches how MLIR materialises operations from the generic form.
    """
    cls = OP_REGISTRY.get(name, UnregisteredOp)
    op = Operation.__new__(cls)
    Operation.__init__(op, operands=operands, result_types=result_types,
                       attributes=attributes, regions=regions,
                       successors=successors, name=name)
    return op


# ---------------------------------------------------------------------------
# Block
# ---------------------------------------------------------------------------

_block_counter = itertools.count()


class BlockOps:
    """Read-only view of a block's operations, in order.

    The ops themselves are the list: each carries ``_prev``/``_next`` and
    the block its two ends, so there is nothing here to mutate — insertion,
    removal and moves go through :class:`Block` and :class:`Operation`.

    Iteration reads an op's successor *before* yielding the op, so the loop
    body may erase, detach or move the op it was handed, or insert ahead of
    it, and the iteration continues with what was its successor.  Removing
    the successor itself is not covered: iterate ``list(block.ops)`` when
    the body touches ops other than the one in hand.
    """

    __slots__ = ("_block",)

    def __init__(self, block: "Block"):
        self._block = block

    def __iter__(self) -> Iterator[Operation]:
        op = self._block._first
        while op is not None:
            following = op._next
            yield op
            op = following

    def __reversed__(self) -> Iterator[Operation]:
        op = self._block._last
        while op is not None:
            preceding = op._prev
            yield op
            op = preceding

    def __len__(self) -> int:
        return self._block._count

    def __bool__(self) -> bool:
        return self._block._first is not None

    def __contains__(self, op: object) -> bool:
        return isinstance(op, Operation) and op.parent is self._block

    def __getitem__(self, index):
        """Both ends are direct; any other index or slice walks the block."""
        if index == 0 or index == -1:
            op = self._block._first if index == 0 else self._block._last
            if op is None:
                raise IndexError("block has no operations")
            return op
        return list(self)[index]

    def index(self, op: Operation) -> int:
        """Position of ``op`` (linear; nothing on the compile path asks)."""
        for position, candidate in enumerate(self):
            if candidate is op:
                return position
        raise ValueError(f"{op!r} is not in the block")

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"BlockOps({list(self)!r})"


class Block:
    """A straight-line sequence of operations ending in a terminator.

    The op list is intrusive: ``_first``/``_last``/``_count`` here, ``_prev``
    /``_next`` on each :class:`Operation`, and :attr:`ops` a read-only
    :class:`BlockOps` view over them.  Inserting next to an op, detaching,
    erasing and moving are O(1); only the positional ``insert_op_at`` walks
    the block.

    ``_jit`` is the jit engine's per-block instantiation material (see
    :mod:`repro.machine.jit`): unset until the block is first translated,
    process-local, and owned by the block so that it is freed with the
    module instead of pinning it from a process-wide cache.
    """

    __slots__ = ("args", "_first", "_last", "_count", "parent", "_uid", "_jit")

    def __init__(self, arg_types: Sequence[Type] = ()):
        self._uid = next(_block_counter)
        self.args: List[BlockArgument] = [
            BlockArgument(self, i, t) for i, t in enumerate(arg_types)
        ]
        self._first: Optional[Operation] = None
        self._last: Optional[Operation] = None
        self._count = 0
        self.parent: Optional[Region] = None

    @property
    def ops(self) -> BlockOps:
        return BlockOps(self)

    # -- arguments ----------------------------------------------------------
    def add_argument(self, type: Type) -> BlockArgument:
        arg = BlockArgument(self, len(self.args), type)
        self.args.append(arg)
        return arg

    # -- op list ------------------------------------------------------------
    def add_op(self, op: Operation) -> Operation:
        if op.parent is not None:
            op.detach()
        last = self._last
        op._prev = last
        op._next = None
        if last is None:
            self._first = op
        else:
            last._next = op
        self._last = op
        self._count += 1
        op.parent = self
        return op

    append = add_op

    def add_ops(self, ops: Iterable[Operation]) -> None:
        for op in ops:
            self.add_op(op)

    def insert_op_at(self, index: int, op: Operation) -> Operation:
        """Insert at a position, with ``list.insert``'s reading of ``index``
        (linear in ``index``; the anchor-based forms are O(1))."""
        op.detach()
        if index < 0:
            index = max(index + self._count, 0)
        if index >= self._count:
            return self.add_op(op)
        anchor = self._first
        for _ in range(index):
            anchor = anchor._next
        return self.insert_before(anchor, op)

    def insert_before(self, anchor: Operation, op: Operation) -> Operation:
        if anchor.parent is not self:
            raise IRError(f"{anchor!r} is not in the block")
        if op is anchor:
            return op
        if op.parent is not None:
            op.detach()
        before = anchor._prev
        op._prev = before
        op._next = anchor
        anchor._prev = op
        if before is None:
            self._first = op
        else:
            before._next = op
        self._count += 1
        op.parent = self
        return op

    def insert_after(self, anchor: Operation, op: Operation) -> Operation:
        if anchor.parent is not self:
            raise IRError(f"{anchor!r} is not in the block")
        if op is anchor:
            return op
        if op.parent is not None:
            op.detach()
        after = anchor._next
        if after is None:
            return self.add_op(op)
        return self.insert_before(after, op)

    @property
    def first_op(self) -> Optional[Operation]:
        return self._first

    @property
    def last_op(self) -> Optional[Operation]:
        return self._last

    @property
    def terminator(self) -> Optional[Operation]:
        last = self._last
        if last is not None and last.has_trait("IsTerminator"):
            return last
        return None

    def parent_op(self) -> Optional[Operation]:
        return self.parent.parent if self.parent is not None else None

    def walk(self) -> Iterator[Operation]:
        return _preorder(list(reversed(self.ops)))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Block ^bb{self._uid} ({self._count} ops)>"

    # identity equality, uid hash: as for :class:`Operation`
    def __hash__(self):
        return self._uid


def _preorder(stack: List[Operation]) -> Iterator[Operation]:
    """Pre-order traversal below the ops on ``stack`` (next to visit last).

    One generator and one explicit stack for the whole tree, not a
    ``yield from`` chain as deep as the nesting.  An op's children are
    pushed after the consumer has seen the op, so erasing, moving or
    replacing the op in hand is safe; ops nested in an op erased that way
    are still reported — their ``parent`` is ``None`` by then, which is what
    the pattern drivers test for.
    """
    pop = stack.pop
    push = stack.append
    while stack:
        op = pop()
        yield op
        if op.regions:
            for region in reversed(op.regions):
                for block in reversed(region.blocks):
                    child = block._last
                    while child is not None:
                        push(child)
                        child = child._prev


# ---------------------------------------------------------------------------
# Region
# ---------------------------------------------------------------------------

class Region:
    """A list of blocks owned by an operation."""

    __slots__ = ("blocks", "parent")

    def __init__(self, blocks: Sequence[Block] = (), parent: Optional[Operation] = None):
        self.blocks: List[Block] = []
        self.parent = parent
        for b in blocks:
            self.add_block(b)

    def add_block(self, block: Block) -> Block:
        self.blocks.append(block)
        block.parent = self
        return block

    @property
    def entry_block(self) -> Optional[Block]:
        return self.blocks[0] if self.blocks else None

    @property
    def block(self) -> Block:
        """The single block of a single-block region."""
        if len(self.blocks) != 1:
            raise IRError("region does not have exactly one block")
        return self.blocks[0]

    def walk(self) -> Iterator[Operation]:
        for block in list(self.blocks):
            yield from block.walk()

    def is_empty(self) -> bool:
        return not self.blocks or all(not b.ops for b in self.blocks)

    def clone_into(self, value_map: Dict[Value, Value],
                   block_map: Optional[Dict[Block, Block]] = None,
                   parent: Optional[Operation] = None) -> "Region":
        block_map = block_map if block_map is not None else {}
        new_region = Region(parent=parent)
        # first create blocks + arguments so forward branch references work
        for block in self.blocks:
            new_block = Block(arg_types=[a.type for a in block.args])
            block_map[block] = new_block
            for old_arg, new_arg in zip(block.args, new_block.args):
                value_map[old_arg] = new_arg
            new_region.add_block(new_block)
        for block in self.blocks:
            new_block = block_map[block]
            for op in block.ops:
                new_block.add_op(op.clone(value_map, block_map))
        return new_region

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Region ({len(self.blocks)} blocks)>"


__all__ = [
    "IRError",
    "Use",
    "Value",
    "OpResult",
    "BlockArgument",
    "Operation",
    "UnregisteredOp",
    "Block",
    "BlockOps",
    "Region",
    "OP_REGISTRY",
    "register_op",
    "create_operation",
]
