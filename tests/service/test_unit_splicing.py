"""Unit splicing: the program-unit memo in front of the function store.

The ``ours`` compile keys every top-level unit on its source text, the
program's interface digest and the pipeline text, and serves a unit the
store remembers without lowering, converting or fingerprinting it.  The
invariants checked here, after every step of seeded edit sequences:

* **spliced ≡ from scratch** — the printed module equals a compile with
  ``function_cache=None``;
* **exactly once** — every ``func.func`` of the result is counted once by
  the store, as a hit or as a miss.
"""

import random

import pytest

from repro.flows import get_flow, source_workload
from repro.frontend import FortranLowering, parse_source, analyze
from repro.frontend.units import program_units
from repro.ir import print_op
from repro.opt import main as opt_main
from repro.service.incremental import FunctionArtifactStore, get_function_store


def compile_ours(source: str, store, *, stats: bool = False):
    return get_flow("ours").run(source_workload(source),
                                collect_statistics=stats,
                                function_cache=store)


def functions_of(module):
    return [op for op in module.body.ops if op.name == "func.func"]


def checked_compile(source: str, store: FunctionArtifactStore):
    """Compile against ``store``; assert both invariants; return the
    ``(hits, misses)`` this compile added."""
    hits, misses = store.counters.hits, store.counters.misses
    module = compile_ours(source, store).module
    cold = compile_ours(source, None).module
    assert print_op(module) == print_op(cold), \
        "spliced module differs from a from-scratch compile"
    delta = (store.counters.hits - hits, store.counters.misses - misses)
    assert sum(delta) == len(functions_of(module)), \
        f"{delta} (hits, misses) for {len(functions_of(module))} functions"
    return delta


# ---------------------------------------------------------------------------
# A multi-unit program and its edits
# ---------------------------------------------------------------------------

UNITS = {
    "m": """module m
{note}  implicit none
  real(8) :: scale = {init}
  integer, parameter :: boost = {boost}
  integer :: counter = 3
contains
  subroutine bump(k)
    implicit none
    integer, intent(in) :: k
    counter = counter + k * {c_bump}
  end subroutine bump
end module m
""",
    "twice": """real({rkind}) function twice(x)
{note}  implicit none
  real(8), intent(in) :: x
  twice = x * {c_twice}
end function twice
""",
    "axpy": """subroutine axpy(n, a, y)
{note}  implicit none
  integer, intent(in) :: n
  real(kind={akind}), intent({aintent}) :: a
  real(8), dimension(n) :: y
  integer :: i
  do i = 1, n
    y(i) = y(i) + a * real(i, 8) + {c_axpy}
  end do
end subroutine axpy
""",
    "host": """subroutine host(y)
{note}  implicit none
  real(8), dimension(8) :: y
  call inner(y)
contains
  subroutine inner(z)
    implicit none
    real(8), dimension(8) :: z
    z(2) = z(2) + {c_inner}
  end subroutine inner
end subroutine host
""",
    "main": """program main
{note}  use m
  implicit none
  real(8), dimension(8) :: y
  real(kind={akind}) :: a
  real(8) :: r
  integer :: i
  do i = 1, 8
    y(i) = real(i, 8) * scale
  end do
  a = {c_main}
  call axpy(8, a, y)
  call host(y)
  call bump(2)
  r = twice(y(3))
  print *, y(2), y(8), r, counter + boost
end program main
""",
}

EXTRA = """subroutine {name}(x)
{note}  implicit none
  real(8) :: x
  x = x + {c_extra}
end subroutine {name}
"""

#: what ``c_<unit>`` each unit's literal edit rewrites
LITERALS = {"m": "c_bump", "twice": "c_twice", "axpy": "c_axpy",
            "host": "c_inner", "main": "c_main"}


class MultiUnitProgram:
    """A module with an initialised variable and a procedure, a
    ``function``, a subroutine with a ``contains`` procedure and a main
    program, plus uncalled extra subroutines; every edit keeps it valid."""

    EDITS = ("literal", "comment", "whitespace", "intent", "dummy_kind",
             "result_kind", "module_init", "add_unit", "remove_unit",
             "reorder")

    def __init__(self):
        self.values = {"init": "0.5d0", "boost": "7", "c_bump": "1", "c_twice": "2.0d0",
                       "c_axpy": "0.125d0", "c_inner": "0.25d0",
                       "c_main": "1.5d0", "rkind": "8", "akind": "8",
                       "aintent": "in"}
        self.order = list(UNITS)
        self.notes = {name: "" for name in UNITS}
        self.extras = {}
        self._made = 0

    def source(self) -> str:
        parts = []
        for name in self.order:
            if name in UNITS:
                parts.append(UNITS[name].format(note=self.notes[name],
                                                **self.values))
            else:
                parts.append(EXTRA.format(name=name, note=self.notes[name],
                                          c_extra=self.extras[name]))
        return "\n".join(parts)

    @staticmethod
    def _real(rng) -> str:
        return f"{rng.randint(1, 9999) / 1000:.4f}d0"

    def apply(self, edit: str, rng: random.Random) -> None:
        values = self.values
        if edit == "literal":
            unit = rng.choice(self.order)
            if unit in self.extras:
                self.extras[unit] = self._real(rng)
            elif unit == "m":
                values["c_bump"] = str(rng.randint(1, 9))
            else:
                values[LITERALS[unit]] = self._real(rng)
        elif edit == "comment":
            unit = rng.choice(self.order)
            self.notes[unit] += f"  ! note {rng.randint(0, 999)}\n"
        elif edit == "whitespace":
            unit = rng.choice(self.order)
            self.notes[unit] += " " * rng.randint(0, 4) + "\n"
        elif edit == "intent":
            values["aintent"] = "inout" if values["aintent"] == "in" else "in"
        elif edit == "dummy_kind":
            values["akind"] = "4" if values["akind"] == "8" else "8"
        elif edit == "result_kind":
            values["rkind"] = "4" if values["rkind"] == "8" else "8"
        elif edit == "module_init":
            if rng.random() < 0.5:
                values["init"] = self._real(rng)
            else:
                values["boost"] = str(rng.randint(10, 99))
        elif edit == "add_unit" or (edit == "remove_unit"
                                    and not self.extras):
            self._made += 1
            name = f"extra{self._made}"
            self.extras[name] = self._real(rng)
            self.notes[name] = ""
            self.order.insert(rng.randint(0, len(self.order)), name)
        elif edit == "remove_unit":
            name = rng.choice(sorted(self.extras))
            del self.extras[name]
            self.order.remove(name)
        elif edit == "reorder":
            rng.shuffle(self.order)
        else:  # pragma: no cover - a typo in a test
            raise ValueError(edit)


def run_sequence(seed: int, edits):
    rng = random.Random(seed)
    program = MultiUnitProgram()
    store = FunctionArtifactStore()
    checked_compile(program.source(), store)
    for edit in edits:
        program.apply(edit, rng)
        checked_compile(program.source(), store)
    return program


# ---------------------------------------------------------------------------
# The edit-sequence oracle
# ---------------------------------------------------------------------------


def test_the_program_runs_and_every_edit_kind_keeps_it_compiling():
    from repro.machine import Interpreter
    program = MultiUnitProgram()
    module = compile_ours(program.source(), None).module
    interpreter = Interpreter(module, engine="compiled")
    interpreter.run_main()
    assert len(interpreter.printed) == 1
    assert len(functions_of(module)) == 6
    run_sequence(0, MultiUnitProgram.EDITS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_edit_sequences_splice_exactly(seed):
    rng = random.Random(seed)
    edits = [rng.choice(MultiUnitProgram.EDITS) for _ in range(12)]
    run_sequence(seed, edits)


@pytest.mark.slow
def test_edit_sequences_hypothesis():
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           edits=st.lists(st.sampled_from(MultiUnitProgram.EDITS),
                          min_size=1, max_size=16))
    def check(seed, edits):
        run_sequence(seed, edits)

    check()


def test_each_edit_kind_after_a_warm_compile():
    """Per edit kind: the expected split between spliced and recompiled."""
    for edit in MultiUnitProgram.EDITS:
        program = MultiUnitProgram()
        store = FunctionArtifactStore()
        checked_compile(program.source(), store)
        program.apply(edit, random.Random(5))
        hits, misses = checked_compile(program.source(), store)
        if edit in ("comment", "whitespace", "reorder", "add_unit",
                    "remove_unit"):
            added = 1 if edit in ("add_unit", "remove_unit") else 0
            assert misses == added, (edit, hits, misses)


# ---------------------------------------------------------------------------
# Exactly-once accounting on an e2e-like 24-subroutine program
# ---------------------------------------------------------------------------

KERNEL = """subroutine k{index:02d}(u, s, r)
{note}  implicit none
  real(8), intent(inout) :: u(64)
  real(8), intent({intent}) :: s
  real(8), intent(out) :: r
  integer :: i
  do i = 1, 64
    u(i) = u(i) * {c} + s
  end do
  r = u(7)
end subroutine k{index:02d}
"""

KERNELS = 24


def kernel_program(consts, *, notes=None, intents=None) -> str:
    notes = notes or {}
    intents = intents or {}
    parts = [KERNEL.format(index=i, c=c, note=notes.get(i, ""),
                           intent=intents.get(i, "in"))
             for i, c in enumerate(consts)]
    calls = "".join(f"  call k{i:02d}(u, s, r)\n  print *, r\n"
                    for i in range(len(consts)))
    main = ("program main\n  implicit none\n  real(8) :: u(64), s, r\n"
            "  integer :: i\n  do i = 1, 64\n    u(i) = 0.01d0 * real(i, 8)\n"
            "  end do\n  s = 0.5d0\n" + calls + "end program main\n")
    return "".join(parts) + main


@pytest.fixture
def warm_kernels():
    consts = [f"{0.15 + 0.004 * i:.4f}d0" for i in range(KERNELS)]
    store = FunctionArtifactStore()
    assert checked_compile(kernel_program(consts), store) == (0, KERNELS + 1)
    return consts, store


def test_literal_edit_recompiles_one_function(warm_kernels):
    consts, store = warm_kernels
    one_miss, no_miss = (KERNELS, 1), (KERNELS + 1, 0)
    first = consts[3]
    # the last edit restores index 3's first literal: the unit memo still
    # knows that text, so nothing recompiles
    for index, value, expected in ((3, "0.3000d0", one_miss),
                                   (17, "0.3100d0", one_miss),
                                   (3, "0.3200d0", one_miss),
                                   (3, first, no_miss)):
        consts[index] = value
        assert checked_compile(kernel_program(consts), store) == expected


def test_comment_only_edit_recompiles_nothing(warm_kernels):
    consts, store = warm_kernels
    source = kernel_program(consts, notes={5: "  ! a comment\n"})
    assert checked_compile(source, store) == (KERNELS + 1, 0)
    # the edited unit went through the front end and spliced structurally;
    # the next compile of the same text is served by its unit key
    assert checked_compile(source, store) == (KERNELS + 1, 0)


def standard_functions(source: str):
    module = get_flow("ours").run(source_workload(source), function_cache=None,
                                  stages=("standard",)).stages["standard"]
    return {op.get_attr("sym_name").value: print_op(op)
            for op in functions_of(module)}


def test_interface_edit_relowers_every_unit_but_misses_only_changed(
        warm_kernels, monkeypatch):
    consts, store = warm_kernels
    edited = kernel_program(consts, intents={9: "inout"})
    before = standard_functions(kernel_program(consts))
    after = standard_functions(edited)
    changed = {name for name in after if after[name] != before.get(name)}
    assert changed == {"_QPk09", "_QQmain"}

    lowered = []
    real = FortranLowering.lower_subprogram

    def spy(self, info):
        lowered.append(info.subprogram.name)
        return real(self, info)
    monkeypatch.setattr(FortranLowering, "lower_subprogram", spy)
    hits, misses = checked_compile(edited, store)
    monkeypatch.undo()
    assert misses == len(changed)
    assert hits == KERNELS + 1 - len(changed)
    # the spliced compile lowered all 25 units (the cold one in
    # checked_compile lowers them again)
    assert len(lowered) == 2 * (KERNELS + 1)


def test_served_units_skip_the_front_end(warm_kernels, monkeypatch):
    consts, store = warm_kernels
    consts[0] = "0.3000d0"
    lowered = []
    real = FortranLowering.lower_subprogram

    def spy(self, info):
        lowered.append(info.subprogram.name)
        return real(self, info)
    monkeypatch.setattr(FortranLowering, "lower_subprogram", spy)
    compile_ours(kernel_program(consts), store)
    assert lowered == ["k00"]


def test_timing_report_lists_functions_in_module_order():
    consts = [f"{0.15 + 0.004 * i:.4f}d0" for i in range(6)]
    store = FunctionArtifactStore()
    compile_ours(kernel_program(consts), store, stats=True)
    consts[2] = "0.3000d0"
    spliced = compile_ours(kernel_program(consts), store, stats=True).timing
    cold = compile_ours(kernel_program(consts), None, stats=True).timing

    def shape(report, anchor):   # IR sizes tell the functions apart
        return [(t.pass_name, t.ops_before, t.ops_after)
                for t in report.timings if t.anchor == anchor]
    assert shape(spliced, "func.func") == shape(cold, "func.func")
    # the module-level conversion comes first either way; in the spliced
    # compile it converted the served units' declarations, not their bodies
    modules = [shape(report, "builtin.module") for report in (spliced, cold)]
    assert [[name for name, *_ in m] for m in modules] == \
        [["convert-fir-to-standard"]] * 2
    assert [t.anchor for t in spliced.timings] == \
        [t.anchor for t in cold.timings]


def test_flang_makes_no_function_store_traffic(monkeypatch):
    # flang's pipeline stays module-anchored on purpose: a func.func-anchored
    # convert-hlfir-to-fir kept the IR identical but made tables_cold 25 %
    # slower (1.448 -> 1.811 s median, 5 pairs) and 21 % larger in peak RSS,
    # spent fingerprinting, cloning and storing every flang function.  A
    # func.func backend stage for flang would inherit that cost, so it must
    # face it on purpose
    flow = get_flow("flang")
    assert "func.func" not in flow.pipeline({})
    store = FunctionArtifactStore()
    asked = []
    monkeypatch.setattr(store, "lookup_unit", asked.append)
    source = kernel_program([f"{0.15 + 0.004 * i:.4f}d0" for i in range(4)])
    for _ in range(2):
        flow.run(source_workload(source), function_cache=store)
    assert asked == []
    assert not any(store.counters.snapshot().values())
    assert len(store) == 0


def test_evicted_fingerprints_fall_back_to_the_front_end():
    consts = [f"{0.15 + 0.004 * i:.4f}d0" for i in range(4)]
    store = FunctionArtifactStore(memory_entries=3)
    checked_compile(kernel_program(consts), store)
    # 5 functions through a 3-entry live tier: the memo can serve at most
    # the units whose fingerprints survived, and never counts twice
    checked_compile(kernel_program(consts), store)
    checked_compile(kernel_program(consts), store)


def test_threads_compiling_against_one_store():
    """The memo is shared state: a lost update would show as a wrong
    module or as a function counted twice or not at all."""
    import sys
    import threading
    program, rng, sources = MultiUnitProgram(), random.Random(9), []
    for edit in ("literal", "comment", "intent", "reorder", "module_init"):
        program.apply(edit, rng)
        sources.append(program.source())
    expected = {source: print_op(compile_ours(source, None).module)
                for source in sources}
    store = FunctionArtifactStore()
    results, errors = [], []

    def worker(offset):
        try:
            for k in range(len(sources)):
                source = sources[(k + offset) % len(sources)]
                module = compile_ours(source, store).module
                results.append((source, print_op(module),
                                len(functions_of(module))))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 4 * len(sources)
    assert all(text == expected[source] for source, text, _ in results)
    assert store.counters.hits + store.counters.misses == \
        sum(count for _, _, count in results)


# ---------------------------------------------------------------------------
# Unit boundaries
# ---------------------------------------------------------------------------


def test_units_follow_the_parser_boundaries():
    source = ("subroutine a(x)\n  real(8) :: x\n  x = 1.0d0\n"
              "end subroutine a\n! between\n\n"
              "subroutine b(x)\n  real(8) :: x\n  x = 2.0d0\nend subroutine b\n"
              "program main\n  real(8) :: x\n  call a(x)\n  call b(x)\n"
              "end program main\n")
    analysis = analyze(parse_source(source))
    units = program_units(source, analysis, "salt")
    assert [u.subprograms for u in units] == [("a",), ("b",), ("main",)]
    edited = source.replace("x = 2.0d0", "x = 3.0d0")
    again = program_units(edited, analyze(parse_source(edited)), "salt")
    assert [u.key == v.key for u, v in zip(units, again)] == \
        [True, False, True]
    other_salt = program_units(source, analysis, "other")
    assert not {u.key for u in units} & {u.key for u in other_salt}


def test_contained_and_module_procedures_belong_to_their_host():
    program = MultiUnitProgram()
    source = program.source()
    units = program_units(source, analyze(parse_source(source)), "")
    assert sorted(u.subprograms for u in units) == sorted(
        [("bump",), ("twice",), ("axpy",), ("host", "inner"), ("main",)])


def test_a_unit_sharing_a_line_keeps_its_text():
    first = "subroutine a(x)\n  real(8) :: x\n  x = 1.0d0; end subroutine a; "
    rest = "subroutine b(x)\n  real(8) :: x\n  x = 2.0d0\nend subroutine b\n"
    keys = [u.key for u in program_units(
        first + rest, analyze(parse_source(first + rest)), "")]
    edited = first.replace("1.0d0", "4.0d0") + rest
    again = [u.key for u in program_units(
        edited, analyze(parse_source(edited)), "")]
    assert keys[0] != again[0]


# ---------------------------------------------------------------------------
# Stage snapshots bypass the memo
# ---------------------------------------------------------------------------


def test_print_stages_with_a_warm_store_matches_no_incremental(
        capsys, tmp_path):
    program = MultiUnitProgram()
    path = tmp_path / "prog.f90"
    path.write_text(program.source())
    store = get_function_store()
    assert opt_main([str(path), "--no-daemon", "--no-print-ir"]) == 0
    hits = store.counters.hits
    assert opt_main([str(path), "--no-daemon", "--no-print-ir"]) == 0
    assert store.counters.hits - hits == 6        # warm: served by the memo
    capsys.readouterr()
    assert opt_main([str(path), "--no-daemon", "--print-stages"]) == 0
    warm = capsys.readouterr().out
    assert opt_main([str(path), "--no-daemon", "--print-stages",
                     "--no-incremental"]) == 0
    cold = capsys.readouterr().out
    assert "stage: standard" in warm
    assert warm == cold
