"""Benchmark inputs: the program sets, everything ``--seed`` decides, and the
expected-output check.

Nothing here imports ``repro`` at module level, so the runner (which never
runs the program) and the self-test can generate and hash inputs cheaply.

Why these programs
------------------
* **The 53 table jobs** (``enumerate_jobs()`` deduplicated by key) are the
  paper's own measurement set — what a reproducer runs.
* **The 14 execution modules** are the ten ``BENCH_interpreter.json`` rows
  (``ac``, ``linpk``, ``tfft``, ``jacobi``, ``tra-adv`` under both flows:
  FIR-level rows where jit/vector win, ``ours`` rows where they do not),
  ``matmul``/ours (heaviest linalg row), ``pw-advection`` under both flows
  (heaviest overall) and ``dotproduct``/ours (Figure 3's vectorised row).
* **The conformance pool** is a fixed draw of 24 kernels from the
  generator's 10 000-seed space (``random.Random(224).sample``): small,
  frontend-heavy programs nobody tuned for.  The set is fixed and ``--seed``
  decides order and client assignment: a 24-of-N draw per run would put a
  ~9 % sampling error on the median before the machine adds its own.
* **The edit program** is synthetic because no registry workload has more
  than a handful of subprograms: 24 subroutines drawn from five templates
  (1-D stencil, 2-D stencil, scale, reduction, conditional update) and a
  ``main`` that calls them.  Every seed gets the same template mix — only
  order, literals and the edit sequence change — so per-edit cost does not
  depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

EXPECTED_PATH = Path(__file__).with_name("expected_output.json")

#: Cross-flow tolerance for real tokens — the conformance oracle's rule.
REAL_RTOL = 1e-9
REAL_ATOL = 1e-12

EXEC_MODULES: Tuple[Tuple[str, str], ...] = tuple(
    [(name, flow) for name in ("ac", "linpk", "tfft", "jacobi", "tra-adv")
     for flow in ("flang", "ours")]
    + [("matmul", "ours"), ("pw-advection", "flang"),
       ("pw-advection", "ours"), ("dotproduct", "ours")])
QUICK_EXEC_MODULES = (("ac", "flang"), ("ac", "ours"), ("dotproduct", "ours"))

#: sorted(random.Random(224).sample(range(10_000), 24))
CONFORMANCE_POOL = (407, 1045, 1258, 1638, 1704, 2090, 2157, 3113, 3196,
                    3725, 4028, 4105, 4123, 5374, 5782, 6189, 6483, 6848,
                    6888, 6984, 7614, 8656, 8768, 8912)
QUICK_CONFORMANCE_POOL = CONFORMANCE_POOL[:3]
DAEMON_FLOWS = ("ours", "flang")

QUICK_TABLES = ("table3", "figure3")
QUICK_BENCHMARKS = ("dotproduct",)

EDIT_SUBROUTINES = 24
QUICK_EDIT_SUBROUTINES = 5


def _rng(tag: str, seed: int) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def shuffled(tag: str, seed: int, items: Sequence[Any]) -> List[Any]:
    out = list(items)
    _rng(tag, seed).shuffle(out)
    return out


def digest(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# program identity and expected output
# ---------------------------------------------------------------------------


def program_id(workload_name: str,
               workload_kwargs: Sequence[Sequence[Any]] = ()) -> str:
    """Names one program (not one job: flows and options share a program)."""
    if not workload_kwargs:
        return workload_name
    inner = ",".join(f"{k}={v}" for k, v in sorted(tuple(kv) for kv
                                                    in workload_kwargs))
    return f"{workload_name}[{inner}]"


def load_expected() -> Dict[str, List[str]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["programs"]


def _number(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return None


def _tokens_match(got: str, want: str) -> bool:
    if got == want:
        return True
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return False
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REAL_ATOL + REAL_RTOL * abs(b)


def printed_mismatch(got: Sequence[str],
                     want: Sequence[str]) -> Optional[str]:
    """First difference between two printed outputs, or ``None``.

    Integer and logical tokens compare exactly, real tokens to
    ``rtol=1e-9`` (flows may reorder f64 reductions)."""
    if len(got) != len(want):
        return f"{len(got)} lines, expected {len(want)}"
    for index, (line_got, line_want) in enumerate(zip(got, want)):
        tokens_got, tokens_want = line_got.split(), line_want.split()
        if len(tokens_got) != len(tokens_want):
            return f"line {index}: {line_got!r} != {line_want!r}"
        for a, b in zip(tokens_got, tokens_want):
            if not _tokens_match(a, b):
                return f"line {index}: token {a!r} != {b!r}"
    return None


# ---------------------------------------------------------------------------
# daemon specs
# ---------------------------------------------------------------------------


def daemon_pool(quick: bool = False) -> Tuple[int, ...]:
    return QUICK_CONFORMANCE_POOL if quick else CONFORMANCE_POOL


def daemon_spec(kernel: int, flow: str) -> Dict[str, Any]:
    """The wire form of one ``conformance/<kernel>`` job (default options)."""
    return {"flow": flow, "workload_name": f"conformance/{kernel}",
            "workload_kwargs": [], "options": [], "threads": 1, "gpu": False,
            "engine": "compiled", "incremental": True}


def daemon_plan(seed: int, quick: bool = False) -> Dict[str, Any]:
    """Which client sends which kernels, in which order."""
    order = shuffled("daemon", seed, daemon_pool(quick))
    half = (len(order) + 1) // 2
    return {"clients": [order[:half], order[half:]]}


# ---------------------------------------------------------------------------
# the edit program
# ---------------------------------------------------------------------------

_DUMMIES = """  implicit none
  real(kind=8), dimension(64), intent(inout) :: u
  real(kind=8), intent(out) :: r
"""

EDIT_TEMPLATES: Dict[str, str] = {
    "stencil1": "subroutine {name}(u, r)\n" + _DUMMIES + """\
  real(kind=8), dimension(64) :: v
  integer :: i, it
  do it = 1, 3
    do i = 2, 63
      v(i) = {c} * (u(i-1) + 2.0d0 * u(i) + u(i+1))
    end do
    do i = 2, 63
      u(i) = v(i)
    end do
  end do
  r = u(32)
end subroutine {name}
""",
    "stencil2": "subroutine {name}(u, r)\n" + _DUMMIES + """\
  real(kind=8), dimension(8, 8) :: a, b
  integer :: i, j
  do j = 1, 8
    do i = 1, 8
      a(i, j) = u(i + 8 * (j - 1))
      b(i, j) = 0.0d0
    end do
  end do
  do j = 2, 7
    do i = 2, 7
      b(i, j) = {c} * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
    end do
  end do
  r = b(4, 4)
end subroutine {name}
""",
    "scale": "subroutine {name}(u, r)\n" + _DUMMIES + """\
  integer :: i
  do i = 1, 64
    u(i) = u(i) * {c} + 0.5d0
  end do
  r = u(7)
end subroutine {name}
""",
    "reduce": "subroutine {name}(u, r)\n" + _DUMMIES + """\
  real(kind=8) :: s
  integer :: i
  s = 0.0d0
  do i = 1, 64
    s = s + {c} * u(i)
  end do
  r = s
end subroutine {name}
""",
    "cond": "subroutine {name}(u, r)\n" + _DUMMIES + """\
  integer :: i
  do i = 1, 64
    if (u(i) > {c}) then
      u(i) = u(i) - {c}
    else
      u(i) = u(i) + 0.25d0
    end if
  end do
  r = u(9)
end subroutine {name}
""",
}

_MAIN_HEAD = """program main
  implicit none
  real(kind=8), dimension(64) :: u
  real(kind=8) :: r
  integer :: i
  do i = 1, 64
    u(i) = 0.01d0 * real(i, 8)
  end do
"""


class EditProgram:
    """A seeded many-subroutine Fortran program and its edit sequence."""

    def __init__(self, seed: int, subroutines: int = EDIT_SUBROUTINES):
        self._rng = _rng("edit", seed)
        kinds = list(EDIT_TEMPLATES)
        # the same template mix for every seed; the seed decides the order
        self.kinds = [kinds[i % len(kinds)] for i in range(subroutines)]
        self._rng.shuffle(self.kinds)
        self.consts = [self._draw() for _ in range(subroutines)]
        #: every subroutine is edited once before any is edited twice
        self._rota: List[int] = []
        self.edits = 0

    def _draw(self) -> float:
        return round(self._rng.uniform(0.15, 0.25), 4)

    @staticmethod
    def _literal(value: float) -> str:
        return f"{value:.4f}d0"

    def source(self) -> str:
        parts = []
        calls = []
        for index, (kind, value) in enumerate(zip(self.kinds, self.consts)):
            name = f"k{index:02d}"
            parts.append(EDIT_TEMPLATES[kind].format(
                name=name, c=self._literal(value)))
            calls.append(f"  call {name}(u, r)\n  print *, r\n")
        return "".join(parts) + _MAIN_HEAD + "".join(calls) \
            + "end program main\n"

    def edit(self) -> int:
        """Rewrite one literal in one subroutine; returns which."""
        if not self._rota:
            self._rota = list(range(len(self.kinds)))
            self._rng.shuffle(self._rota)
        index = self._rota.pop()
        value = self._draw()
        while value == self.consts[index]:
            value = self._draw()
        self.consts[index] = value
        self.edits += 1
        return index

    def model_output(self) -> List[str]:
        """What the program prints, worked out without the compiler."""
        u = [0.01 * float(i) for i in range(1, 65)]
        printed = []
        for kind, value in zip(self.kinds, self.consts):
            c = float(f"{value:.4f}")
            if kind == "stencil1":
                for _ in range(3):
                    v = list(u)
                    for i in range(1, 63):
                        v[i] = c * (u[i - 1] + 2.0 * u[i] + u[i + 1])
                    u[1:63] = v[1:63]
                r = u[31]
            elif kind == "stencil2":
                a = lambda i, j: u[(i - 1) + 8 * (j - 1)]  # noqa: E731
                r = c * (a(3, 4) + a(5, 4) + a(4, 3) + a(4, 5))
            elif kind == "scale":
                u = [x * c + 0.5 for x in u]
                r = u[6]
            elif kind == "reduce":
                r = 0.0
                for x in u:
                    r = r + c * x
            else:
                u = [x - c if x > c else x + 0.25 for x in u]
                r = u[8]
            printed.append(repr(r))
        return printed


def inputs_digest(workload: str, seed: int, quick: bool = False) -> str:
    """Hash of everything ``seed`` decides for ``workload`` (self-test)."""
    if workload in ("daemon_miss", "daemon_hit"):
        return digest(daemon_plan(seed, quick))
    if workload == "edit_rebuild":
        program = EditProgram(
            seed, QUICK_EDIT_SUBROUTINES if quick else EDIT_SUBROUTINES)
        first = program.source()
        program.edit()
        return digest([first, program.source()])
    if workload == "compile_cold":
        # the order of the 53 unique table jobs
        return digest(shuffled("compile", seed, range(53)))
    if workload == "exec_steady":
        modules = QUICK_EXEC_MODULES if quick else EXEC_MODULES
        return digest(shuffled("exec", seed, modules))
    # the six tables are the input; the seed decides nothing
    return digest(workload)
