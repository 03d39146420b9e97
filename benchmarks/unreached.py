#!/usr/bin/env python3
"""Which functions under ``src/repro`` does nothing call?

Runs every entry point the repo has and, separately, tier-1, in a copy of
the tree whose ``src/sitecustomize.py`` (pool workers, daemons and the e2e
runner's children all load it) logs the first call of each code object, and
prints per file the lines of top-level functions / methods that no entry
point reached, and that nothing reached.  ``--functions`` names them,
``--check-ceiling A B`` exits non-zero above the totals.  ~14 min; not CI.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

SITECUSTOMIZE = '''
import os, sys, threading
_OUT, _SEEN = os.environ.get("UNREACHED_OUT"), set()
_MARK = os.sep + os.path.join("src", "repro") + os.sep
def _profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _SEEN:
        _SEEN.add(code)
        if _MARK in code.co_filename:  # append at once: workers os._exit
            with open(os.path.join(_OUT, "%d.txt" % os.getpid()), "a") as f:
                f.write("%s\\t%s\\t%d\\n" % (code.co_filename.split(_MARK)[1],
                                            code.co_name, code.co_firstlineno))
if _OUT:
    sys.setprofile(_profile), threading.setprofile(_profile)
'''
#: Every entry point the repo has, one shell line each ($D: a scratch dir).
TRAFFIC = """\
for e in jit compiled reference vector; do for how in "--jobs 2 --cache-dir $D/c-$e" "--jobs 2 --cache-dir $D/c-$e" "--jobs 1 --no-incremental"; do $S run-tables --quiet --no-daemon --engine $e $how; done; done
$C run --seeds 64 --jobs 2 --no-daemon --out $D/r --engines jit,compiled,reference,vector
$C run --seeds 16 --jobs 2 --no-daemon --chaos 0 --chaos-plans 3
$C repro --seed 7 --out $D/r
$C show --seed 7
$O --flow ours --workload jacobi --timing
$O --flow flang --workload ac --print-stages
$O --workload jacobi --timing --pipeline 'builtin.module(func.func(canonicalize,cse), raise-scf-to-affine)'
$O --pipeline 'builtin.module(canonicalize)' --from hlfir
$O --flow ours --workload matmul --option tile=true --option tile_size=16 --option unroll=2 --timing
$O --workload sum --verify-each --dump-ir both --pipeline 'builtin.module(canonicalize)'
$O --flow ours --workload sum --print-stages -o $D/sum.mlir
$O --flow ours --workload pw-advection --gpu --no-print-ir
$O --list-flows
$O --list-passes
for e in examples/*.py; do python $e; done
python benchmarks/interpreter_bench.py --quick $D/bi.json
python benchmarks/compile_bench.py $D/bc.json
python benchmarks/service_smoke.py $D/bs.json
$S serve --socket $D/s --cache-dir $D/dc --jobs 2 & sleep 6; $S ping --socket $D/s; export REPRO_DAEMON_SOCKET=$D/s; $S run-tables --quiet --tables table3 figure3; $C run --seeds 8; $O --workload jacobi --no-verify; $S metrics --socket $D/s; $S shutdown --socket $D/s; wait
python3 benchmarks/e2e/bench.py run --trace -o $D/e2e.json"""


def run_all(tmp, out, lines):
    """Run ``lines`` traced; ``file -> first lines of the code objects hit``."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), UNREACHED_OUT=str(out),
               D=tempfile.mkdtemp(dir=out.parent), S="python -m repro.service",
               C="python -m repro.conformance", O="python -m repro.opt")
    for line in lines:
        print("+", line, flush=True)
        done = subprocess.run(line, shell=True, cwd=tmp, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        if done.returncode:     # clocks and floors can fail under a profiler
            print(f"  (exit {done.returncode})", flush=True)
    seen = defaultdict(set)
    for log in out.glob("*.txt"):
        for rel, _, first in map(str.split, log.read_text().splitlines()):
            seen[rel].add(int(first))
    return seen


def spans(src):
    """Top-level functions and methods, nested defs included in their span;
    a decorated def starts at its first decorator, as ``co_firstlineno``."""
    for path in sorted(src.rglob("*.py")):
        stack = list(ast.parse(path.read_text()).body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ClassDef):
                stack.extend(node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(d.lineno for d in [node] + node.decorator_list)
                yield (str(path.relative_to(src)), node.name, first,
                       node.end_lineno)


def main(argv):
    with tempfile.TemporaryDirectory() as top:
        tmp = Path(top) / "tree"
        shutil.copytree(Path(__file__).resolve().parents[1], tmp,
                        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"))
        (tmp / "src" / "sitecustomize.py").write_text(SITECUSTOMIZE)
        entry = run_all(tmp, Path(top) / "entry", TRAFFIC.splitlines())
        tests = run_all(tmp, Path(top) / "tier1",
                        ["python -m pytest -q -p no:cacheprovider"])
        table, names = defaultdict(lambda: [0, 0, 0]), []
        for rel, name, first, last in spans(tmp / "src" / "repro"):
            by_entry = any(first <= n <= last for n in entry[rel])
            by_any = by_entry or any(first <= n <= last for n in tests[rel])
            for i, dead in enumerate((True, not by_entry, not by_any)):
                table[rel][i] += dead * (last - first + 1)
            if not by_entry:
                names.append(f"{rel}:{first} {name} {last - first + 1}"
                             + ("" if by_any else " (nothing)"))
    total = [sum(row[i] for row in table.values()) for i in range(3)]
    print(f"{'file':44}{'fn lines':>9}{'no entry':>9}{'nothing':>9}")
    for rel, row in sorted(table.items()) + [("TOTAL", total)]:
        if row[1]:
            print(f"{rel:44}{row[0]:9}{row[1]:9}{row[2]:9}")
    if "--functions" in argv:
        print("\n".join(sorted(names)))
    if "--check-ceiling" in argv:
        at = argv.index("--check-ceiling")
        return int(total[1] > int(argv[at + 1]) or total[2] > int(argv[at + 2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
