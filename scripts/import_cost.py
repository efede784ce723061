"""What ``import symleak.cli`` compiles and runs, module by module.

Usage: python3 scripts/import_cost.py [--runs N] [--checkout PATH]
                                      [--against PATH]

Imports ``symleak.cli`` from the ``src`` directory of the checkout PATH
(default: this script's) in N fresh interpreters (default 20), and
prints one row for each ``symleak`` module the import loads:
  lines       source lines
  tokens      ``tokenize`` tokens, less NL, NEWLINE, INDENT, DEDENT,
              COMMENT and ENDMARKER
  compile_ms  median time of ``SourceFileLoader.source_to_code``
  exec_ms     median time of ``exec_module``, less the module's own
              compile and the ``exec_module`` calls of the modules it
              imports in turn (so an import of ``json`` is not counted)
then the totals and the median time of the whole import.  The timings
come from hooks that the interpreter installs on ``SourceFileLoader``
before the import, outside the package.  Every interpreter compiles the
package from source, as it does under ``PYTHONDONTWRITEBYTECODE=1``:
a bytecode cache of the package, if there is one, is not read.

With ``--against PATH``, it then runs N alternating pairs of fresh
interpreters, one importing ``symleak.cli`` from each checkout, no
hooks but the one that skips the bytecode cache.  It prints each
side's median and quartiles of the import time, the median of the
paired differences (this checkout's minus the other's) and the number
of pairs in which this checkout was faster.  The standard library is
all it needs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run as ``python -c CHILD SRC HOOKS``: imports symleak.cli from SRC and
# prints the import's seconds and, with HOOKS=1, each symleak module's
# compile and exec seconds.
CHILD = r"""
import json, sys, time
from importlib.machinery import SourceFileLoader

src, hooks = sys.argv[1], sys.argv[2] == "1"
clock = time.perf_counter
stats, compile_of, stack = SourceFileLoader.path_stats, {}, []
to_code, exec_module = SourceFileLoader.source_to_code, SourceFileLoader.exec_module


def path_stats(self, path):
    if path.startswith(src):
        raise OSError("no bytecode cache")  # compile from source
    return stats(self, path)


def timed_to_code(self, data, path, **kw):
    t = clock()
    code = to_code(self, data, path, **kw)
    compile_of[self.name] = clock() - t
    return code


def timed_exec(self, module):
    nested = [0.0]
    stack.append(nested)
    t = clock()
    try:
        exec_module(self, module)
    finally:
        took = clock() - t
        stack.pop()
        if stack:
            stack[-1][0] += took
    name = module.__name__
    if name.split(".")[0] == "symleak":
        own[name] = (compile_of[name], took - nested[0] - compile_of[name])


own = {}
SourceFileLoader.path_stats = path_stats
if hooks:
    SourceFileLoader.source_to_code = timed_to_code
    SourceFileLoader.exec_module = timed_exec
sys.path.insert(0, src)
t = clock()
import symleak.cli
took = clock() - t
print(json.dumps({"import_s": took, "modules": {
    name: [own.get(name), sys.modules[name].__file__]
    for name in sys.modules if name.split(".")[0] == "symleak"}}))
"""

_NOT_COUNTED = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                tokenize.DEDENT, tokenize.COMMENT, tokenize.ENDMARKER}


def size(path: str) -> tuple[int, int]:
    """Source lines and counted tokens of the file ``path``."""
    text = Path(path).read_text(encoding="utf-8")
    tokens = sum(tok.type not in _NOT_COUNTED
                 for tok in tokenize.generate_tokens(io.StringIO(text).readline))
    return len(text.splitlines()), tokens


def fresh_import(src: Path, hooks: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src),
                           "1" if hooks else "0"],
                          capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"import_cost: importing from {src} failed:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout)


def ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}"


def profile(src: Path, runs: int) -> None:
    samples = [fresh_import(src, True) for _ in range(runs)]
    names = sorted(samples[0]["modules"])
    print(f"{'module':<20} {'lines':>6} {'tokens':>7} {'compile_ms':>11} "
          f"{'exec_ms':>8}")
    total = [0, 0, 0.0, 0.0]
    for name in names:
        lines, tokens = size(samples[0]["modules"][name][1])
        comp = statistics.median(s["modules"][name][0][0] for s in samples)
        run = statistics.median(s["modules"][name][0][1] for s in samples)
        for i, v in enumerate((lines, tokens, comp, run)):
            total[i] += v
        print(f"{name:<20} {lines:>6} {tokens:>7} {ms(comp):>11} {ms(run):>8}")
    print(f"{f'total, {len(names)} modules':<20} {total[0]:>6} {total[1]:>7} "
          f"{ms(total[2]):>11} {ms(total[3]):>8}")
    print(f"import symleak.cli: median {ms(statistics.median(s['import_s'] for s in samples))}"
          f" ms over {runs} runs, hooks included")


def spread(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {ms(q2)} ms, quartiles {ms(q1)}-{ms(q3)} ms"


def compare(src: Path, other: Path, runs: int) -> None:
    mine, theirs = [], []
    for i in range(runs):
        first_mine = i % 2 == 0
        for side in ((src, mine), (other, theirs))[::1 if first_mine else -1]:
            side[1].append(fresh_import(side[0], False)["import_s"])
    diffs = [a - b for a, b in zip(mine, theirs)]
    print(f"this    {src}: {spread(mine)}")
    print(f"against {other}: {spread(theirs)}")
    print(f"paired difference, this minus against: median "
          f"{ms(statistics.median(diffs))} ms; this faster in "
          f"{sum(d < 0 for d in diffs)} of {runs} pairs")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=20)
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    src = args.checkout.resolve() / "src"
    profile(src, args.runs)
    if args.against is not None:
        compare(src, args.against.resolve() / "src", args.runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
