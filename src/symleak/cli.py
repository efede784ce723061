"""Command line entry point and JSON reporting.

Subcommands: ``analyze`` runs the full pipeline and writes a report,
``replay`` executes one concrete (inputs, schedule) pair, ``brute-force``
exhausts small key spaces, ``print-ir`` shows a program after loop
unrolling.  ``run`` is ``analyze`` for a library caller: its arguments
are the command's options, under the same names and defaults.

Exit codes for analyze: 0 no leaks, 1 leaks found, 2 error, 3 search
incomplete (a bound or an undecided solver query), 4 internal error (an
unexpected exception, traceback on stderr).  An incomplete search exits
3 even when it found leaks: the report lists them, but the exit code
must not pass a truncated run off as a complete one.  A query too wide
for the built-in solver's domain cap is undecided, like a timed-out
one: it counts in ``indeterminate`` and the report is still written.
A leak that fails replay confirmation is an internal inconsistency and
exits 4.  ``brute-force`` exits 0, 1, 2 and 4 alike, and 3 when it hits
``--key-bits`` or ``--max-orders``, with the sites found so far on
stdout and the bound on stderr.

The handlers of ``replay``, ``brute-force`` and ``print-ir``, and the
checks of their inputs, live in ``symleak.commands``, which ``main``
loads only for those commands; each imports the module it drives when
it runs.  ``analyze`` loads ``symleak.adversary`` only under
``--adversary synthesize``, ``symleak.smt`` only under ``--solver``,
``symleak.oracle`` only to replay a witness and ``symleak.scan`` only
at a divergence query that the built-in solver enumerates.  So
importing this module compiles only the analysis pipeline, and a run
whose sites all settle before the search compiles nothing more.
Exit 2 is bad input: a ``SymleakError`` (settings out of range and
files that are not UTF-8 included) or an ``OSError``; any other
exception, a ``ValueError`` from the pipeline's own invariants
included, exits 4.

The report has one entry per leaky site, the first witness the search
found for it, replay-confirmed before it is printed.

``main`` runs its command with the cyclic garbage collector off.  It
first freezes every object alive at entry (``gc.freeze``): the
interpreter and the loaded modules live until exit, so neither a
collection nor the two passes at interpreter exit need walk them.  The
pipeline builds no reference cycles (interned expressions, immutable
states and access events only point at older objects), so a run leaves
nothing for the collector but the closures of ``json``'s indenting
encoder, 33 objects.  ``main`` restores the caller's
``gc.isenabled()`` on every exit, ``SystemExit`` included; the frozen
objects stay frozen.  Library entry points (``run``, ``explore``,
``brute_force_leaks``) leave the collector alone.

The command line is read against one table, ``_COMMANDS``, by one
short loop (``_parse_args``).  A process imports no parser library and
builds no parser objects, which were the largest fixed cost of an
``analyze`` process that the package controlled
(``BENCH_cli_parse.json``).
"""

from __future__ import annotations

import gc
import json
import sys
import time
from types import SimpleNamespace

from .cache import CacheConfig, probe_window
from .errors import ParseError, ReplayError, SymleakError
from .explorer import ExploreStats, LeakReport, explore
from .ir import Program, SymbolicBase
from .parser import parse_program
from .solver import DEFAULT_TIMEOUT_MS, EnumerativeBackend, SolverBackend
from .transform import unroll_loops

# Named cache shapes from the evaluation writeups.
PRESETS: dict[str, tuple[int, int, int]] = {
    "paper-fig3": (512, 1, 1),
}

_UNROLL_BOUND = 4096


def _load(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 ({e.reason} at byte "
                             f"{e.start})") from None
    return unroll_loops(parse_program(text), _UNROLL_BOUND)


def backend_for(p: Program, cfg: CacheConfig, solver: str | None = None,
                timeout_ms: int | None = DEFAULT_TIMEOUT_MS) -> SolverBackend:
    """The backend ``analyze`` runs ``p`` with: the external solver
    command ``solver``, else the built-in one, where a symbolic base
    ranges over the aligned addresses of ``cfg``'s probe window.  The
    per-query deadline defaults to ``analyze``'s."""
    if solver:
        from .smt import SmtProcessBackend
        return SmtProcessBackend(solver, timeout_ms=timeout_ms)
    domains = {d.placement.var: range(0, probe_window(cfg), d.elem_size)
               for d in p.decls if isinstance(d.placement, SymbolicBase)}
    return EnumerativeBackend(domains=domains or None, timeout_ms=timeout_ms)


def _apply_adversary(p: Program, cfg: CacheConfig, which: str) -> Program:
    if which == "synthesize":
        from .adversary import synthesize_adversary
        return synthesize_adversary(p, cfg)
    if which == "none":
        crit = tuple(t for t in p.threads if t.tid == p.critical_tid)
        if len(crit) == len(p.threads):
            return p
        return Program(p.decls, p.secret_inputs, p.public_inputs, crit,
                       p.critical_tid)
    return p


def _witness_inputs(p: Program, report: LeakReport, k: dict[str, int]) -> dict[str, int]:
    inputs = {**report.shared, **k}
    if report.adversary_addr is not None:
        first = next(d.placement.var for d in p.decls
                     if isinstance(d.placement, SymbolicBase))
        inputs[first] = report.adversary_addr
    return inputs


def confirm_report(p: Program, cfg: CacheConfig, report: LeakReport) -> bool:
    """Replay both witness valuations; the final access must reproduce
    the reported verdicts and they must differ."""
    from .oracle import replay
    tids = [tid for tid, _ in report.schedule]
    try:
        seq1 = replay(p, _witness_inputs(p, report, report.k1), tids, cfg)
        seq2 = replay(p, _witness_inputs(p, report, report.k2), tids, cfg)
    except ReplayError:
        return False
    return (bool(seq1) and bool(seq2)
            and seq1[-1] == report.verdict1
            and seq2[-1] == report.verdict2
            and report.verdict1 != report.verdict2)


def write_report(program: str, cache: CacheConfig, reports: list[LeakReport],
                 stats: ExploreStats, wall_ms: int, complete: bool) -> str:
    leaks = []
    for r in reports:
        entry: dict = {
            "site": r.site,
            "access_index": r.access_index,
            "schedule": [[tid, site] for tid, site in r.schedule],
            "k1": {n: r.k1[n] for n in sorted(r.k1)},
            "k2": {n: r.k2[n] for n in sorted(r.k2)},
        }
        if r.shared:
            entry["shared"] = {n: r.shared[n] for n in sorted(r.shared)}
        if r.adversary_addr is not None:
            entry["adversary_addr"] = r.adversary_addr
        entry["verdict1"] = r.verdict1
        entry["verdict2"] = r.verdict2
        entry["replay_confirmed"] = True
        leaks.append(entry)
    doc = {
        "program": program,
        "cache": {"size": cache.cache_size, "line": cache.line_size,
                  "assoc": cache.assoc},
        "leaks": leaks,
        "stats": {"interleavings": stats.interleavings_explored,
                  "leak_checks": stats.leak_checks,
                  "solver_calls": stats.solver_calls,
                  "solver_memo_hits": stats.solver_memo_hits,
                  "states_forked": stats.states_forked,
                  "indeterminate": stats.indeterminate,
                  "sites_settled": stats.sites_settled,
                  "wall_ms": wall_ms},
        "complete": complete,
    }
    return json.dumps(doc, indent=2) + "\n"


def run(program: str, cache: CacheConfig = CacheConfig(),
        adversary: str = "fixed", max_interleavings: int | None = None,
        timeout_ms: int = DEFAULT_TIMEOUT_MS, solver: str | None = None,
        out: str | None = None) -> int:
    """``symleak analyze`` on the IR file ``program``, each option an
    argument of the same name; returns the exit code."""
    t0 = time.monotonic()
    p = _apply_adversary(_load(program), cache, adversary)
    backend = backend_for(p, cache, solver, timeout_ms)
    reports, stats = explore(p, cache, backend, max_interleavings)
    for r in reports:
        if not confirm_report(p, cache, r):
            print(f"error: witness at {r.site} failed replay confirmation",
                  file=sys.stderr)
            return 4
    wall_ms = int((time.monotonic() - t0) * 1000)
    complete = stats.complete and stats.indeterminate == 0
    text = write_report(program, cache, reports, stats, wall_ms, complete)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not complete:
        return 3
    return 1 if reports else 0


# ---------------------------------------------------------------------------
# Argument handling

def _cache_from(args: SimpleNamespace) -> CacheConfig:
    base = CacheConfig(*PRESETS[args.preset]) if args.preset else CacheConfig()
    return CacheConfig(
        base.cache_size if args.cache_size is None else args.cache_size,
        base.line_size if args.line_size is None else args.line_size,
        base.assoc if args.assoc is None else args.assoc)


def _cmd_analyze(args: SimpleNamespace) -> int:
    return run(args.file, _cache_from(args), args.adversary,
               args.max_interleavings, args.timeout_ms, args.solver, args.out)


def _elsewhere(name: str):
    """The handler ``name`` of ``symleak.commands``, which loads only when
    that handler runs."""
    def handler(args: SimpleNamespace) -> int:
        from . import commands
        return getattr(commands, name)(args)
    return handler


_HELP = ("-h", "--help")
_REQUIRED = object()

_CACHE_OPTIONS = (
    ("--cache-size", int, None, "cache size in bytes (default 65536)"),
    ("--line-size", int, None, "line size in bytes (default 64)"),
    ("--assoc", int, None, "ways per set, LRU (default 1)"),
    ("--preset", tuple(sorted(PRESETS)), None,
     "a named cache shape, paper-fig3 is 512/1/1; the three options "
     "above override its fields"),
)

# Each command: its handler, a one-line summary and its options besides
# the one FILE.  Every handler but analyze's is in ``symleak.commands``.
# An option is (flag, kind, default, help), given as ``--flag VALUE`` or
# ``--flag=VALUE`` and read into the field of ``args`` that the flag
# names, ``--max-orders`` into ``max_orders``.
# Kind ``int`` or ``str`` keeps the last value given, a tuple of strings
# also lists the values allowed, ``list`` appends every value given and
# ``bool`` is a flag that takes no value.  An option whose default is
# ``_REQUIRED`` must be given.
_COMMANDS = {
    "analyze": (_cmd_analyze, "explore paths and interleavings for leaks", (
        *_CACHE_OPTIONS,
        ("--adversary", ("fixed", "synthesize", "none"), "fixed",
         "keep adversary probes as written, let the solver pick their "
         "addresses, or strip adversary threads"),
        ("--max-interleavings", int, None,
         "stop after this many interleavings and exit 3"),
        ("--timeout-ms", int, DEFAULT_TIMEOUT_MS,
         f"per-query solver deadline in ms (default {DEFAULT_TIMEOUT_MS})"),
        ("--solver", str, None, "external SMT-LIB2 solver command, e.g. 'z3 -in'"),
        ("--out", str, None, "report path (default stdout)"),
    )),
    "replay": (_elsewhere("_cmd_replay"), "run one concrete input and schedule", (
        *_CACHE_OPTIONS,
        ("--schedule", str, _REQUIRED,
         "source lines of the accesses in order, e.g. 6-9-13-11"),
        ("--input", list, (), "NAME=VALUE, one input a use"),
        ("--critical-only", bool, False, "print the critical thread's accesses only"),
    )),
    "brute-force": (_elsewhere("_cmd_brute_force"), "exhaust small secret spaces", (
        *_CACHE_OPTIONS,
        ("--key-bits", int, 16, "largest secret space in bits (default 16)"),
        ("--max-orders", int, 4096, "most schedules one search closes (default 4096)"),
    )),
    "print-ir": (_elsewhere("_cmd_print_ir"), "parse, unroll and pretty-print", ()),
}


def _field(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _fail(command: str | None, message: str) -> None:
    from .usage import usage
    sys.stderr.write(f"{usage(command)}\nsymleak: error: {message}\n")
    raise SystemExit(2)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """Read ``argv``, the words after ``symleak``, against ``_COMMANDS``.
    ``-h``/``--help`` prints help and raises ``SystemExit(0)``; a usage
    error prints the usage and an ``error:`` line to stderr and raises
    ``SystemExit(2)``."""
    command = argv[0] if argv else None
    if command not in _COMMANDS and command not in _HELP:
        _fail(None, f"unknown command {command!r}" if argv
              else "a command is required")
    if any(word in _HELP for word in argv):
        from .usage import help_text
        sys.stdout.write(help_text(command))
        raise SystemExit(0)
    options = {opt[0]: opt for opt in _COMMANDS[command][2]}
    args = SimpleNamespace(command=command, file=None)
    for flag, kind, default, _ in options.values():
        setattr(args, _field(flag), list(default) if kind is list else default)
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if args.file is not None:
                _fail(command, f"unexpected argument {word!r}: one FILE only")
            args.file = word
            continue
        flag, eq, value = word.partition("=")
        if flag not in options:
            _fail(command, f"unknown option {flag}")
        kind = options[flag][1]
        if kind is bool:
            if eq:
                _fail(command, f"{flag} takes no value")
            value = True
        elif not eq:
            value = next(words, None)
            # A negative number is a value; any other word of a dash is not.
            if value is None or (value.startswith("-")
                                 and not value[1:].isdigit()):
                _fail(command, f"{flag} expects a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(command, f"{flag} expects an integer, got {value!r}")
        elif kind is list:
            value = [*getattr(args, _field(flag)), value]
        elif isinstance(kind, tuple) and value not in kind:
            _fail(command, f"{flag} expects one of {', '.join(kind)}, "
                  f"got {value!r}")
        setattr(args, _field(flag), value)
    missing = ["FILE"] * (args.file is None) + [
        flag for flag in options if getattr(args, _field(flag)) is _REQUIRED]
    if missing:
        _fail(command, f"missing {', '.join(missing)}")
    return args


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.freeze()
    gc.disable()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        return _COMMANDS[args.command][0](args)
    except (SymleakError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only a crash pays for loading it
        traceback.print_exc()
        return 4
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
