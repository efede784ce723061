"""Command line entry point and JSON reporting.

Subcommands: ``analyze`` runs the full pipeline and writes a report,
``replay`` executes one concrete (inputs, schedule) pair, ``brute-force``
exhausts small key spaces, ``print-ir`` shows a program after loop
unrolling.

Exit codes for analyze: 0 no leaks, 1 leaks found, 2 error, 3 search
incomplete (a bound or an undecided solver query), 4 internal error (an
unexpected exception, traceback on stderr).  An incomplete search exits
3 even when it found leaks: the report lists them, but the exit code
must not pass a truncated run off as a complete one.  A query too wide
for the built-in solver's domain cap also exits 3, with the message on
stderr and no report.  A leak that fails replay confirmation is an
internal inconsistency and exits 4.

The report has one entry per leaky site, the first witness the search
found for it, replay-confirmed before it is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .cache import CacheConfig, ReduceOptions, probe_window
from .detector import LeakReport
from .errors import EnumerativeCapError, ReplayError, SymleakError
from .explorer import ExploreOptions, ExploreStats, explore
from .ir import Program, SymbolicBase, pretty
from .oracle import brute_force_leaks, replay, replay_trace, schedule_from_lines
from .parser import parse_program
from .solver import EnumerativeBackend, SmtProcessBackend, SolverBackend
from .transform import synthesize_adversary, unroll_loops

# Named cache shapes from the evaluation writeups.
PRESETS: dict[str, tuple[int, int, int]] = {
    "paper-fig3": (512, 1, 1),
}

_DEFAULT_CACHE = (65536, 64, 1)
_UNROLL_BOUND = 4096


@dataclass(frozen=True)
class RunConfig:
    """Everything one analyze invocation depends on; no hidden state."""

    program: str
    cache: CacheConfig = CacheConfig()
    mode: str = "precise"  # "precise" | "two-step"
    adversary: str = "fixed"  # "fixed" | "synthesize" | "none"
    reductions: ReduceOptions = ReduceOptions()
    max_interleavings: int | None = None
    timeout_ms: int = 30000
    solver: str | None = None
    out: str | None = None


def _load(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return unroll_loops(parse_program(text), _UNROLL_BOUND)


def _backend(p: Program, cfg: CacheConfig, solver: str | None,
             timeout_ms: int) -> SolverBackend:
    if solver:
        return SmtProcessBackend(solver, timeout_ms=timeout_ms)
    domains = {d.placement.var: range(0, probe_window(cfg), d.elem_size)
               for d in p.decls if isinstance(d.placement, SymbolicBase)}
    return EnumerativeBackend(domains=domains or None)


def _apply_adversary(p: Program, cfg: CacheConfig, which: str) -> Program:
    if which == "synthesize":
        return synthesize_adversary(p, cfg)
    if which == "none":
        crit = tuple(t for t in p.threads if t.tid == p.critical_tid)
        if len(crit) == len(p.threads):
            return p
        return Program(p.decls, p.secret_inputs, p.public_inputs, crit,
                       p.critical_tid)
    return p


def _witness_inputs(p: Program, report: LeakReport, k: dict[str, int]) -> dict[str, int]:
    inputs = dict(k)
    if report.adversary_addr is not None:
        sym = [d.placement.var for d in p.decls
               if isinstance(d.placement, SymbolicBase)]
        if len(sym) != 1:
            raise ReplayError(
                "cannot reconstruct a witness with multiple symbolic bases")
        inputs[sym[0]] = report.adversary_addr
    return inputs


def confirm_report(p: Program, cfg: CacheConfig, report: LeakReport) -> bool:
    """Replay both witness valuations; the final access must reproduce
    the reported verdicts and they must differ."""
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


def write_report(rc: RunConfig, reports: list[LeakReport],
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
        if r.adversary_addr is not None:
            entry["adversary_addr"] = r.adversary_addr
        entry["verdict1"] = r.verdict1
        entry["verdict2"] = r.verdict2
        entry["replay_confirmed"] = True
        entry["leaky_schedules"] = r.leaky_schedules
        leaks.append(entry)
    doc = {
        "program": rc.program,
        "cache": {"size": rc.cache.cache_size, "line": rc.cache.line_size,
                  "assoc": rc.cache.assoc},
        "mode": rc.mode,
        "leaks": leaks,
        "stats": {"interleavings": stats.interleavings_explored,
                  "leak_checks": stats.leak_checks,
                  "solver_calls": stats.solver_calls,
                  "wall_ms": wall_ms},
        "complete": complete,
    }
    return json.dumps(doc, indent=2) + "\n"


def run(rc: RunConfig) -> int:
    """parse, unroll, place adversary, explore, confirm, report."""
    t0 = time.monotonic()
    p = _apply_adversary(_load(rc.program), rc.cache, rc.adversary)
    backend = _backend(p, rc.cache, rc.solver, rc.timeout_ms)
    opts = ExploreOptions(
        mode="two_step" if rc.mode == "two-step" else "precise",
        reductions=rc.reductions,
        max_interleavings=rc.max_interleavings,
        solver_timeout_ms=rc.timeout_ms,
    )
    reports, stats = explore(p, rc.cache, opts, backend)
    for r in reports:
        if not confirm_report(p, rc.cache, r):
            print(f"error: witness at {r.site} failed replay confirmation",
                  file=sys.stderr)
            return 4
    wall_ms = int((time.monotonic() - t0) * 1000)
    complete = stats.complete and stats.indeterminate == 0
    text = write_report(rc, reports, stats, wall_ms, complete)
    if rc.out:
        with open(rc.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not complete:
        return 3
    return 1 if reports else 0


# ---------------------------------------------------------------------------
# Argument handling

def _add_cache_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--cache-size", type=int, default=None)
    ap.add_argument("--line-size", type=int, default=None)
    ap.add_argument("--assoc", type=int, default=None)
    ap.add_argument("--preset", choices=sorted(PRESETS), default=None)


def _cache_from(args: argparse.Namespace) -> CacheConfig:
    size, line, assoc = PRESETS[args.preset] if args.preset else _DEFAULT_CACHE
    if args.cache_size is not None:
        size = args.cache_size
    if args.line_size is not None:
        line = args.line_size
    if args.assoc is not None:
        assoc = args.assoc
    return CacheConfig(size, line, assoc)


def _parse_inputs(pairs: list[str]) -> dict[str, int]:
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise SymleakError(f"bad --input {item!r}, expected name=value")
        try:
            out[name] = int(value, 0)
        except ValueError:
            raise SymleakError(f"bad --input value {value!r}") from None
    return out


def _parse_schedule(text: str) -> list[int]:
    items = [s for s in text.replace("-", ",").split(",") if s]
    try:
        return [int(s) for s in items]
    except ValueError:
        raise SymleakError(f"bad schedule {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symleak",
        description="Find concurrency-induced cache-timing leaks in mini-IR programs.")
    sub = ap.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="explore paths and interleavings for leaks")
    an.add_argument("file")
    _add_cache_flags(an)
    an.add_argument("--mode", choices=("precise", "two-step"), default="precise")
    an.add_argument("--adversary", choices=("fixed", "synthesize", "none"),
                    default="fixed")
    an.add_argument("--no-reduce-tables", action="store_true",
                    help="build the hit constraints without interval pruning")
    an.add_argument("--max-interleavings", type=int, default=None)
    an.add_argument("--timeout-ms", type=int, default=30000)
    an.add_argument("--solver", default=None,
                    help="external SMT-LIB2 solver command, e.g. 'z3 -in'")
    an.add_argument("--out", default=None, help="report path (default stdout)")

    rp = sub.add_parser("replay", help="run one concrete input and schedule")
    rp.add_argument("file")
    _add_cache_flags(rp)
    rp.add_argument("--schedule", required=True,
                    help="source lines of the accesses in order, e.g. 6-9-13-11")
    rp.add_argument("--input", action="append", default=[],
                    metavar="NAME=VALUE")
    rp.add_argument("--critical-only", action="store_true")

    bf = sub.add_parser("brute-force", help="exhaust small secret spaces")
    bf.add_argument("file")
    _add_cache_flags(bf)
    bf.add_argument("--key-bits", type=int, default=16)
    bf.add_argument("--max-orders", type=int, default=4096)

    pr = sub.add_parser("print-ir", help="parse, unroll and pretty-print")
    pr.add_argument("file")
    return ap


def _cmd_analyze(args: argparse.Namespace) -> int:
    rc = RunConfig(
        program=args.file,
        cache=_cache_from(args),
        mode=args.mode,
        adversary=args.adversary,
        reductions=ReduceOptions(tables=not args.no_reduce_tables),
        max_interleavings=args.max_interleavings,
        timeout_ms=args.timeout_ms,
        solver=args.solver,
        out=args.out,
    )
    return run(rc)


def _cmd_replay(args: argparse.Namespace) -> int:
    p = _load(args.file)
    cfg = _cache_from(args)
    inputs = _parse_inputs(args.input)
    lines = _parse_schedule(args.schedule)
    tids = schedule_from_lines(p, inputs, lines, cfg)
    for tid, site, verdict in replay_trace(p, inputs, tids, cfg):
        if args.critical_only and tid != p.critical_tid:
            continue
        print(f"{site} {verdict}")
    return 0


def _cmd_brute_force(args: argparse.Namespace) -> int:
    p = _load(args.file)
    cfg = _cache_from(args)
    leaks = brute_force_leaks(p, cfg, key_bits=args.key_bits,
                              max_orders=args.max_orders)
    for site, order in sorted(leaks):
        print(f"{site} schedule={','.join(map(str, order))}")
    return 1 if leaks else 0


def _cmd_print_ir(args: argparse.Namespace) -> int:
    sys.stdout.write(pretty(_load(args.file)))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "replay": _cmd_replay,
    "brute-force": _cmd_brute_force,
    "print-ir": _cmd_print_ir,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except EnumerativeCapError as e:
        # A bound of the built-in solver stopped the search; the input is fine.
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (SymleakError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only a crash pays for loading it
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
