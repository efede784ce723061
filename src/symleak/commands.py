"""The ``replay``, ``brute-force`` and ``print-ir`` commands.

``symleak.cli`` reads every command line against its one table,
``_COMMANDS``, and loads this module only when one of these commands
runs, so an ``analyze`` process never compiles their handlers or the
checks of their inputs.  Each handler imports the module it drives
when it runs: ``replay`` the concrete oracle, ``brute-force`` the
exhaustive search and ``print-ir`` the printer.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .cache import CacheConfig
from .cli import _cache_from, _load
from .errors import BruteForceCapError, ReplayError, SymleakError
from .ir import Program, SymbolicBase, parse_site, parse_var


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


def _check_inputs(p: Program, inputs: dict[str, int]) -> None:
    """Refuse a replay input that the run would mask or ignore: a secret
    input's value past its width, and a name that is no secret input,
    no symbolic base and no ``cell_var`` or ``load_var`` of a declaration
    (a public input's value is fixed by the program)."""
    widths = {s.name: s.width for s in p.secret_inputs}
    bases = {d.placement.var for d in p.decls
             if isinstance(d.placement, SymbolicBase)}
    decls = {d.name for d in p.decls}
    for name, value in inputs.items():
        if name in widths:
            if not 0 <= value < 1 << widths[name]:
                raise SymleakError(f"--input {name}={value} does not fit in "
                                   f"{widths[name]} bits")
            continue
        var = parse_var(name, decls)
        if name not in bases and (var is None or var[0] == "base"):
            raise SymleakError(f"--input {name!r} names no secret input, "
                               "symbolic base or memory variable")


def _check_load_positions(p: Program, inputs: dict[str, int],
                          trace: list[tuple[int, str, str]]) -> None:
    """Refuse a ``load_var(n, d)`` input unless the replayed access at
    schedule position n loads from ``d``: only that load reads it."""
    decls = {d.name for d in p.decls}
    for name in inputs:
        kind, decl, n = parse_var(name, decls) or ("", "", 0)
        if kind == "ld" and (n >= len(trace)
                             or parse_site(trace[n][1])[2:] != ("load", decl)):
            raise SymleakError(f"--input {name!r}: schedule position {n} "
                               f"is no load of {decl!r}")


def _parse_schedule(text: str) -> list[int]:
    items = [s for s in text.replace("-", ",").split(",") if s]
    try:
        return [int(s) for s in items]
    except ValueError:
        raise SymleakError(f"bad schedule {text!r}") from None


def schedule_from_lines(p: Program, inputs: dict[str, int], lines,
                        cfg: CacheConfig) -> list[int]:
    """Turn a sequence of source line numbers into a thread schedule.

    At each step exactly one thread must have its pending access on the
    requested line; branch outcomes (hence which line is pending) come
    from ``inputs``.
    """
    from .oracle import _Run
    run = _Run(p, cfg, inputs)
    for want in lines:
        here = [tid for tid, s in run.pending().items() if s.line == want]
        if not here:
            pend = sorted(s.line for s in run.pending().values())
            raise ReplayError(
                f"no pending access on line {want}; pending lines are {pend}")
        if len(here) > 1:
            raise ReplayError(f"line {want} is pending in threads {sorted(here)}")
        run.step(here[0])
    return list(run.schedule)


def _cmd_replay(args: SimpleNamespace) -> int:
    from .oracle import replay_trace
    p = _load(args.file)
    cfg = _cache_from(args)
    inputs = _parse_inputs(args.input)
    _check_inputs(p, inputs)
    lines = _parse_schedule(args.schedule)
    tids = schedule_from_lines(p, inputs, lines, cfg)
    trace = replay_trace(p, inputs, tids, cfg)
    _check_load_positions(p, inputs, trace)
    for tid, site, verdict in trace:
        if args.critical_only and tid != p.critical_tid:
            continue
        print(f"{site} {verdict}")
    return 0


def _cmd_brute_force(args: SimpleNamespace) -> int:
    from .bruteforce import brute_force_leaks
    p = _load(args.file)
    cfg = _cache_from(args)
    cap = None
    try:
        leaks = brute_force_leaks(p, cfg, key_bits=args.key_bits,
                                  max_orders=args.max_orders)
    except BruteForceCapError as e:
        leaks, cap = e.leaks, e
    for site, order in sorted(leaks):
        print(f"{site} schedule={','.join(map(str, order))}")
    if cap is not None:
        print(f"incomplete: {cap}", file=sys.stderr)
        return 3
    return 1 if leaks else 0


def _cmd_print_ir(args: SimpleNamespace) -> int:
    from .printer import pretty
    sys.stdout.write(pretty(_load(args.file)))
    return 0
