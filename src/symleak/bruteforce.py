"""Brute force: every secret valuation down every schedule, concretely.

The ground truth the explorer is checked against on small key spaces,
with no solver involved.  One concrete run (``oracle._Run``) per secret
valuation steps in lockstep with the others down one schedule tree; a
thread's step advances the runs where it is pending.  At a critical
access, stepped runs with equal branch outcomes so far (the explorer's
path constraint) that split hit and miss make a leak.  A schedule
closes once no run's critical thread has an access left; a fork state
seen before is skipped (state hashing, as in Holzmann, "The model
checker SPIN", IEEE TSE 1997).
"""

from __future__ import annotations

from copy import copy
from itertools import product

from .cache import CacheConfig, probe_window
from .errors import BruteForceCapError, ConfigError, SymleakError
from .ir import Fixed, Program, Sensitivity, SymbolicBase
from .oracle import _numbered, _Run


def _secret_names(p: Program) -> list[tuple[str, int]]:
    """Secret dimensions and their widths: declared inputs plus every
    cell of an uninitialised secret declaration (spelled cell_<decl>_<i>
    so replay picks the values up directly)."""
    dims = [(s.name, s.width) for s in p.secret_inputs]
    for d in p.decls:
        if d.sensitivity is Sensitivity.SECRET and d.contents is None:
            dims.extend((f"cell_{d.name}_{i}", 8 * d.elem_size)
                        for i in range(d.length))
    return dims


def secret_bits(p: Program) -> int:
    """Total width of the secret space brute force would enumerate."""
    return sum(w for _, w in _secret_names(p))


def _secret_valuations(p: Program, key_bits: int):
    dims = _secret_names(p)
    total = sum(w for _, w in dims)
    if total > key_bits:
        raise BruteForceCapError(
            f"secret space is {total} bits, over the {key_bits}-bit cap")
    ranges = [range(1 << w) for _, w in dims]
    for combo in product(*ranges):
        yield dict(zip((n for n, _ in dims), combo))


def _candidate_bases(p: Program, cfg: CacheConfig) -> list[int]:
    """Line-aligned placements worth trying for a symbolic base.

    Below the highest fixed address a base can share a block with victim
    data, so every position is distinct.  Above it, only the cache set
    matters: two non-aliasing bases with equal set index produce
    isomorphic cache states on every run.  One representative per set
    suffices there.
    """
    window = probe_window(cfg)
    tops = [d.placement.base + d.byte_size for d in p.decls
            if isinstance(d.placement, Fixed)]
    alias_top = max(tops, default=0)
    span = cfg.num_sets * cfg.line_size
    return list(range(0, min(window, alias_top + span), cfg.line_size))


def _lockstep(p: Program, runs: list[_Run], max_orders: int,
              leaks: dict[str, tuple[int, ...]]) -> None:
    """Step ``runs`` down every schedule, lowest tid first, and keep in
    ``leaks`` the first schedule to each leaky site."""
    tids = [t.tid for t in p.threads]
    crit = tids.index(p.critical_tid)
    numbers: dict[tuple, int] = {}  # (run index, run state) -> number
    seen: set[tuple[int, ...]] = set()  # fork states, as run numbers
    closed = 0
    # A fork state's live runs, by index, and the thread to step them by.
    # Siblings share the runs; each but the last popped steps copies.
    stack = [([(i, r) for i, r in enumerate(runs) if r.cursors[crit]], None)]
    while stack:
        live, pos = stack.pop()
        if stack and stack[-1][0] is live:
            live = [(i, copy(r)) for i, r in live]
        while True:
            if pos is not None:
                live = _advance(live, pos, crit, tids[pos], leaks)
            enabled = sorted({j for _, r in live
                              for j, cur in enumerate(r.cursors) if cur})
            if len(enabled) != 1:
                break
            pos = enabled[0]  # one thread enabled: step in place
        if not enabled:
            closed += 1
            if closed > max_orders:
                raise BruteForceCapError(f"more than {max_orders} schedules",
                                         set(leaks.items()))
            continue
        key = tuple([numbers.setdefault((i, r.state()), len(numbers))
                     for i, r in live])
        if key not in seen:
            seen.add(key)
            stack.extend((live, j) for j in reversed(enabled))


def _advance(live: list[tuple[int, _Run]], pos: int, crit: int, tid: int,
             leaks: dict[str, tuple[int, ...]]) -> list[tuple[int, _Run]]:
    """Step thread ``tid`` (at ``pos``) where it is pending; return the
    runs whose critical thread has not ended.  Runs with equal branch
    outcomes so far took the same steps, so they are at one site."""
    first: dict[tuple[bool, ...], str] = {}
    out = []
    for i, r in live:
        if r.cursors[pos]:
            profile = r.profile
            site, verdict = r.step(tid)
            if pos == crit:
                if first.setdefault(profile, verdict) != verdict:
                    leaks.setdefault(site, r.schedule)
                if not r.cursors[crit]:
                    continue
        out.append((i, r))
    return out


def brute_force_leaks(p: Program, cfg: CacheConfig, key_bits: int = 16,
                      max_orders: int = 4096
                      ) -> set[tuple[str, tuple[int, ...]]]:
    """Exhaustively find the sites where two secret values disagree on a
    critical-thread verdict, one (site, schedule) pair per site.

    Enumerates every secret valuation, every interleaving, and, when the
    program places something symbolically, every line-aligned base in
    the probe window.  ``max_orders`` bounds the schedules one search
    closes; the ``BruteForceCapError`` it raises carries the pairs found
    so far.
    """
    if key_bits < 0:
        raise ConfigError(f"key_bits must be at least 0, got {key_bits}")
    if max_orders < 1:
        raise ConfigError(f"max_orders must be at least 1, got {max_orders}")
    sym = [d for d in p.decls if isinstance(d.placement, SymbolicBase)]
    if len(sym) > 1:
        raise SymleakError("at most one symbolic-base declaration supported")
    placements = ([{sym[0].placement.var: base}
                   for base in _candidate_bases(p, cfg)] if sym else [{}])
    code = _numbered(p)
    leaks: dict[str, tuple[int, ...]] = {}
    for placed in placements:
        _lockstep(p, [_Run(p, cfg, {**val, **placed}, code=code)
                      for val in _secret_valuations(p, key_bits)],
                  max_orders, leaks)
    return set(leaks.items())
