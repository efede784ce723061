"""Depth-first search over paths and thread interleavings.

Branches fork unconditionally (both feasible arms are paths).  Every
state with more than one enabled access forks over the enabled threads,
and sleep sets (Godefroid 1996) prune the orders that only swap
independent accesses.  Two accesses are dependent when they come from
one thread, touch the same declaration (memory values), or may share a
cache set under the current path constraint (cache state); swapping two
independent ones changes neither memory nor any set's contents, so
every hit/miss verdict is the same.

Two accesses that may share a set still commute when no check can see
their order (the observers of Aronis et al., TACAS 2018): both are
*unobserved*, they come from different threads and touch different
declarations.  An access is unobserved when it comes from a
non-critical thread, its declaration has a fixed placement, and its
block range cannot hold the block of any critical access.  Swapping two
such accesses changes no verdict.  Direct-mapped: after either order
the set holds a block that no critical access requests.  LRU: the last
access to a critical block is neither of the two, so every interval
between it and a critical access holds both of them or neither.  The
critical blocks come from the critical thread's footprint (below), not
from declaration extents: an index past the end of an array reaches
other declarations' blocks.

A thread's footprint lists the addresses it computes running alone
over every feasible branch arm, each access with the one before it on
its path.  Memory is kept per declaration, so it
covers every interleaving unless another thread stores to a
declaration the thread accesses (the store rule), and then the thread
has none.  Each thread's footprint is built once, before the search,
into one table by thread position (``_footprints``), run from the
search's initial state, so its positions are those ``_Ahead`` indexes.
The observer rule reads the critical thread's entry and needs a fixed
placement on the access it judges; settling (below) reads every entry
and needs a fixed placement on every access of the other threads.

A state's sleep set holds accesses
whose orders a sibling subtree already covered: each child keeps the
earlier siblings and inherited sleepers that are independent of the
access it takes, an access that becomes dependent wakes up, and a state
whose enabled accesses all sleep is abandoned.  A branch changes no
thread's next access, so both arms inherit the sleep set unchanged.

Every access of the critical thread at a site not settled (below) is
checked for secret-dependent divergence before it runs, and no other
access is.  Without the cut below, the search would check every such
access in at least one order of every Mazurkiewicz trace (class of
orders equal up to swapping independent accesses).  The class of the
order that runs the critical thread first is among them, and in it
every verdict is the one the thread gets running alone, so what the
thread leaks by itself is reported too, not only what an interleaving
exposes.  Each leaky site gets one report, the first witness the
search finds, built when it is found.  A check at a site already
reported could change neither the site set nor that witness, so it is
skipped.

For the same reason a state closes, as an ended interleaving, once
every access site the critical thread can still reach is reported: the
subtree below holds only checks that would be skipped.  The sites it
can still reach are those of every load and store ahead of it in its
unrolled body, both arms of every branch counted, so the set
over-approximates and the cut loses no site.  Once the critical thread
has finished nothing lies ahead, so every interleaving closes there at
the latest: what the other threads do afterwards changes no verdict.
The sites ahead come from a table built once per search (``_Ahead``)
over the engine's numbering of the critical thread's body, indexed by
the thread's cursor in the state.

A site that can never leak would keep every state before it open, so
such sites are settled before the search: their bits join the reported
ones, with no report and no check (``_settled_sites``).  A critical
access is fixed when its verdict is the same in every order and under
every secret that takes its path:
- a cold miss, when no access of another thread and no earlier
  critical access on its path can touch its block.  The cache starts
  empty, so the access misses.
- a must-hit, when an earlier critical access on its path has the
  identical address, or earlier accesses confined to one block each
  hold every block its range can touch, and neither a critical access in between
  nor any access of another thread can put another block into that
  block's set (``cache.may_displace``; Ferdinand and Wilhelm's must
  analysis, Real-Time Systems 1999, without ages).  Nothing then
  evicts the block, so the access hits, with any associativity.
A site settles when all its accesses on every path are fixed; a leak
asks for two secrets on one path, so a site may miss on one path and hit
on another.  The accesses come from the footprint table, so nothing
settles unless every thread has a footprint.  Nor does anything settle
when another thread accesses a declaration with a symbolic base, which
may lie on any block.  A one-thread search builds its critical entry
only when the thread accesses some declaration at two positions:
otherwise no access can be a must-hit short of an index past a
declaration's end, and the run alone would mostly settle first
accesses, whose checks ask no query.

Interleavings are identified by the sequence of thread choices taken at
states with more than one enabled access, up to the state that closed.
``interleavings_explored`` counts the distinct sequences of closed
states: two executions with the same choice sequence count as one, no
matter which branch arms they took, and a state abandoned because a
sibling subtree covered its orders counts nothing.  ``max_interleavings``
bounds that count: the search stops when one more sequence would close.
The open states live on an explicit stack, so trace length is not
bounded by Python's recursion limit.
"""

from __future__ import annotations

from collections.abc import Callable

from .cache import (CacheConfig, Geometry, hit_constraint,
                    hit_constraint_assoc, may_displace, may_same_line,
                    may_touch_blocks)
from .detector import LeakReport, classify, solve_precise, verdicts
from .engine import (AccessEvent, BranchEvent, Code, SymbolicState,
                     branch_events, enabled_events, initial_state,
                     perform_access, take_branch)
from .errors import ConfigError
from . import expr as ex
from .expr import Expr
from .ir import Fixed, If, Load, Program, Store, SymbolicBase
from .records import Frozen, Value, set_field
from .solver import SolverBackend


# ``bench/child.py --trace 1`` looks this name up to wrap it; nothing
# calls it.  ROADMAP item 6a deletes it together with ``Tracer.wrap``.
solve_two_step = None


class ExploreOptions(Frozen):
    __slots__ = ("max_interleavings",)

    def __init__(self, max_interleavings: int | None = None) -> None:
        # A bound below one would stop the search before it starts and
        # pass bad input off as an incomplete search.
        if max_interleavings is not None and max_interleavings < 1:
            raise ConfigError("max_interleavings must be at least 1, "
                              f"got {max_interleavings}")
        set_field(self, "max_interleavings", max_interleavings)


class ExploreStats(Value):
    __slots__ = ("interleavings_explored", "leak_checks", "solver_calls",
                 "solver_memo_hits", "states_forked", "indeterminate",
                 "sites_settled", "complete")
    __hash__ = None  # mutable

    def __init__(self, interleavings_explored: int = 0, leak_checks: int = 0,
                 solver_calls: int = 0, solver_memo_hits: int = 0,
                 states_forked: int = 0, indeterminate: int = 0,
                 sites_settled: int = 0, complete: bool = True) -> None:
        self.interleavings_explored = interleavings_explored
        self.leak_checks = leak_checks
        self.solver_calls = solver_calls  # queries issued, memo hits included
        self.solver_memo_hits = solver_memo_hits
        self.states_forked = states_forked
        self.indeterminate = indeterminate
        # Critical sites that can never leak, never checked
        # (_settled_sites).
        self.sites_settled = sites_settled
        self.complete = complete


class _Bounded(Exception):
    pass


class _Frame:
    """One open state of the depth-first search.  ``alts`` holds what is
    left to try there: both arms of ``branch``, or the awake enabled
    accesses.  ``sleep`` holds the inherited sleepers plus the accesses
    already taken from this state, whose orders are covered.  ``fork``
    tells whether more than one access is enabled (asleep ones too), so
    that taking one is a thread choice."""

    __slots__ = ("st", "choices", "sleep", "alts", "branch", "fork", "tried")

    def __init__(self, st: SymbolicState, choices: tuple[int, ...],
                 sleep: list[AccessEvent], alts: list,
                 branch: BranchEvent | None = None,
                 fork: bool = False) -> None:
        self.st = st
        self.choices = choices
        self.sleep = sleep
        self.alts = alts
        self.branch = branch
        self.fork = fork
        self.tried = 0


class _Ahead:
    """The access sites the critical thread can still reach, for one
    search, by position in the engine's numbering of its body
    (``engine.number_body``).  Sites are bits: ``own[pos]`` is the bit
    of the access at ``pos`` (0 elsewhere), and ``sites[pos]`` the bits
    of every access from ``pos`` on, both arms of each branch counted,
    so it over-approximates what any path from there reaches.  Every
    successor lies below its position, so one ascending pass fills
    both.  Bit sets keep the table linear in the body's length."""

    __slots__ = ("own", "sites")

    def __init__(self, code: Code) -> None:
        bits: dict[tuple, int] = {}  # a site, less its thread -> its bit
        self.own = own = [0] * len(code)
        self.sites = sites = [0] * len(code)
        for pos in range(1, len(code)):
            s, succ = code[pos]
            if isinstance(s, If):
                sites[pos] = sites[succ[0]] | sites[succ[1]]
                continue
            if isinstance(s, (Load, Store)):
                own[pos] = bits.setdefault((s.line, type(s), s.decl),
                                           1 << len(bits))
            sites[pos] = own[pos] | sites[succ]


def adversarial_access(p: Program, ev: AccessEvent) -> bool:
    """Should this access be checked for divergence?  Every access of
    the critical thread is: whether it leaks alone or only with another
    thread's accesses in between, the search reaches an order that
    shows it."""
    return ev.tid == p.critical_tid


def divergent_cache_behavior(p: Program, st: SymbolicState, ev: AccessEvent,
                             backend: SolverBackend, stats: ExploreStats,
                             geo: Geometry) -> LeakReport | None:
    """Build the hit constraint for ``ev`` over the trace so far and ask
    whether two secret valuations can disagree on it; on a divergence,
    return the witness.  An undecided query counts in
    ``stats.indeterminate``.

    The constraint is exact (its interval pruning drops only terms the
    intervals already decide), so one query answers.  ``geo`` is the
    search's geometry table.
    """
    tr = st.trace + (ev,)
    i = len(st.trace)
    duplicated = classify(p, st)
    tau = _tau([e.addr for e in tr], i, geo)
    res = solve_precise(backend, tau, st.pcon, duplicated)
    if res.status == "unknown":
        stats.indeterminate += 1
        return None
    if res.status != "sat":
        return None
    v1, v2 = verdicts(tau, res)
    bases = [d.placement.var for d in p.decls
             if isinstance(d.placement, SymbolicBase)]
    shared = {n: res.model_a.get(n, 0) for n in bases[1:]}
    shared.update((n, res.model_a[n]) for n in st.fresh_public if n in res.model_a)
    return LeakReport(
        site=str(ev.site), access_index=i,
        schedule=tuple((e.tid, str(e.site)) for e in tr),
        k1=_project(res.model_a, duplicated),
        k2=_project(res.model_b, duplicated),
        adversary_addr=res.model_a.get(bases[0], 0) if bases else None,
        verdict1=v1, verdict2=v2, shared=shared,
    )


def explore(p: Program, cfg: CacheConfig, opts: ExploreOptions,
            backend: SolverBackend) -> tuple[list[LeakReport], ExploreStats]:
    stats = ExploreStats()
    reports: list[LeakReport] = []  # per site, its first witness
    classes_seen: set[tuple] = set()
    calls_before, hits_before = backend.calls, backend.memo_hits
    st0 = initial_state(p, cfg)
    crit = st0.thread_pos(p.critical_tid)
    ahead = _Ahead(st0.code[crit])
    geo = Geometry(cfg)
    table = _footprints(st0, crit, backend)
    # The bits in ``ahead`` of the sites settled or reported.
    reported = (_settled_sites(st0, crit, ahead, table, backend, geo)
                if table is not None else 0)
    stats.sites_settled = reported.bit_count()
    seen: dict[Expr, bool] = {}  # per address: unobserved?

    def unobserved(ev: AccessEvent) -> bool:
        if (table is None or ev.tid == p.critical_tid
                or not isinstance(ev.decl.placement, Fixed)):
            return False
        if ev.addr not in seen:
            seen[ev.addr] = not any(
                may_touch_blocks(addr, pcon, ev.addr, geo, backend)
                for _, addr, pcon, _ in table[crit])
        return seen[ev.addr]

    def closes(choices: tuple[int, ...], st: SymbolicState) -> bool:
        """Does ``st`` end its interleaving?  It does once every site
        ahead of the critical thread is settled or reported: each check
        below would be skipped.  A closing state counts its choice
        sequence; a new one past the budget stops the search."""
        if ahead.sites[st.cursors[crit]] & ~reported:
            return False
        if choices not in classes_seen:
            if (opts.max_interleavings is not None
                    and len(classes_seen) >= opts.max_interleavings):
                raise _Bounded
            classes_seen.add(choices)
        return True

    def open_frame(st: SymbolicState, choices: tuple[int, ...],
                   sleep: list[AccessEvent]) -> _Frame | None:
        bes = branch_events(st)
        if bes:
            return _Frame(st, choices, sleep, [True, False], bes[0])
        evs = enabled_events(st)
        asleep = {u.tid for u in sleep}
        awake = [ev for ev in evs if ev.tid not in asleep]
        if not awake:
            return None  # a sibling subtree covered every order from here
        stats.states_forked += len(awake) - 1
        return _Frame(st, choices, list(sleep), awake,
                      fork=len(evs) > 1)

    # Dependence of a pair of accesses, keyed on everything
    # ``_has_dependent_pair`` reads: each access's thread, declaration
    # and address, and the path constraint.  The same pair recurs at
    # many states of one search.
    deps: dict[tuple, bool] = {}

    def dependent(st: SymbolicState, a: AccessEvent, b: AccessEvent) -> bool:
        ka, kb = (a.tid, a.decl.name, a.addr), (b.tid, b.decl.name, b.addr)
        key = (ka, kb, st.pcon) if a.tid < b.tid else (kb, ka, st.pcon)
        dep = deps.get(key)
        if dep is None:
            dep = deps[key] = _has_dependent_pair(st, a, b, backend,
                                                  unobserved, geo)
        return dep

    stack: list[_Frame] = []
    root = None if closes((), st0) else open_frame(st0, (), [])
    if root is not None:
        stack.append(root)
    try:
        while stack:
            f = stack[-1]
            if not f.alts:
                stack.pop()
                continue
            alt = f.alts.pop(0)
            if f.branch is not None:
                # A branch changes no thread's next access, so both arms
                # inherit the sleep set as it is.
                nxt = take_branch(f.st, f.branch, alt)
                if nxt.pcon.is_const and not nxt.pcon.value:
                    continue
                if backend.check(nxt.pcon).status == "unsat":
                    continue
                if f.tried:
                    stats.states_forked += 1
                f.tried += 1
                if closes(f.choices, nxt):
                    continue
                child = open_frame(nxt, f.choices, f.sleep)
            else:
                ev = alt
                choices = f.choices + (ev.tid,) if f.fork else f.choices
                earlier = f.sleep[:]
                f.sleep.append(ev)
                if adversarial_access(p, ev):
                    # The bit of ``ev.site``.
                    own = ahead.own[f.st.cursors[crit]]
                    if not own & reported:
                        stats.leak_checks += 1
                        leak = divergent_cache_behavior(p, f.st, ev, backend,
                                                        stats, geo)
                        if leak is not None:
                            reports.append(leak)
                            reported |= own
                nxt = perform_access(f.st, ev)
                # The dependence queries are needed only if the child
                # stays open.
                if closes(choices, nxt):
                    continue
                sleep = [u for u in earlier if not dependent(f.st, u, ev)]
                child = open_frame(nxt, choices, sleep)
            if child is not None:
                stack.append(child)
    except _Bounded:
        stats.complete = False
    stats.interleavings_explored = len(classes_seen)
    stats.solver_calls = backend.calls - calls_before
    stats.solver_memo_hits = backend.memo_hits - hits_before
    return reports, stats


def _has_dependent_pair(st: SymbolicState, a: AccessEvent, b: AccessEvent,
                        backend: SolverBackend,
                        unobserved: Callable[[AccessEvent], bool],
                        geo: Geometry) -> bool:
    """May the order of two enabled accesses of different threads matter
    in ``st``?  They are dependent when they touch the same declaration
    (memory values), or when they may share a cache set under the current
    path (cache state) and are not both unobserved.  An unobserved access
    never touches a block a critical access may request, so either order
    leaves a set holding no critical block (direct-mapped), and no
    interval from a critical block's last access to a critical access
    holds one of the two without the other (LRU).  ``geo`` is as in
    divergent_cache_behavior."""
    if a.decl.name == b.decl.name:
        return True
    if not may_same_line(a.addr, b.addr, st.pcon, geo, backend):
        return False
    return not (unobserved(a) and unobserved(b))


# (position in the thread's numbered body, address, path constraint,
# index of the entry before it on its path or -1) of each access.
Footprint = list[tuple[int, Expr, Expr, int]]


def _footprints(st0: SymbolicState, crit: int,
                backend: SolverBackend) -> list[Footprint | None] | None:
    """Every thread's footprint by position in ``st0.code``, None for a
    thread that fails the store rule (module docstring).  No table when
    the critical thread fails the store rule, or when no rule could use
    one: no access of another thread has a fixed placement, so the
    observer rule judges none, and either one has a symbolic base, so
    nothing settles, or the critical thread accesses no declaration at
    two positions, so no must-hit (one thread)."""
    p, code = st0.program, st0.code
    used = [{s.decl for s, _ in c if isinstance(s, (Load, Store))}
            for c in code]
    stored = [{s.decl for s, _ in c if isinstance(s, Store)} for c in code]
    alone = [not any(stored[o] & used[pos] for o in range(len(code))
                     if o != pos) for pos in range(len(code))]
    fixed = [isinstance(p.decl(d).placement, Fixed)
             for pos in range(len(code)) if pos != crit for d in used[pos]]
    accessed = [s.decl for s, _ in code[crit] if isinstance(s, (Load, Store))]
    if not alone[crit] or not (any(fixed) or (
            all(fixed) and len(set(accessed)) < len(accessed))):
        return None
    return [_footprint(st0, pos, backend) if alone[pos] else None
            for pos in range(len(code))]


def _footprint(st0: SymbolicState, pos: int, backend: SolverBackend) -> Footprint:
    """Run the thread at position ``pos`` alone from ``st0`` over every
    feasible branch arm and collect its accesses (``Footprint``), each
    after the one before it on its path.  A branch arm whose
    feasibility is undecided is run."""
    out: Footprint = []
    todo = [(st0, -1)]
    while todo:
        st, prev = todo.pop()
        ev = st.next_events[pos]
        if isinstance(ev, BranchEvent):
            for arm in (True, False):
                nxt = take_branch(st, ev, arm)
                if backend.check(nxt.pcon).status != "unsat":
                    todo.append((nxt, prev))
        elif ev is not None:
            out.append((st.cursors[pos], ev.addr, st.pcon, prev))
            todo.append((perform_access(st, ev), len(out) - 1))
    return out


def _settled_sites(st0: SymbolicState, crit: int, ahead: _Ahead,
                   table: list[Footprint | None], backend: SolverBackend,
                   geo: Geometry) -> int:
    """The bits in ``ahead`` of the sites to settle: those all of whose
    accesses, on every path, are cold misses or must-hits (module
    docstring), read off ``table`` in one forward walk over the
    critical entry.

    Cold: an earlier access on the same path may touch the block when
    it is the same address, or the block ranges overlap and the blocks
    may be equal under the later path constraint, which implies the
    earlier one.  An access of another thread may when it is the same
    address or each, under its own path constraint, may touch the
    other's block range: two threads' entries come from separate runs,
    whose fresh ``ld<n>_<d>`` names may coincide for different loads,
    so no query names variables of both.

    Must-hit: ``held`` maps block ranges to the addresses known cached
    there after the entry walked last; a range of one block holds that
    block.  An access hits when ``held`` has its very address or every
    block of its range.  It then drops every range it may displace a
    block of (``may_displace``) and joins, unless an access of another
    thread may displace it or its block is held already.  A path that
    leaves a branch point starts from the state kept there."""
    p = st0.program
    if any(fp is None for fp in table) or any(
            isinstance(s, (Load, Store))
            and not isinstance(p.decl(s.decl).placement, Fixed)
            for pos, code in enumerate(st0.code) if pos != crit
            for s, _ in code):
        return 0
    n = geo.num_sets
    footprint = table[crit]
    others = [(a, pa) for pos, fp in enumerate(table) if pos != crit
              for _, a, pa, _ in fp]
    foreign = {geo.of(a)[2] for a, _ in others}
    exposed: dict[tuple[int, int], bool] = {}  # per range: may be displaced?

    def same_block(a: Expr, pa: Expr, b: Expr) -> bool:
        if a is b:
            return True
        (t_a, _, r_a), (t_b, _, r_b) = geo.of(a), geo.of(b)
        if r_a[1] < r_b[0] or r_b[1] < r_a[0]:
            return False
        q = ex.and_(ex.eq(t_a, t_b), pa)
        if q.is_const:
            return bool(q.value)
        return backend.check(q).status != "unsat"

    def cold(i: int) -> bool:
        _, addr, pcon, j = footprint[i]
        while j >= 0:
            _, a, _, j_next = footprint[j]
            if same_block(a, pcon, addr):
                return False
            j = j_next
        return not any(a is addr or (
            may_touch_blocks(a, pa, addr, geo, backend)
            and may_touch_blocks(addr, pcon, a, geo, backend))
            for a, pa in others)

    def holds(held: dict, addr: Expr, r: tuple[int, int]) -> bool:
        # Fewer keys than the range has blocks cannot cover it.
        lo, hi = r
        return addr in held.get(r, ()) or (
            hi - lo < len(held)
            and all((b, b) in held for b in range(lo, hi + 1)))

    kids = [0] * len(footprint)
    for *_, prev in footprint:
        if prev >= 0:
            kids[prev] += 1
    fixed = 0
    for bit in ahead.own:
        fixed |= bit
    # ``held`` after each branch point that another path still leaves.
    held: dict[tuple[int, int], frozenset[Expr]] = {}
    kept: dict[int, dict[tuple[int, int], frozenset[Expr]]] = {}
    last = -1
    for i, (pos, addr, pcon, prev) in enumerate(footprint):
        if prev < 0 and last >= 0:
            held = {}
        elif prev != last:
            kids[prev] -= 1
            held = kept.pop(prev) if kids[prev] == 1 else dict(kept[prev])
        r = geo.of(addr)[2]
        bit = ahead.own[pos]
        if fixed & bit and not holds(held, addr, r) and not cold(i):
            fixed &= ~bit
        for gone in [h for h in held if may_displace(r, h, n)]:
            del held[gone]
        if r not in exposed:
            exposed[r] = any(may_displace(f, r, n) for f in foreign)
        if not (exposed[r] or holds(held, addr, r)):
            held[r] = held.get(r, frozenset()) | {addr}
        if kids[i] > 1:
            kept[i] = dict(held)
        last = i
    return fixed


def _tau(addrs: list[Expr], i: int, geo: Geometry) -> Expr:
    if geo.cfg.assoc == 1:
        return hit_constraint(addrs, i, geo)
    return hit_constraint_assoc(addrs, i, geo)


def _project(model: dict[str, int],
             duplicated: tuple[str, ...]) -> dict[str, int]:
    return {n: model.get(n, 0) for n in duplicated}
