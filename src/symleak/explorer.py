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
critical blocks come from a footprint, the addresses the critical
thread computes running alone over every feasible branch arm, not from
declaration extents: an index past the end of an array reaches other
declarations' blocks.  Memory is kept per declaration, so a thread's
footprint covers every interleaving unless another thread stores to a
declaration the thread accesses; without the critical thread's, no
access counts as unobserved.

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
ones, with no report and no check (``_cold_sites``).  A critical access
is a cold miss when no access of another thread and no critical access
at a higher position (every earlier statement of the thread) can touch
its block.  The cache starts empty, so it misses under every secret,
on every path and in every order, with any associativity.  A site
settles when all its accesses are cold misses.  The accesses come from
each thread's footprint, so nothing settles unless every thread has
one.  Nor does anything settle when another thread accesses a
declaration with a symbolic base, which may lie on any block.  With
one thread settling closes no state early, so a single-thread search
runs no thread alone.

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

from .cache import (CacheConfig, Geometry, hit_constraint,
                    hit_constraint_assoc, may_same_line, may_touch_blocks)
from .detector import (LeakReport, VarClasses, classify, solve_precise,
                       solve_two_step, verdicts)
from .engine import (AccessEvent, BranchEvent, Code, SymbolicState,
                     branch_events, enabled_events, initial_state,
                     perform_access, take_branch)
from . import expr as ex
from .expr import Expr
from .ir import Fixed, If, Load, Program, Store, SymbolicBase
from .records import Frozen, Value, set_field
from .solver import SolverBackend


MODES = ("precise", "two_step")


class ExploreOptions(Frozen):
    __slots__ = ("mode", "max_interleavings")

    def __init__(self, mode: str = "precise",
                 max_interleavings: int | None = None) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, "
                             f"got {mode!r}")
        # A bound below one would stop the search before it starts and
        # pass bad input off as an incomplete search.
        if max_interleavings is not None and max_interleavings < 1:
            raise ValueError("max_interleavings must be at least 1, "
                             f"got {max_interleavings}")
        set_field(self, "mode", mode)
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
        # Critical sites that can never leak, never checked (_cold_sites).
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
                             opts: ExploreOptions, backend: SolverBackend,
                             stats: ExploreStats, geo: Geometry
                             ) -> LeakReport | None:
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
    classes = classify(p, st)
    tau = _tau([e.addr for e in tr], i, geo)
    res = _solve(backend, tau, st.pcon, classes, opts)
    if res.status == "unknown":
        stats.indeterminate += 1
        return None
    if res.status != "sat":
        return None
    v1, v2 = verdicts(tau, st.pcon, res)
    bases = [d.placement.var for d in p.decls
             if isinstance(d.placement, SymbolicBase)]
    shared = {n: res.model_a.get(n, 0) for n in bases[1:]}
    shared.update((n, res.model_a[n]) for n in st.fresh_public if n in res.model_a)
    return LeakReport(
        site=str(ev.site), access_index=i,
        schedule=tuple((e.tid, str(e.site)) for e in tr),
        k1=_project(res.model_a, classes), k2=_project(res.model_b, classes),
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
    observers = _Observers(st0, backend, geo)
    # The bits in ``ahead`` of the sites settled or reported.  Settling
    # closes nothing early with one thread, so a single-thread search
    # runs no thread alone.
    reported = (_cold_sites(st0, crit, ahead, observers, backend, geo)
                if len(st0.code) > 1 else 0)
    stats.sites_settled = reported.bit_count()

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
                                                  observers, geo)
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
                        leak = divergent_cache_behavior(p, f.st, ev, opts,
                                                        backend, stats, geo)
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
                        backend: SolverBackend, observers: _Observers,
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
    return not observers.commute(a, b)


class _Observers:
    """Which non-critical accesses no check can observe, for one search
    from ``st0``.  The critical thread's footprint is built on first
    use, here or by ``_cold_sites``; without one, every access counts as
    observed."""

    __slots__ = ("st0", "backend", "geo", "built", "footprint", "seen")

    def __init__(self, st0: SymbolicState, backend: SolverBackend,
                 geo: Geometry) -> None:
        self.st0 = st0
        self.geo = geo
        self.backend = backend
        self.built = False
        self.footprint: list[tuple[int, Expr, Expr]] | None = None
        self.seen: dict[Expr, bool] = {}  # per address: unobserved?

    def critical_footprint(self) -> list[tuple[int, Expr, Expr]] | None:
        if not self.built:
            st0 = self.st0
            self.footprint = _footprint(
                st0, st0.thread_pos(st0.program.critical_tid), self.geo.cfg,
                self.backend)
            self.built = True
        return self.footprint

    def commute(self, a: AccessEvent, b: AccessEvent) -> bool:
        """Are ``a`` and ``b`` unobserved accesses of different
        non-critical threads and different declarations?"""
        if (self.st0.program.critical_tid in (a.tid, b.tid) or a.tid == b.tid
                or a.decl.name == b.decl.name):
            return False
        return self._unobserved(a) and self._unobserved(b)

    def _unobserved(self, ev: AccessEvent) -> bool:
        if not isinstance(ev.decl.placement, Fixed):
            return False
        footprint = self.critical_footprint()
        if footprint is None:
            return False
        hit = self.seen.get(ev.addr)
        if hit is None:
            hit = self.seen[ev.addr] = not any(
                may_touch_blocks(addr, pcon, ev.addr, self.geo, self.backend)
                for _, addr, pcon in footprint)
        return hit


def _footprint(st0: SymbolicState, pos: int, cfg: CacheConfig,
               backend: SolverBackend) -> list[tuple[int, Expr, Expr]] | None:
    """Run the thread at position ``pos`` alone from ``st0`` over every
    feasible branch arm and collect (position in its numbered body,
    address, path constraint) of its accesses.  A branch arm whose
    feasibility is undecided is run.

    None when another thread stores to a declaration this thread
    accesses: memory is kept per declaration, so only then can the
    thread load other values, and compute other addresses, than alone.
    """
    p = st0.program
    touched = {s.decl for s, _ in st0.code[pos] if isinstance(s, (Load, Store))}
    for other, code in enumerate(st0.code):
        if other != pos and any(isinstance(s, Store) and s.decl in touched
                                for s, _ in code):
            return None
    t = p.threads[pos]
    alone = Program(p.decls, p.secret_inputs, p.public_inputs, (t,), t.tid)
    out: list[tuple[int, Expr, Expr]] = []
    todo = [initial_state(alone, cfg)]
    while todo:
        st = todo.pop()
        ev = st.next_events[0]
        if isinstance(ev, BranchEvent):
            for arm in (True, False):
                nxt = take_branch(st, ev, arm)
                if backend.check(nxt.pcon).status != "unsat":
                    todo.append(nxt)
        elif ev is not None:
            out.append((st.cursors[0], ev.addr, st.pcon))
            todo.append(perform_access(st, ev))
    return out


def _cold_sites(st0: SymbolicState, crit: int, ahead: _Ahead,
                observers: _Observers, backend: SolverBackend,
                geo: Geometry) -> int:
    """The bits in ``ahead`` of the sites to settle: those all of whose
    accesses are cold misses (module docstring).  The critical thread's
    footprint is the one ``observers`` reads.  Two accesses cannot share
    a block when either, under its path constraint, cannot touch the
    other's block range.  An earlier critical access on the same path
    has a path constraint the later one's implies, so its query takes
    both, which rules out the other arm of a branch.  A site's bit
    drops at its first warm access."""
    p = st0.program
    if any(isinstance(s, (Load, Store))
           and not isinstance(p.decl(s.decl).placement, Fixed)
           for pos, code in enumerate(st0.code) if pos != crit
           for s, _ in code):
        return 0
    footprint = observers.critical_footprint()
    if footprint is None:
        return 0
    others: list[tuple[int, Expr, Expr]] = []
    for pos in range(len(st0.code)):
        if pos != crit:
            fp = _footprint(st0, pos, geo.cfg, backend)
            if fp is None:
                return 0
            others += fp

    def may_share(a: Expr, pa: Expr, b: Expr, pb: Expr) -> bool:
        return a is b or (may_touch_blocks(a, pa, b, geo, backend)
                          and may_touch_blocks(b, pb, a, geo, backend))

    cold = 0
    for bit in ahead.own:
        cold |= bit
    for pos, addr, pcon in footprint:
        bit = ahead.own[pos]
        if cold & bit and (
                any(may_share(a, ex.and_(pa, pcon), addr, pcon)
                    for q, a, pa in footprint if q > pos)
                or any(may_share(a, pa, addr, pcon) for _, a, pa in others)):
            cold &= ~bit
    return cold


def _tau(addrs: list[Expr], i: int, geo: Geometry) -> Expr:
    if geo.cfg.assoc == 1:
        return hit_constraint(addrs, i, geo)
    return hit_constraint_assoc(addrs, i, geo)


def _solve(backend: SolverBackend, tau, pcon, classes: VarClasses,
           opts: ExploreOptions):
    if opts.mode == "two_step":
        return solve_two_step(backend, tau, pcon, classes)
    return solve_precise(backend, tau, pcon, classes)


def _project(model: dict[str, int], classes: VarClasses) -> dict[str, int]:
    return {n: model.get(n, 0) for n in classes.duplicated}
