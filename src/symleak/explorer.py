"""Depth-first search over paths and thread interleavings.

Branches fork unconditionally (both feasible arms are paths).  Every
state with more than one enabled access forks over the enabled threads,
and sleep sets (Godefroid 1996) prune the orders that only swap
independent accesses.  Two accesses are dependent when they come from
one thread, touch the same declaration (memory values), or may share a
cache set under the current path constraint (cache state); swapping two
independent ones changes neither memory nor any set's contents, so
every hit/miss verdict is the same.  A state's sleep set holds accesses
whose orders a sibling subtree already covered: each child keeps the
earlier siblings and inherited sleepers that are independent of the
access it takes, an access that becomes dependent wakes up, and a state
whose enabled accesses all sleep is abandoned.  A branch changes no
thread's next access, so both arms inherit the sleep set unchanged.
Without early termination the search therefore runs at least one
order of every Mazurkiewicz trace (class of orders equal up to swapping
independent accesses).

Before an access from the critical thread runs, if some earlier access
from another thread may share its cache set, the access is checked for
secret-dependent divergence.  Each leaky site gets one report: the
first witness the search finds, which is built only then, with the
number of choice sequences (below) in which the site leaked.  With
early termination, when some state on the path has two dependent
enabled accesses (so another class of orders exists), the rest of that
interleaving is skipped and counts as explored.  A later site that
leaks only in the skipped class is then not reported, so only the
search without early termination covers every class.

Interleavings are identified by the sequence of thread choices taken at
states with more than one enabled access.  Two executions with the same
choice sequence count as one interleaving, and as one leaky schedule of
a site, no matter which branch arms they took.  The open states live
on an explicit stack, so trace length is not bounded by Python's
recursion limit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

from .cache import (AccessRecord, CacheConfig, ReduceOptions, Trace,
                    hit_constraint, hit_constraint_assoc, may_same_line)
from .detector import (LeakReport, VarClasses, classify, solve_precise,
                       solve_two_step, verdicts)
from .engine import (AccessEvent, BranchEvent, SymbolicState, branch_events,
                     enabled_events, initial_state, perform_access,
                     take_branch)
from .ir import Program, SymbolicBase
from .solver import SolverBackend


@dataclass(frozen=True)
class ExploreOptions:
    mode: str = "precise"  # "precise" | "two_step"
    reductions: ReduceOptions = ReduceOptions()
    max_interleavings: int | None = None
    check_sequential: bool = True
    early_termination: bool = True
    solver_timeout_ms: int | None = None


@dataclass
class ExploreStats:
    interleavings_explored: int = 0
    leak_checks: int = 0
    solver_calls: int = 0  # queries issued, memo hits included
    solver_memo_hits: int = 0
    states_forked: int = 0
    indeterminate: int = 0
    complete: bool = True


class _Bounded(Exception):
    pass


@dataclass
class _Frame:
    """One open state of the depth-first search.  ``alts`` holds what is
    left to try there: both arms of ``branch``, or the awake enabled
    accesses.  ``sleep`` holds the inherited sleepers plus the accesses
    already taken from this state, whose orders are covered.  ``evs``
    holds every enabled access (asleep ones too) and ``deps`` the
    dependence of the pairs of them asked about so far, by thread ids."""

    st: SymbolicState
    choices: tuple[int, ...]
    sleep: list[AccessEvent]
    alts: list
    branch: BranchEvent | None = None
    evs: tuple[AccessEvent, ...] = ()
    deps: dict[tuple[int, int], bool] = field(default_factory=dict)
    tried: int = 0


def adversarial_access(p: Program, st: SymbolicState, ev: AccessEvent,
                       cfg: CacheConfig, backend: SolverBackend | None = None,
                       check_sequential: bool = True,
                       timeout_ms: int | None = None) -> bool:
    """Should this access be checked for divergence?

    Concurrent case: the access is from the critical thread and some
    earlier access of another thread may map to its cache set.  A
    single-threaded program has no interference, so every critical
    access is checked instead (that is what makes self-leaks visible).
    """
    if ev.tid != p.critical_tid:
        return False
    if len(p.threads) == 1:
        return check_sequential
    cand = _record(st, ev)
    for r in st.trace:
        if r.tid != ev.tid and may_same_line(r, cand, cfg, backend, timeout_ms):
            return True
    return False


def divergent_cache_behavior(p: Program, st: SymbolicState, ev: AccessEvent,
                             cfg: CacheConfig, opts: ExploreOptions,
                             backend: SolverBackend,
                             stats: ExploreStats | None = None
                             ) -> Callable[[], LeakReport] | None:
    """Build the hit constraint for ``ev`` over the trace so far and ask
    whether two secret valuations can disagree on it.

    The reductions in ``opts`` only drop terms that interval reasoning
    already decides, so the constraint is exact and one query answers.
    On a divergence the result builds the witness report when called, so
    a site that already has one costs nothing more.
    """
    i = len(st.trace)
    tr = st.trace + (_record(st, ev),)
    classes = classify(p, st)
    tau = _tau(tr, i, cfg, opts)
    res = _solve(backend, tau, st.pcon, classes, opts)
    if res.status == "unknown":
        if stats is not None:
            stats.indeterminate += 1
        return None
    if res.status != "sat":
        return None

    def report() -> LeakReport:
        v1, v2 = verdicts(tau, st.pcon, res)
        adv = None
        for d in p.decls:
            if isinstance(d.placement, SymbolicBase):
                adv = res.model_a.get(d.placement.var, 0)
                break
        return LeakReport(
            site=str(ev.site), access_index=i,
            schedule=tuple((r.tid, str(r.site)) for r in tr),
            k1=_project(res.model_a, classes), k2=_project(res.model_b, classes),
            adversary_addr=adv, verdict1=v1, verdict2=v2,
            mode=opts.mode,
        )
    return report


def explore(p: Program, cfg: CacheConfig, opts: ExploreOptions,
            backend: SolverBackend) -> tuple[list[LeakReport], ExploreStats]:
    stats = ExploreStats()
    reports: dict[str, LeakReport] = {}  # per site, its first witness
    leaky: dict[str, set[tuple[int, ...]]] = {}  # per site, choice sequences
    classes_seen: set[tuple] = set()
    calls_before, hits_before = backend.calls, backend.memo_hits

    def out_of_budget() -> bool:
        return (opts.max_interleavings is not None
                and len(classes_seen) >= opts.max_interleavings)

    def open_frame(st: SymbolicState, choices: tuple[int, ...],
                   sleep: list[AccessEvent]) -> _Frame | None:
        bes = branch_events(st)
        if bes:
            return _Frame(st, choices, sleep, [True, False], bes[0])
        evs = enabled_events(st)
        if not evs:
            classes_seen.add(choices)
            return None
        asleep = {u.tid for u in sleep}
        awake = [ev for ev in evs if ev.tid not in asleep]
        if not awake:
            return None  # a sibling subtree covered every order from here
        stats.states_forked += len(awake) - 1
        return _Frame(st, choices, list(sleep), awake, evs=tuple(evs))

    def dependent(f: _Frame, a: AccessEvent, b: AccessEvent) -> bool:
        key = (min(a.tid, b.tid), max(a.tid, b.tid))
        if key not in f.deps:
            f.deps[key] = _has_dependent_pair(f.st, a, b, cfg, backend, opts)
        return f.deps[key]

    def dependent_fork(f: _Frame) -> bool:
        return any(dependent(f, a, b)
                   for i, a in enumerate(f.evs) for b in f.evs[i + 1:])

    stack: list[_Frame] = []
    root = open_frame(initial_state(p, cfg), (), [])
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
                if backend.check(nxt.pcon,
                                 timeout_ms=opts.solver_timeout_ms).status == "unsat":
                    continue
                if f.tried:
                    stats.states_forked += 1
                    if out_of_budget():
                        raise _Bounded
                f.tried += 1
                child = open_frame(nxt, f.choices, f.sleep)
            else:
                ev = alt
                if f.tried and out_of_budget():
                    raise _Bounded
                f.tried += 1
                choices = f.choices + (ev.tid,) if len(f.evs) > 1 else f.choices
                earlier = f.sleep[:]
                # Also when a leak cuts its subtree off: in every sibling
                # where it stays asleep it would run after an independent
                # access, leak on the same hit constraint and be cut again,
                # as that sibling's path passes this state too.
                f.sleep.append(ev)
                if adversarial_access(p, f.st, ev, cfg, backend,
                                      opts.check_sequential,
                                      opts.solver_timeout_ms):
                    stats.leak_checks += 1
                    leak = divergent_cache_behavior(p, f.st, ev, cfg, opts,
                                                    backend, stats)
                    if leak is not None:
                        site = str(ev.site)
                        if site not in reports:
                            reports[site] = leak()
                        leaky.setdefault(site, set()).add(choices)
                        # Cut only below a state (this one or an
                        # ancestor, all on the stack) where two enabled
                        # accesses are dependent, so that another class of
                        # orders exists.  A path that forked only over
                        # independent accesses is the sole class of its
                        # branch arm and must run on, or later leaky sites
                        # would go unseen.  Even so, a later site that
                        # leaks only in this class is lost.
                        if (opts.early_termination
                                and any(dependent_fork(g) for g in stack)):
                            classes_seen.add(choices)
                            continue
                sleep = [u for u in earlier if not dependent(f, u, ev)]
                child = open_frame(perform_access(f.st, ev), choices, sleep)
            if child is not None:
                stack.append(child)
    except _Bounded:
        stats.complete = False
    stats.interleavings_explored = len(classes_seen)
    stats.solver_calls = backend.calls - calls_before
    stats.solver_memo_hits = backend.memo_hits - hits_before
    return [replace(r, leaky_schedules=len(leaky[site]))
            for site, r in reports.items()], stats


def _record(st: SymbolicState, ev: AccessEvent) -> AccessRecord:
    return AccessRecord(len(st.trace), ev.tid, ev.kind, ev.addr, st.pcon,
                        ev.site, ev.decl.name, ev.value)


def _has_dependent_pair(st: SymbolicState, a: AccessEvent, b: AccessEvent,
                        cfg: CacheConfig, backend: SolverBackend,
                        opts: ExploreOptions) -> bool:
    """May the order of two enabled accesses of different threads matter
    in ``st``?  They are dependent when they touch the same declaration
    (memory values) or may share a cache set under the current path
    (cache state)."""
    if a.decl.name == b.decl.name:
        return True
    return may_same_line(_record(st, a), _record(st, b), cfg, backend,
                         opts.solver_timeout_ms)


def _tau(tr: Trace, i: int, cfg: CacheConfig, opts: ExploreOptions):
    if cfg.assoc == 1:
        return hit_constraint(tr, i, cfg, opts.reductions)
    return hit_constraint_assoc(tr, i, cfg, opts.reductions)


def _solve(backend: SolverBackend, tau, pcon, classes: VarClasses,
           opts: ExploreOptions):
    if opts.mode == "two_step":
        return solve_two_step(backend, tau, pcon, classes, opts.solver_timeout_ms)
    return solve_precise(backend, tau, pcon, classes, opts.solver_timeout_ms)


def _project(model: dict[str, int], classes: VarClasses) -> dict[str, int]:
    return {n: model.get(n, 0) for n in classes.duplicated}
