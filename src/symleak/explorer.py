"""Depth-first search over paths and thread interleavings.

Branches fork unconditionally (both feasible arms are paths).  Thread
schedules fork only at states where two enabled accesses could interfere
in the cache; everywhere else the lowest-numbered thread runs and the
other orders, being observably equal, are never generated.  Before an
access from the critical thread runs, if some earlier access from
another thread may share its cache set, the access is checked for
secret-dependent divergence; a confirmed divergence becomes a report
and, when sibling schedules exist to re-cover the remaining accesses,
the rest of that interleaving is skipped.

Interleavings are identified by the sequence of thread choices taken at
schedule-fork states.  Two executions with the same choice sequence are
one interleaving for counting and deduplication purposes, no matter
which branch arms they took.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import (AccessRecord, CacheConfig, ReduceOptions, Trace,
                    hit_constraint, hit_constraint_assoc, may_same_line)
from .detector import (LeakReport, VarClasses, classify, solve_precise,
                       solve_two_step, verdicts)
from .engine import (AccessEvent, SymbolicState, branch_events, enabled_events,
                     initial_state, perform_access, take_branch)
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
                             stats: ExploreStats | None = None) -> LeakReport | None:
    """Build the hit constraint for ``ev`` over the trace so far and ask
    whether two secret valuations can disagree on it.

    The reductions in ``opts`` only drop terms that interval reasoning
    already decides, so the constraint is exact and one query answers.
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
    v1, v2 = verdicts(tau, st.pcon, res)
    schedule = tuple((r.tid, str(r.site)) for r in tr)
    adv = None
    for d in p.decls:
        if isinstance(d.placement, SymbolicBase):
            adv = res.model_a.get(d.placement.var, 0)
            break
    return LeakReport(
        site=str(ev.site), access_index=i, schedule=schedule,
        k1=_project(res.model_a, classes), k2=_project(res.model_b, classes),
        adversary_addr=adv, verdict1=v1, verdict2=v2,
        mode=opts.mode,
    )


def explore(p: Program, cfg: CacheConfig, opts: ExploreOptions,
            backend: SolverBackend) -> tuple[list[LeakReport], ExploreStats]:
    stats = ExploreStats()
    reports: list[LeakReport] = []
    seen_keys: set[tuple] = set()
    classes_seen: set[tuple] = set()
    calls_before, hits_before = backend.calls, backend.memo_hits

    def out_of_budget() -> bool:
        return (opts.max_interleavings is not None
                and len(classes_seen) >= opts.max_interleavings)

    def dfs(st: SymbolicState, choices: tuple[int, ...]) -> None:
        bes = branch_events(st)
        if bes:
            ev = bes[0]
            first = True
            for arm in (True, False):
                nxt = take_branch(st, ev, arm)
                if nxt.pcon.is_const and not nxt.pcon.value:
                    continue
                if backend.check(nxt.pcon,
                                 timeout_ms=opts.solver_timeout_ms).status == "unsat":
                    continue
                if not first:
                    stats.states_forked += 1
                    if out_of_budget():
                        raise _Bounded
                first = False
                dfs(nxt, choices)
            return
        evs = enabled_events(st)
        if not evs:
            classes_seen.add(choices)
            return
        fork = len(evs) > 1 and _has_dependent_pair(st, evs, cfg, backend, opts)
        to_run = evs if fork else evs[:1]
        stats.states_forked += len(to_run) - 1
        for pos, ev in enumerate(to_run):
            if pos and out_of_budget():
                raise _Bounded
            child = choices + (ev.tid,) if fork else choices
            if adversarial_access(p, st, ev, cfg, backend,
                                  opts.check_sequential, opts.solver_timeout_ms):
                stats.leak_checks += 1
                report = divergent_cache_behavior(p, st, ev, cfg, opts,
                                                  backend, stats)
                if report is not None:
                    key = (report.site, child)
                    if key not in seen_keys:
                        seen_keys.add(key)
                        reports.append(report)
                    # Pruning is sound only when a schedule-fork point
                    # exists: sibling orders then re-execute the skipped
                    # accesses.  A never-forked path is the sole
                    # interleaving of its branch arm, so it must run on
                    # or later leaky sites would go unseen.
                    if opts.early_termination and (fork or choices):
                        classes_seen.add(child)
                        continue
            dfs(perform_access(st, ev), child)

    try:
        dfs(initial_state(p, cfg), ())
    except _Bounded:
        stats.complete = False
    stats.interleavings_explored = len(classes_seen)
    stats.solver_calls = backend.calls - calls_before
    stats.solver_memo_hits = backend.memo_hits - hits_before
    return reports, stats


def _record(st: SymbolicState, ev: AccessEvent) -> AccessRecord:
    return AccessRecord(len(st.trace), ev.tid, ev.kind, ev.addr, st.pcon,
                        ev.site, ev.decl.name, ev.value)


def _has_dependent_pair(st: SymbolicState, evs, cfg: CacheConfig,
                        backend: SolverBackend, opts: ExploreOptions) -> bool:
    recs = [_record(st, ev) for ev in evs]
    for a in range(len(recs)):
        for b in range(a + 1, len(recs)):
            if recs[a].decl == recs[b].decl:
                return True
            if may_same_line(recs[a], recs[b], cfg, backend,
                             opts.solver_timeout_ms):
                return True
    return False


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
