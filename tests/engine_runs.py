"""One complete symbolic execution under a chosen schedule, for tests
that check the engine's states without running the search."""

from __future__ import annotations

from symleak.cache import CacheConfig
from symleak.engine import (SymbolicState, branch_events, enabled_events,
                            initial_state, perform_access, take_branch)
from symleak.ir import Program


def run_schedule(p: Program, cfg: CacheConfig, tids, arms=()) -> SymbolicState:
    """Drive one complete execution: take branch arms from ``arms`` (true
    when exhausted) and accesses in ``tids`` order (lowest enabled tid when
    exhausted)."""
    st = initial_state(p, cfg)
    arm_iter = iter(arms)
    tid_iter = iter(tids)
    while not st.finished:
        bes = branch_events(st)
        if bes:
            st = take_branch(st, bes[0], next(arm_iter, True))
            continue
        evs = enabled_events(st)
        if not evs:
            break
        want = next(tid_iter, None)
        if want is None:
            st = perform_access(st, evs[0])
            continue
        match = [e for e in evs if e.tid == want]
        if not match:
            raise ValueError(f"thread {want} has no enabled access")
        st = perform_access(st, match[0])
    return st
