"""One ``symleak analyze`` process, as the benchmark runner starts it.

Usage: python3 bench/child.py TIMING_FILE TRACE -- ANALYZE_ARGS...

Imports ``symleak.cli`` (PYTHONPATH must hold the checkout's ``src``),
notes the monotonic time just before calling ``cli.main``, runs it, and
writes ``{"main_at": ..., "exit": ..., "peak_anon_kb": ...}`` to
TIMING_FILE.  A run that crashes leaves no timing file.  With TRACE=1
it first wraps the pipeline's functions at the names their callers look
up, records one span per call, and adds the per-layer figures and span
counts to the timing file; nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
import sys
import time

import symleak.cli as cli


class Tracer:
    """Spans kept in memory: ``[name, parent index, start, end]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.results: dict[str, list] = {}

    def wrap(self, owner, attr: str, name: str, keep_result: bool = False,
             keep_args: bool = False) -> None:
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        kept = self.results.setdefault(name, [])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if keep_result or keep_args:
                kept.append((args if keep_args else None,
                             res if keep_result else None))
            return res

        setattr(owner, attr, traced)


def install(tr: Tracer) -> None:
    """Wrap each function under the name ``cli.run`` or the explorer's
    DFS looks it up by, since both bind them with ``from .x import y``."""
    from symleak import explorer, solver
    for attr, name in (("parse_program", "parser.parse"),
                       ("unroll_loops", "transform.unroll"),
                       ("confirm_report", "oracle.replay"),
                       ("write_report", "cli.report")):
        tr.wrap(cli, attr, name, keep_result=name in ("transform.unroll",
                                                      "cli.report"))
    tr.wrap(cli, "explore", "explorer.explore", keep_result=True)
    for attr in ("initial_state", "branch_events", "enabled_events",
                 "take_branch", "perform_access"):
        tr.wrap(explorer, attr, "engine." + attr)
    tr.wrap(explorer, "adversarial_access", "explorer.gate")
    tr.wrap(explorer, "_has_dependent_pair", "explorer.fork_dep")
    tr.wrap(explorer, "divergent_cache_behavior", "explorer.divergence",
            keep_result=True)
    tr.wrap(explorer, "may_same_line", "cache.may_same_line")
    tr.wrap(explorer, "hit_constraint", "cache.hit_constraint", keep_result=True)
    tr.wrap(explorer, "hit_constraint_assoc", "cache.hit_constraint_assoc",
            keep_result=True)
    for attr in ("classify", "solve_precise", "solve_two_step", "verdicts"):
        tr.wrap(explorer, attr, "detector." + attr)
    be = solver.EnumerativeBackend
    tr.wrap(be, "check", "solver.check", keep_result=True, keep_args=True)
    tr.wrap(be, "check_divergence", "solver.divergence", keep_result=True,
            keep_args=True)


def _accesses(stmts) -> int:
    from symleak.ir import If, Load, Store
    n = 0
    for s in stmts:
        if isinstance(s, (Load, Store)):
            n += 1
        elif isinstance(s, If):
            n += _accesses(s.then_body) + _accesses(s.else_body)
    return n


def _dag_nodes(roots) -> int:
    seen: set[int] = set()
    todo = list(roots)
    while todo:
        e = todo.pop()
        if id(e) not in seen:
            seen.add(id(e))
            todo.extend(e.args)
    return len(seen)


def _distinct_share(calls, key) -> float:
    """Distinct queries per call; ``key`` maps a call's arguments to the
    identities that make up the query."""
    return len({key(*args[1:]) for args, _ in calls}) / max(1, len(calls))


def layers(tr: Tracer) -> dict[str, float]:
    """Per-layer counts and times from the recorded spans.  ``*_s`` sums
    self time (a span's duration minus its children's), except the three
    ``explorer.*_checks``/``*_calls`` attributions, which sum the whole
    duration of the calls a parent span made."""
    from symleak import expr
    spans = tr.spans
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    by_parent: dict[tuple[str, str], list[float]] = {}
    for i, (name, parent, t0, t1) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
        pname = spans[parent][0] if parent >= 0 else ""
        by_parent.setdefault((pname, name), []).append(t1 - t0)

    def c(name: str) -> int:
        return calls.get(name, 0)

    def s(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def attributed(parent: str, name: str) -> tuple[int, float]:
        d = by_parent.get((parent, name), [])
        return len(d), sum(d)

    res = tr.results
    (_, stats), = [r for _, r in res["explorer.explore"]]
    unrolled = [r for _, r in res["transform.unroll"]]
    taus = [r for _, r in res["cache.hit_constraint"] + res["cache.hit_constraint_assoc"]]
    checks = res["solver.check"]
    divs = res["solver.divergence"]
    leak_checks = c("explorer.divergence")
    engine = [n for n in calls if n.startswith("engine.")]
    detector = [n for n in calls if n.startswith("detector.")]
    branch = attributed("explorer.explore", "solver.check")
    fork = attributed("explorer.fork_dep", "cache.may_same_line")
    gate = attributed("explorer.gate", "cache.may_same_line")
    msl_solver = len(by_parent.get(("cache.may_same_line", "solver.check"), []))
    report_text = res["cli.report"][-1][1] if res["cli.report"] else ""
    return {
        "parser.parse_s": s("parser.parse"),
        "transform.unroll_s": s("transform.unroll"),
        "transform.accesses": sum(_accesses(t.body) for p in unrolled
                                  for t in p.threads),
        "engine.calls": sum(c(n) for n in engine),
        "engine.self_s": s(*engine),
        "explorer.interleavings": stats.interleavings_explored,
        "explorer.states_forked": stats.states_forked,
        "explorer.leak_checks": stats.leak_checks,
        "explorer.self_s": s("explorer.explore", "explorer.gate",
                             "explorer.fork_dep", "explorer.divergence"),
        "explorer.branch_checks": branch[0],
        "explorer.branch_checks_s": branch[1],
        "explorer.fork_dep_calls": fork[0],
        "explorer.fork_dep_s": fork[1],
        "explorer.gate_calls": gate[0],
        "explorer.gate_s": gate[1],
        "cache.may_same_line_calls": c("cache.may_same_line"),
        "cache.may_same_line_s": s("cache.may_same_line"),
        "cache.may_same_line_solver_frac":
            msl_solver / max(1, c("cache.may_same_line")),
        "cache.hit_constraint_calls": c("cache.hit_constraint"),
        "cache.hit_constraint_s": s("cache.hit_constraint"),
        "cache.hit_constraint_per_check": len(taus) / max(1, leak_checks),
        "cache.tau_nodes": _dag_nodes(taus),
        "cache.hit_constraint_assoc_calls": c("cache.hit_constraint_assoc"),
        "cache.hit_constraint_assoc_s": s("cache.hit_constraint_assoc"),
        "detector.divergence_calls": c("detector.solve_precise")
                                     + c("detector.solve_two_step"),
        "detector.divergence_s": s(*detector),
        "detector.leak_frac":
            sum(r is not None for _, r in res["explorer.divergence"])
            / max(1, leak_checks),
        "solver.check_calls": len(checks),
        "solver.check_s": s("solver.check"),
        "solver.check_distinct_frac":
            _distinct_share(checks, lambda f, *_: id(f)),
        "solver.divergence_calls": len(divs),
        "solver.divergence_s": s("solver.divergence"),
        "solver.divergence_distinct_frac": _distinct_share(
            divs, lambda tau, pcon, dup, dist, *_: (id(tau), id(pcon),
                                                    tuple(dup), tuple(dist))),
        "solver.unknown": sum(r.status == "unknown" for _, r in checks + divs),
        "oracle.replay_calls": c("oracle.replay"),
        "oracle.replay_s": s("oracle.replay"),
        "expr.table_nodes": len(expr._table),
        "cli.report_bytes": len(report_text.encode()),
        "cli.report_s": s("cli.report"),
    }


def peak_anon_kb() -> int:
    """This process's peak RSS less its file-backed and shared pages now:
    the peak of its anonymous memory, when file pages were resident at
    the peak and still are.  ``VmHWM`` alone counts file-backed pages,
    such as numpy's shared libraries, which the kernel drops under
    memory pressure from outside (one run read 45 MB instead of 60 MB).
    Sampling ``RssAnon`` misses short allocation peaks (+-4% per sample).
    ``ru_maxrss``, from ``wait4`` or ``RUSAGE_SELF``, also counts the
    parent's RSS at the moment of spawning, which Linux carries across
    ``exec``."""
    status = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            status[key] = value
    return (int(status["VmHWM"].split()[0]) - int(status["RssFile"].split()[0])
            - int(status["RssShmem"].split()[0]))


def main(argv: list[str]) -> int:
    timing_file, trace, sep, *args = argv
    if sep != "--" or trace not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    tr = None
    if trace == "1":
        tr = Tracer()
        install(tr)
    main_at = time.monotonic()
    code = cli.main(args)
    out = {"main_at": main_at, "exit": code, "peak_anon_kb": peak_anon_kb()}
    if tr is not None and tr.results["explorer.explore"]:
        out["layers"] = layers(tr)
        out["spans"] = {}
        for name, *_ in tr.spans:
            out["spans"][name] = out["spans"].get(name, 0) + 1
    with open(timing_file, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
