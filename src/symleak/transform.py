"""Source-level transforms: bounded loop unrolling and adversary synthesis."""

from __future__ import annotations

from .cache import CacheConfig
from .errors import AdversaryError, UnrollError
from .ir import (Assign, BinOp, Declaration, For, If, IRExpr, Load, Name, Num,
                 Program, Sensitivity, Stmt, Store, SymbolicBase, Thread)

# Name of the register the synthesized adversary loads into.
ADV_REG = "adv_r"


def _subst_expr(e: IRExpr, env: dict[str, int]) -> IRExpr:
    if isinstance(e, Num):
        return e
    if isinstance(e, Name):
        if e.ident in env:
            return Num(env[e.ident])
        return e
    lhs = _subst_expr(e.lhs, env)
    rhs = _subst_expr(e.rhs, env)
    if lhs is e.lhs and rhs is e.rhs:
        return e
    return BinOp(e.op, lhs, rhs)


def _unroll_body(body: tuple[Stmt, ...], bound: int, env: dict[str, int]) -> tuple[Stmt, ...]:
    out: list[Stmt] = []
    for s in body:
        if isinstance(s, Assign):
            out.append(Assign(s.dst, _subst_expr(s.expr, env), s.line))
        elif isinstance(s, Load):
            out.append(Load(s.dst, s.decl, _subst_expr(s.index, env), s.line))
        elif isinstance(s, Store):
            out.append(Store(s.decl, _subst_expr(s.index, env),
                             _subst_expr(s.value, env), s.line))
        elif isinstance(s, If):
            out.append(If(_subst_expr(s.cond, env),
                          _unroll_body(s.then_body, bound, env),
                          _unroll_body(s.else_body, bound, env), s.line))
        elif isinstance(s, For):
            trip = s.hi - s.lo
            if trip > bound:
                raise UnrollError(
                    f"loop at line {s.line}: trip count {trip} exceeds bound {bound}")
            for i in range(s.lo, s.hi):
                out.extend(_unroll_body(s.body, bound, {**env, s.var: i}))
        else:
            raise AssertionError(f"unhandled statement {s!r}")
    return tuple(out)


def unroll_loops(p: Program, bound: int) -> Program:
    """Expand every loop into straight-line copies of its body.

    Loop variables become integer literals per iteration.  The result is
    loop free; applying the transform again is an identity.  Raises
    UnrollError when any trip count exceeds ``bound``.
    """
    threads = tuple(Thread(t.tid, _unroll_body(t.body, bound, {}))
                    for t in p.threads)
    if threads == p.threads:
        return p
    return Program(p.decls, p.secret_inputs, p.public_inputs, threads, p.critical_tid)


def synthesize_adversary(p: Program, cfg: CacheConfig) -> Program:
    """Add a one-load adversary thread whose address is left symbolic.

    The new scalar's base is a fresh 32-bit variable, so the analysis
    searches over adversary placements instead of requiring the caller
    to pick one.  Refuses when the program already has a thread besides
    the critical one: that thread is the adversary, given, not made.
    """
    if any(t.tid != p.critical_tid for t in p.threads):
        raise AdversaryError("program already contains an adversary thread")
    taken = {d.name for d in p.decls} | {s.name for s in p.secret_inputs} \
        | {q.name for q in p.public_inputs}
    name = "adv"
    n = 1
    while name in taken or f"{name}_base" in taken:
        n += 1
        name = f"adv{n}"
    decl = Declaration(name, "scalar", cfg.line_size, 1, SymbolicBase(f"{name}_base"),
                       Sensitivity.PUBLIC, (0,))
    tid = max(t.tid for t in p.threads) + 1
    thread = Thread(tid, (Load(ADV_REG, name, Num(0), 0),))
    return Program(p.decls + (decl,), p.secret_inputs, p.public_inputs,
                   p.threads + (thread,), p.critical_tid)
