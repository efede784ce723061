"""Source-level transform: bounded loop unrolling.

Adversary synthesis, the other transform ``analyze`` can apply, lives
in ``symleak.adversary``, which loads only under ``--adversary
synthesize``.
"""

from __future__ import annotations

from .errors import UnrollError
from .ir import (Assign, BinOp, For, If, IRExpr, Load, Name, Num, Program,
                 Stmt, Store, Thread)


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
