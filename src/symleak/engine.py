"""Symbolic execution of a concurrent program, one memory access at a time.

The stepping model splits statements into three classes.  Register
assignments are invisible to other threads and run automatically until
every thread sits at a branch, a memory access or its end.  Branches
split the path: each arm contributes its condition to the path
constraint.  Loads and stores are the only scheduling points; when all
live threads sit at one, the caller picks which thread's access runs
next, and that choice is what the interleaving search enumerates.

``initial_state`` numbers each thread's unrolled body once
(``number_body``): every statement gets a position, and each position
holds its statement and its successor.  A thread's cursor is the
position of the statement it runs next, 0 once it has finished, so a
step moves it with one table lookup.  Every state derived from the
initial one shares its tables.

States are immutable.  Stepping functions return new states that share
structure with the old one, so a depth-first search can keep many open
states without copying register files.  A state also carries each
thread's next event: the branch at its cursor with the condition
lowered, or the access with its element index, address and stored
value lowered.  A step rebuilds only the moving thread's event, since
no other thread's registers or cursor change, and running an access
reuses the index its event holds.  So listing a state's pending
branches or enabled accesses builds no term.

Loads resolve their value in this order: the most recent store to the
same concrete cell, then the declaration's initial contents, then a
fresh unconstrained variable standing for whatever the cell held.  A
fresh variable read out of secret-typed memory is itself treated as a
secret downstream.  Symbolic-index stores clobber the whole array:
later reads that may touch it become fresh variables too.  Reads past
the end of an initialised array clamp to its last element.
"""

from __future__ import annotations

from . import expr as ex
from .cache import ADDR_WIDTH, CacheConfig, Site, probe_window
from .errors import UnrollError
from .expr import Expr
from .ir import (
    Assign,
    BinOp,
    Declaration,
    Fixed,
    For,
    If,
    IRExpr,
    Load,
    Name,
    Num,
    Program,
    Sensitivity,
    Stmt,
    Store,
    SymbolicBase,
)
from .records import Frozen, set_field

MASK32 = (1 << 32) - 1


# A thread's numbered body: entry ``pos`` holds the statement at
# position ``pos`` and its successor, the pair of its arms' first
# positions at a branch.  Entry 0, (None, 0), is the thread's end.
Code = tuple[tuple[Stmt | None, int | tuple[int, int]], ...]


def number_body(body: tuple[Stmt, ...]) -> Code:
    """Number every statement of an unrolled body, last first, so that
    the first statement has the highest position and every successor
    is lower than its statement's position.  Recursion is only as deep
    as the branches nest."""
    code: list = [(None, 0)]
    _number(code, body, 0)
    return tuple(code)


def _number(code: list, stmts: tuple[Stmt, ...], nxt: int) -> int:
    """Append ``stmts``, last first, to ``code``, the last one falling
    through to ``nxt``; return the first one's position.  A module-level
    function, not a closure: a nested recursive walk refers to itself
    through its own cell, a reference cycle that would keep ``code``
    alive until the cyclic collector runs."""
    for s in reversed(stmts):
        if isinstance(s, For):
            raise UnrollError("loops must be unrolled before execution")
        code.append((s, (_number(code, s.then_body, nxt),
                         _number(code, s.else_body, nxt))
                     if isinstance(s, If) else nxt))
        nxt = len(code) - 1
    return nxt


class AccessEvent(Frozen):
    """A memory access: element index, address and stored value are
    evaluated in the issuing thread's registers.  A state's next events
    are the accesses ready to run, and its trace the ones that ran."""

    __slots__ = ("tid", "kind", "decl", "addr", "value", "stmt", "site",
                 "index")

    def __init__(self, tid: int, kind: str, decl: Declaration, addr: Expr,
                 value: Expr | None, stmt: Stmt, site: Site,
                 index: Expr) -> None:
        set_field(self, "tid", tid)
        set_field(self, "kind", kind)  # "load" | "store"
        set_field(self, "decl", decl)
        set_field(self, "addr", addr)
        set_field(self, "value", value)
        set_field(self, "stmt", stmt)
        set_field(self, "site", site)
        set_field(self, "index", index)


class BranchEvent(Frozen):
    __slots__ = ("tid", "cond")

    def __init__(self, tid: int, cond: Expr) -> None:
        set_field(self, "tid", tid)
        set_field(self, "cond", cond)  # width 1, true-arm condition


class SymbolicState(Frozen):
    __slots__ = ("program", "code", "regs", "cursors", "pcon", "stores",
                 "trace", "fresh_secret", "fresh_public", "next_events")

    def __init__(self, program: Program, code: tuple[Code, ...],
                 regs: tuple[dict[str, Expr], ...],
                 cursors: tuple[int, ...], pcon: Expr,
                 stores: tuple[AccessEvent, ...],
                 trace: tuple[AccessEvent, ...],
                 fresh_secret: tuple[str, ...],
                 fresh_public: tuple[str, ...],
                 next_events: tuple[AccessEvent | BranchEvent | None, ...]
                 ) -> None:
        set_field(self, "program", program)
        # Numbered bodies by thread position, shared by every state of
        # one execution tree; a cursor is a position in its thread's.
        set_field(self, "code", code)
        # Register files by thread position.  Treated as copy-on-write:
        # never mutate a dict reachable from a state.
        set_field(self, "regs", regs)
        set_field(self, "cursors", cursors)
        set_field(self, "pcon", pcon)
        # The accesses run so far, in order, and the stores among them,
        # which a load scans.
        set_field(self, "stores", stores)
        set_field(self, "trace", trace)
        set_field(self, "fresh_secret", fresh_secret)
        set_field(self, "fresh_public", fresh_public)
        # By thread position, what the thread does next: the branch or
        # access at its cursor, built from its registers, or None once
        # it has finished (``next_event``).
        set_field(self, "next_events", next_events)

    def thread_pos(self, tid: int) -> int:
        for i, t in enumerate(self.program.threads):
            if t.tid == tid:
                return i
        raise KeyError(f"no thread {tid}")


def lower(e: IRExpr, env: dict[str, Expr]) -> Expr:
    """Translate a source expression to a 32-bit term over ``env``."""
    if isinstance(e, Num):
        return ex.const(e.value & MASK32, 32)
    if isinstance(e, Name):
        try:
            return env[e.ident]
        except KeyError:
            raise KeyError(f"unbound name {e.ident!r}") from None
    assert isinstance(e, BinOp)
    a = lower(e.lhs, env)
    b = lower(e.rhs, env)
    if e.op == "+":
        return ex.add(a, b)
    if e.op == "-":
        return ex.sub(a, b)
    if e.op == "&":
        return ex.and_(a, b)
    if e.op == "|":
        return ex.or_(a, b)
    if e.op == "^":
        return ex.xor(a, b)
    if e.op == "<<":
        return ex.shl(a, b)
    if e.op == ">>":
        return ex.lshr(a, b)
    # Comparisons yield 0 or 1 as a full-width value, like C.
    if e.op == "==":
        return ex.zext(ex.eq(a, b), 32)
    if e.op == "!=":
        return ex.zext(ex.ne(a, b), 32)
    if e.op == "<":
        return ex.zext(ex.ult(a, b), 32)
    if e.op == "<=":
        return ex.zext(ex.ule(a, b), 32)
    raise ValueError(f"unknown operator {e.op!r}")


def _base_expr(d: Declaration) -> Expr:
    if isinstance(d.placement, Fixed):
        return ex.const(d.placement.base & MASK32, ADDR_WIDTH)
    assert isinstance(d.placement, SymbolicBase)
    return ex.var(d.placement.var, ADDR_WIDTH)


def _address(d: Declaration, index: Expr) -> Expr:
    return ex.add(_base_expr(d), ex.mulc(index, d.elem_size))


def _truncate(value: Expr, elem_size: int) -> Expr:
    if elem_size >= 4:
        return value
    return ex.zext(ex.extract(value, 0, 8 * elem_size), 32)


def initial_state(p: Program, cfg: CacheConfig) -> SymbolicState:
    """Bind inputs, point every thread at its body, assume placement
    constraints for symbolically based declarations, then run the leading
    register assignments."""
    inputs: dict[str, Expr] = {}
    for s in p.secret_inputs:
        v = ex.var(s.name, s.width)
        inputs[s.name] = ex.zext(v, 32)
    for q in p.public_inputs:
        inputs[q.name] = ex.const(q.value & MASK32, 32)

    pcon = ex.TRUE
    for d in p.decls:
        if isinstance(d.placement, SymbolicBase):
            base = ex.var(d.placement.var, ADDR_WIDTH)
            if d.elem_size > 1:
                aligned = ex.eq(ex.and_(base, ex.const(d.elem_size - 1, ADDR_WIDTH)),
                                ex.const(0, ADDR_WIDTH))
                pcon = ex.and_(pcon, aligned)
            window = ex.ult(base, ex.const(probe_window(cfg), ADDR_WIDTH))
            pcon = ex.and_(pcon, window)

    code = tuple(number_body(t.body) for t in p.threads)
    settled = [_settle(p, t.tid, c, len(c) - 1, dict(inputs))
               for t, c in zip(p.threads, code)]
    return SymbolicState(
        program=p,
        code=code,
        regs=tuple(env for _, env, _ in settled),
        cursors=tuple(cur for cur, _, _ in settled),
        next_events=tuple(nxt for _, _, nxt in settled),
        pcon=pcon,
        stores=(),
        trace=(),
        fresh_secret=(),
        fresh_public=(),
    )


def _settle(p: Program, tid: int, code: Code, cur: int, env: dict[str, Expr]
            ) -> tuple[int, dict[str, Expr], AccessEvent | BranchEvent | None]:
    """Run one thread's register assignments until it rests at a branch,
    an access or its end.  Returns (cursor, registers, next event)."""
    s, succ = code[cur]
    while isinstance(s, Assign):
        env = {**env, s.dst: lower(s.expr, env)}
        cur = succ
        s, succ = code[cur]
    return cur, env, next_event(p, tid, s, env)


def next_event(p: Program, tid: int, s: Stmt | None,
               env: dict[str, Expr]) -> AccessEvent | BranchEvent | None:
    """What thread ``tid``, resting at statement ``s`` (None at its end)
    with registers ``env``, does next."""
    if isinstance(s, If):
        return BranchEvent(tid, ex.ne(lower(s.cond, env), ex.const(0, 32)))
    if s is None:
        return None
    d = p.decl(s.decl)
    index = lower(s.index, env)
    addr = _address(d, index)
    if isinstance(s, Load):
        return AccessEvent(tid, "load", d, addr, None, s,
                           Site(tid, s.line, "load", d.name), index)
    assert isinstance(s, Store)
    val = _truncate(lower(s.value, env), d.elem_size)
    return AccessEvent(tid, "store", d, addr, val, s,
                       Site(tid, s.line, "store", d.name), index)


def _moved(st: SymbolicState, pos: int, cur: int,
           env: dict[str, Expr]) -> tuple[tuple, tuple, tuple]:
    """Registers, cursors and next events of ``st`` after the thread at
    ``pos`` moved to ``cur`` with registers ``env``, then settled.  No
    other thread's next event changes: its registers and cursor did not."""
    cur, env, nxt = _settle(st.program, st.program.threads[pos].tid,
                            st.code[pos], cur, env)
    after = pos + 1
    return (st.regs[:pos] + (env,) + st.regs[after:],
            st.cursors[:pos] + (cur,) + st.cursors[after:],
            st.next_events[:pos] + (nxt,) + st.next_events[after:])


def branch_events(st: SymbolicState) -> tuple[BranchEvent, ...]:
    """Pending branches, ascending tid."""
    return tuple([e for e in st.next_events if isinstance(e, BranchEvent)])


def enabled_events(st: SymbolicState) -> tuple[AccessEvent, ...]:
    """Memory accesses ready to run, ascending tid.  Empty while some
    thread still sits at a branch."""
    out = []
    for e in st.next_events:
        if isinstance(e, BranchEvent):
            return ()
        if e is not None:
            out.append(e)
    return tuple(out)


def take_branch(st: SymbolicState, ev: BranchEvent, arm: bool) -> SymbolicState:
    """Commit one arm of a pending branch and run the locals it exposes.
    The caller is responsible for checking feasibility of the new path."""
    pos = st.thread_pos(ev.tid)
    cond = ev.cond if arm else ex.not_(ev.cond)
    arms = st.code[pos][st.cursors[pos]][1]
    regs, cursors, next_events = _moved(st, pos, arms[0 if arm else 1],
                                        st.regs[pos])
    return SymbolicState(
        program=st.program, code=st.code, regs=regs, cursors=cursors,
        next_events=next_events, pcon=ex.and_(st.pcon, cond),
        stores=st.stores, trace=st.trace,
        fresh_secret=st.fresh_secret, fresh_public=st.fresh_public,
    )


def _contents_value(d: Declaration, index: Expr) -> Expr:
    vals = d.contents
    mask = (1 << (8 * d.elem_size)) - 1
    if index.is_const:
        cell = index.value if index.value < d.length else d.length - 1
        return ex.const(vals[cell] & mask, 32)
    out = ex.const(vals[-1] & mask, 32)
    if all(v & mask == out.value for v in vals):
        return out  # a uniform table reads its fill at every index
    for i in range(d.length - 2, -1, -1):
        out = ex.ite(ex.eq(index, ex.const(i, 32)), ex.const(vals[i] & mask, 32), out)
    return out


def _load_value(st: SymbolicState, d: Declaration,
                index: Expr) -> tuple[Expr, str | None]:
    """Value produced by a load, and the name of the fresh variable it
    reads, if any.

    The stores are scanned newest-first; a clobber or a may-alias
    against a symbolic index gives up and reads an unconstrained value.
    A never-written cell reads ``cell_<decl>_<i>``, the same variable
    at every read.
    """
    cell = index.value if index.is_const else None
    for store in reversed(st.stores):
        if store.decl.name != d.name:
            continue
        if store.index.is_const and cell is not None:
            if store.index.value == cell:
                return store.value, None
            continue  # definitely a different cell
        # Symbolic store index, or symbolic load index over any store:
        # the cell's content is unknown here.
        name = f"ld{len(st.trace)}_{d.name}"
        return _fresh(d, name), name
    if d.contents is not None:
        return _contents_value(d, index), None
    if cell is not None:
        name = f"cell_{d.name}_{cell}"
        return _fresh(d, name), name
    name = f"ld{len(st.trace)}_{d.name}"
    return _fresh(d, name), name


def _fresh(d: Declaration, name: str) -> Expr:
    # A register holds 32 bits, so a wider cell reads as its low 32, as
    # stores (``_truncate``) and initial contents already treat it.
    return ex.zext(ex.var(name, min(8 * d.elem_size, 32)), 32)


def perform_access(st: SymbolicState, ev: AccessEvent) -> SymbolicState:
    """Run one enabled load or store, append it to the trace, and advance
    the issuing thread through its following register assignments."""
    pos = st.thread_pos(ev.tid)
    env = st.regs[pos]
    stores = st.stores
    fresh_secret = st.fresh_secret
    fresh_public = st.fresh_public

    if ev.kind == "load":
        assert isinstance(ev.stmt, Load)
        value, fresh_name = _load_value(st, ev.decl, ev.index)
        if fresh_name is not None and fresh_name not in fresh_secret + fresh_public:
            if ev.decl.sensitivity is Sensitivity.SECRET:
                fresh_secret = fresh_secret + (fresh_name,)
            else:
                fresh_public = fresh_public + (fresh_name,)
        env = {**env, ev.stmt.dst: value}
    else:
        stores = stores + (ev,)

    regs, cursors, next_events = _moved(st, pos,
                                        st.code[pos][st.cursors[pos]][1], env)
    return SymbolicState(
        program=st.program, code=st.code, regs=regs, cursors=cursors,
        next_events=next_events, pcon=st.pcon, stores=stores,
        trace=st.trace + (ev,), fresh_secret=fresh_secret,
        fresh_public=fresh_public,
    )
