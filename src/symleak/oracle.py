"""Ground truth: concrete LRU simulation and replay.

Everything here runs programs with ordinary integers and a real cache
model, no solver involved.  The symbolic pipeline is validated against
these functions: a reported witness must reproduce its two verdicts
here, and ``symleak.bruteforce`` steps the same concrete runs through
every schedule to find, on small key spaces, exactly the leaky sites
the explorer finds.

Concrete semantics mirror the symbolic engine bit for bit: 32-bit
wrapping arithmetic, shifts of 32 or more yield zero, stores truncate
to the element size, reads of never-written cells take their value from
the declaration contents, then from the supplied cell environment, then
zero.  Reads past the end of an initialised array clamp to its last
element, as the symbolic ladder does.
"""

from __future__ import annotations

from .cache import CacheConfig
from .engine import Code, number_body
from .errors import ReplayError, UnrollError
from .ir import (Assign, BinOp, Declaration, Fixed, If, IRExpr, Load, Name,
                 Num, Program, Stmt, Store, SymbolicBase, cell_var, load_var,
                 site)
from .records import Frozen, set_field

MASK32 = (1 << 32) - 1


class ConcreteCacheState(Frozen):
    """Per-set tag lists, most recently used first; untouched sets absent."""

    __slots__ = ("sets",)

    def __init__(self, sets: dict[int, tuple[int, ...]]) -> None:
        set_field(self, "sets", sets)


def empty_cache() -> ConcreteCacheState:
    return ConcreteCacheState({})


def simulate_access(st: ConcreteCacheState, addr: int,
                    cfg: CacheConfig) -> tuple[ConcreteCacheState, str]:
    """One load or store against the cache; stores allocate like loads."""
    block = addr >> cfg.line_bits
    idx = block % cfg.num_sets
    ways = st.sets.get(idx, ())
    if block in ways:
        new_ways = (block,) + tuple(t for t in ways if t != block)
        verdict = "hit"
    else:
        new_ways = (block,) + ways[:cfg.assoc - 1]
        verdict = "miss"
    return ConcreteCacheState({**st.sets, idx: new_ways}), verdict


def _eval(e: IRExpr, env: dict[str, int]) -> int:
    if isinstance(e, Num):
        return e.value & MASK32
    if isinstance(e, Name):
        try:
            return env[e.ident]
        except KeyError:
            raise ReplayError(f"unbound name {e.ident!r}") from None
    assert isinstance(e, BinOp)
    a = _eval(e.lhs, env)
    b = _eval(e.rhs, env)
    if e.op == "+":
        return (a + b) & MASK32
    if e.op == "-":
        return (a - b) & MASK32
    if e.op == "&":
        return a & b
    if e.op == "|":
        return a | b
    if e.op == "^":
        return a ^ b
    if e.op == "<<":
        return (a << b) & MASK32 if b < 32 else 0
    if e.op == ">>":
        return a >> b if b < 32 else 0
    if e.op == "==":
        return int(a == b)
    if e.op == "!=":
        return int(a != b)
    if e.op == "<":
        return int(a < b)
    if e.op == "<=":
        return int(a <= b)
    raise ReplayError(f"unknown operator {e.op!r}")


def _numbered(p: Program) -> tuple[Code, ...]:
    try:
        return tuple(number_body(t.body) for t in p.threads)
    except UnrollError:
        raise ReplayError("the program has a loop: unroll before replay") from None


class _Run:
    """Concrete multi-thread execution, stepped one memory access at a
    time by the caller's schedule.  Each thread's body is numbered as the
    engine numbers it (``engine.number_body``), and runs may share the
    numbering.  A step replaces, never mutates, what it changes, so a
    copy of a run shares all it holds."""

    __slots__ = ("p", "cfg", "inputs", "code", "cursors", "envs",
                 "memory", "cache", "profile", "schedule")

    def __init__(self, p: Program, cfg: CacheConfig, inputs: dict[str, int],
                 code: tuple[Code, ...] | None = None):
        self.p = p
        self.cfg = cfg
        self.inputs = inputs
        base_env = {}
        for s in p.secret_inputs:
            if s.name not in inputs:
                raise ReplayError(f"missing value for secret input {s.name!r}")
            base_env[s.name] = inputs[s.name] & ((1 << s.width) - 1)
        for q in p.public_inputs:
            base_env[q.name] = q.value & ((1 << q.width) - 1)
        self.code = code or _numbered(p)
        self.cursors = tuple(len(c) - 1 for c in self.code)
        self.envs = (base_env,) * len(p.threads)
        self.memory: dict[tuple[str, int], int] = {}
        self.cache = empty_cache()
        self.profile: tuple[bool, ...] = ()  # branch outcomes, in order
        self.schedule: tuple[int, ...] = ()  # tids of the accesses run
        for i, cur in enumerate(self.cursors):
            self._settle(i, cur, dict(base_env))

    def _settle(self, pos: int, cur: int, env: dict[str, int]) -> None:
        """Run thread ``pos`` from ``cur`` up to its next access or end."""
        code = self.code[pos]
        s, succ = code[cur]
        while isinstance(s, (Assign, If)):
            if isinstance(s, Assign):
                env[s.dst] = _eval(s.expr, env)
                cur = succ
            else:
                taken = _eval(s.cond, env) != 0
                self.profile += (taken,)
                cur = succ[0 if taken else 1]
            s, succ = code[cur]
        self.cursors = self.cursors[:pos] + (cur,) + self.cursors[pos + 1:]
        self.envs = self.envs[:pos] + (env,) + self.envs[pos + 1:]

    def pending(self) -> dict[int, Stmt]:
        return {t.tid: code[cur][0] for t, code, cur
                in zip(self.p.threads, self.code, self.cursors) if cur}

    def state(self) -> tuple:
        """All that the run's future depends on besides its inputs."""
        return (self.cursors, tuple(frozenset(e.items()) for e in self.envs),
                frozenset(self.memory.items()),
                frozenset(self.cache.sets.items()), self.profile,
                len(self.schedule))  # names load_var reads

    def _base(self, d: Declaration) -> int:
        if isinstance(d.placement, Fixed):
            return d.placement.base
        assert isinstance(d.placement, SymbolicBase)
        try:
            return self.inputs[d.placement.var] & MASK32
        except KeyError:
            raise ReplayError(
                f"no concrete value for symbolic base {d.placement.var!r}") from None

    def _initial_cell(self, d: Declaration, idx: int, pos: int) -> int:
        """First-read value of an unwritten cell: the input named by the
        read's ``load_var``, else by the cell's ``cell_var``, else zero."""
        mask = (1 << (8 * d.elem_size)) - 1
        if d.contents is not None:
            cell = idx if idx < d.length else d.length - 1
            return d.contents[cell] & mask
        for name in (load_var(pos, d.name), cell_var(d.name, idx)):
            if name in self.inputs:
                return self.inputs[name] & mask
        return 0

    def step(self, tid: int) -> tuple[str, str]:
        """Execute thread tid's pending access; returns (site, verdict)."""
        pos = next((i for i, t in enumerate(self.p.threads) if t.tid == tid), None)
        if pos is None:
            raise ReplayError(f"no thread {tid}")
        s, succ = self.code[pos][self.cursors[pos]]
        if s is None:
            raise ReplayError(f"thread {tid} has no pending access")
        env = dict(self.envs[pos])
        d = self.p.decl(s.decl)
        idx = _eval(s.index, env)
        addr = (self._base(d) + idx * d.elem_size) & MASK32
        if isinstance(s, Load):
            if (d.name, idx) in self.memory:
                env[s.dst] = self.memory[(d.name, idx)]
            else:
                env[s.dst] = self._initial_cell(d, idx, len(self.schedule))
        else:
            assert isinstance(s, Store)
            mask = (1 << (8 * d.elem_size)) - 1
            self.memory = {**self.memory, (d.name, idx): _eval(s.value, env) & mask}
        self.cache, verdict = simulate_access(self.cache, addr, self.cfg)
        self.schedule += (tid,)
        self._settle(pos, succ, env)
        return site(tid, s), verdict


def replay(p: Program, inputs: dict[str, int], schedule,
           cfg: CacheConfig) -> list[str]:
    """Run the program concretely, taking accesses in ``schedule`` order
    (a list of thread ids), and return the hit/miss sequence.

    The schedule may cover a prefix of the execution; an entry naming a
    thread with no pending access is an error.
    """
    return [v for (_, _, v) in replay_trace(p, inputs, schedule, cfg)]


def replay_trace(p: Program, inputs: dict[str, int], schedule,
                 cfg: CacheConfig) -> list[tuple[int, str, str]]:
    """Like replay, but keeps (tid, site, verdict) per access."""
    run = _Run(p, cfg, inputs)
    return [(tid, *run.step(tid)) for tid in schedule]
