"""Ground truth: concrete LRU simulation, replay, and brute-force search.

Everything here runs programs with ordinary integers and a real cache
model, no solver involved.  The symbolic pipeline is validated against
these functions: a reported witness must reproduce its two verdicts
here, and on small key spaces exhaustive enumeration must find exactly
the leaky sites the explorer finds.

Concrete semantics mirror the symbolic engine bit for bit: 32-bit
wrapping arithmetic, shifts of 32 or more yield zero, stores truncate
to the element size, reads of never-written cells take their value from
the declaration contents, then from the supplied cell environment, then
zero.  Reads past the end of an initialised array clamp to its last
element, as the symbolic ladder does.
"""

from __future__ import annotations

from itertools import product

from .cache import CacheConfig, Site, probe_window
from .errors import BruteForceCapError, ReplayError
from .ir import (Assign, BinOp, Declaration, Fixed, For, If, IRExpr, Load,
                 Name, Num, Program, Sensitivity, Stmt, Store, SymbolicBase)
from .records import Frozen, set_field

MASK32 = (1 << 32) - 1

# One verdict per executed access.
BehaviorSeq = list


class ConcreteCacheState(Frozen):
    """Per-set tag lists, most recently used first."""

    __slots__ = ("sets",)

    def __init__(self, sets: tuple[tuple[int, ...], ...]) -> None:
        set_field(self, "sets", sets)


def empty_cache(cfg: CacheConfig) -> ConcreteCacheState:
    return ConcreteCacheState(((),) * cfg.num_sets)


def simulate_access(st: ConcreteCacheState, addr: int,
                    cfg: CacheConfig) -> tuple[ConcreteCacheState, str]:
    """One load or store against the cache; stores allocate like loads."""
    block = addr >> cfg.line_bits
    idx = block % cfg.num_sets
    ways = st.sets[idx]
    if block in ways:
        new_ways = (block,) + tuple(t for t in ways if t != block)
        verdict = "hit"
    else:
        new_ways = (block,) + ways[:cfg.assoc - 1]
        verdict = "miss"
    sets = st.sets[:idx] + (new_ways,) + st.sets[idx + 1:]
    return ConcreteCacheState(sets), verdict


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


class _Run:
    """Concrete multi-thread execution, stepped one memory access at a
    time by the caller's schedule."""

    def __init__(self, p: Program, cfg: CacheConfig, inputs: dict[str, int],
                 cells: dict[tuple[str, int], int] | None = None):
        self.p = p
        self.cfg = cfg
        self.inputs = inputs
        self.cells = cells or {}
        base_env = {}
        for s in p.secret_inputs:
            if s.name not in inputs:
                raise ReplayError(f"missing value for secret input {s.name!r}")
            base_env[s.name] = inputs[s.name] & ((1 << s.width) - 1)
        for q in p.public_inputs:
            base_env[q.name] = q.value & ((1 << q.width) - 1)
        self.envs = [dict(base_env) for _ in p.threads]
        self.frames = [[(t.body, 0)] for t in p.threads]
        self.memory: dict[tuple[str, int], int] = {}
        self.cache = empty_cache(cfg)
        self.verdicts: list[tuple[int, str, str]] = []  # (tid, site, verdict)
        self.profile: list[bool] = []
        for i in range(len(p.threads)):
            self._advance(i)

    def _advance(self, pos: int) -> None:
        frames = self.frames[pos]
        env = self.envs[pos]
        while frames:
            body, at = frames[-1]
            if at >= len(body):
                frames.pop()
                continue
            s = body[at]
            if isinstance(s, Assign):
                env[s.dst] = _eval(s.expr, env)
                frames[-1] = (body, at + 1)
            elif isinstance(s, If):
                taken = _eval(s.cond, env) != 0
                self.profile.append(taken)
                frames[-1] = (body, at + 1)
                arm = s.then_body if taken else s.else_body
                if arm:
                    frames.append((arm, 0))
            elif isinstance(s, For):
                raise ReplayError(f"loop at line {s.line}: unroll before replay")
            else:
                return  # at a load/store
        return

    def pending(self) -> dict[int, Stmt]:
        out = {}
        for i, t in enumerate(self.p.threads):
            frames = self.frames[i]
            if frames:
                body, at = frames[-1]
                out[t.tid] = body[at]
        return out

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
        """First-read value of an unwritten cell.

        Witness models name such reads either per trace position
        (ld<pos>_<decl>, symbolic index during analysis) or per cell
        (cell_<decl>_<idx>); honour both spellings, then the explicit
        cell environment, then zero.
        """
        mask = (1 << (8 * d.elem_size)) - 1
        if d.contents is not None:
            cell = idx if idx < d.length else d.length - 1
            return d.contents[cell] & mask
        for name in (f"ld{pos}_{d.name}", f"cell_{d.name}_{idx}"):
            if name in self.inputs:
                return self.inputs[name] & mask
        return self.cells.get((d.name, idx), 0) & mask

    def step(self, tid: int) -> tuple[str, str]:
        """Execute thread tid's pending access; returns (site, verdict)."""
        pos = next((i for i, t in enumerate(self.p.threads) if t.tid == tid), None)
        if pos is None:
            raise ReplayError(f"no thread {tid}")
        frames = self.frames[pos]
        if not frames:
            raise ReplayError(f"thread {tid} has no pending access")
        body, at = frames[-1]
        s = body[at]
        env = self.envs[pos]
        d = self.p.decl(s.decl)
        idx = _eval(s.index, env)
        addr = (self._base(d) + idx * d.elem_size) & MASK32
        if isinstance(s, Load):
            if (d.name, idx) in self.memory:
                env[s.dst] = self.memory[(d.name, idx)]
            else:
                env[s.dst] = self._initial_cell(d, idx, len(self.verdicts))
        else:
            assert isinstance(s, Store)
            mask = (1 << (8 * d.elem_size)) - 1
            self.memory[(d.name, idx)] = _eval(s.value, env) & mask
        self.cache, verdict = simulate_access(self.cache, addr, self.cfg)
        site = str(Site(tid, s.line, "load" if isinstance(s, Load) else "store",
                        d.name))
        self.verdicts.append((tid, site, verdict))
        frames[-1] = (body, at + 1)
        self._advance(pos)
        return site, verdict


def replay(p: Program, inputs: dict[str, int], schedule, cfg: CacheConfig,
           critical_only: bool = False,
           cells: dict[tuple[str, int], int] | None = None) -> BehaviorSeq:
    """Run the program concretely, taking accesses in ``schedule`` order
    (a list of thread ids), and return the hit/miss sequence.

    The schedule may cover a prefix of the execution; an entry naming a
    thread with no pending access is an error.  With ``critical_only``
    the sequence is restricted to the critical thread's accesses.
    """
    run = _Run(p, cfg, inputs, cells)
    for tid in schedule:
        run.step(tid)
    return [v for (t, _, v) in run.verdicts
            if not critical_only or t == p.critical_tid]


def replay_trace(p: Program, inputs: dict[str, int], schedule,
                 cfg: CacheConfig,
                 cells: dict[tuple[str, int], int] | None = None
                 ) -> list[tuple[int, str, str]]:
    """Like replay, but keeps (tid, site, verdict) per access."""
    run = _Run(p, cfg, inputs, cells)
    for tid in schedule:
        run.step(tid)
    return list(run.verdicts)


def schedule_from_lines(p: Program, inputs: dict[str, int], lines,
                        cfg: CacheConfig,
                        cells: dict[tuple[str, int], int] | None = None
                        ) -> list[int]:
    """Turn a sequence of source line numbers into a thread schedule.

    At each step exactly one thread must have its pending access on the
    requested line; branch outcomes (hence which line is pending) come
    from ``inputs``.
    """
    run = _Run(p, cfg, inputs, cells)
    tids: list[int] = []
    for want in lines:
        here = [tid for tid, s in run.pending().items() if s.line == want]
        if not here:
            pend = sorted(s.line for s in run.pending().values())
            raise ReplayError(
                f"no pending access on line {want}; pending lines are {pend}")
        if len(here) > 1:
            raise ReplayError(f"line {want} is pending in threads {sorted(here)}")
        run.step(here[0])
        tids.append(here[0])
    return tids


def _secret_names(p: Program) -> list[tuple[str, int]]:
    """Secret dimensions and their widths: declared inputs plus every
    cell of an uninitialised secret declaration (spelled cell_<decl>_<i>
    so replay picks the values up directly)."""
    dims = [(s.name, s.width) for s in p.secret_inputs]
    for d in p.decls:
        if d.sensitivity is Sensitivity.SECRET and d.contents is None:
            dims.extend((f"cell_{d.name}_{i}", 8 * d.elem_size)
                        for i in range(d.length))
    return dims


def secret_bits(p: Program) -> int:
    """Total width of the secret space brute force would enumerate."""
    return sum(w for _, w in _secret_names(p))


def _secret_valuations(p: Program, key_bits: int):
    dims = _secret_names(p)
    total = sum(w for _, w in dims)
    if total > key_bits:
        raise BruteForceCapError(
            f"secret space is {total} bits, over the {key_bits}-bit cap")
    ranges = [range(1 << w) for _, w in dims]
    for combo in product(*ranges):
        yield dict(zip((n for n, _ in dims), combo))


def _candidate_bases(p: Program, cfg: CacheConfig) -> list[int]:
    """Line-aligned placements worth trying for a symbolic base.

    Below the highest fixed address a base can share a block with victim
    data, so every position is distinct.  Above it, only the cache set
    matters: two non-aliasing bases with equal set index produce
    isomorphic cache states on every run.  One representative per set
    suffices there.
    """
    window = probe_window(cfg)
    tops = [d.placement.base + d.byte_size for d in p.decls
            if isinstance(d.placement, Fixed)]
    alias_top = max(tops, default=0)
    span = cfg.num_sets * cfg.line_size
    return list(range(0, min(window, alias_top + span), cfg.line_size))


def _all_orders(p: Program, cfg: CacheConfig, inputs: dict[str, int],
                cells, cap: int) -> list[tuple[int, ...]]:
    """Every valid total order of accesses as a tid sequence, depth
    first.  A concrete run is restarted only where more than one thread
    has a pending access; while only one has, the run is extended in
    place."""
    orders: list[tuple[int, ...]] = []
    todo: list[tuple[int, ...]] = [()]
    while todo:
        prefix = todo.pop()
        run = _Run(p, cfg, inputs, cells)
        for tid in prefix:
            run.step(tid)
        en = sorted(run.pending())
        while len(en) == 1:
            run.step(en[0])
            prefix += (en[0],)
            en = sorted(run.pending())
        if not en:
            orders.append(prefix)
            if len(orders) > cap:
                raise BruteForceCapError(f"more than {cap} interleavings")
        todo.extend(prefix + (tid,) for tid in reversed(en))
    return orders


def brute_force_leaks(p: Program, cfg: CacheConfig, key_bits: int = 16,
                      max_orders: int = 4096,
                      cells: dict[tuple[str, int], int] | None = None
                      ) -> set[tuple[str, tuple[int, ...]]]:
    """Exhaustively find (site, schedule) pairs where two secret values
    disagree on a critical-thread verdict.

    Enumerates every secret valuation, every interleaving, and, when the
    program places something symbolically, every line-aligned base in
    the probe window.  Runs are grouped by schedule and branch profile;
    a divergence must show up within one group, i.e. under identical
    control flow and identical environment.
    """
    sym = [d for d in p.decls if isinstance(d.placement, SymbolicBase)]
    if len(sym) > 1:
        raise BruteForceCapError("at most one symbolic-base declaration supported")
    if sym:
        bases = _candidate_bases(p, cfg)
        base_var = sym[0].placement.var
    else:
        bases = (None,)
        base_var = None

    # Orders are structural for programs whose branch arms perform the
    # same number of accesses; probe two corner valuations to be safe.
    probes = [dict.fromkeys((s.name for s in p.secret_inputs), 0),
              {s.name: (1 << s.width) - 1 for s in p.secret_inputs}]
    orders: list[tuple[int, ...]] = []
    for pr in probes:
        if base_var is not None:
            pr = {**pr, base_var: 0}
        for o in _all_orders(p, cfg, pr, cells, max_orders):
            if o not in orders:
                orders.append(o)

    leaks: set[tuple[str, tuple[int, ...]]] = set()
    for base in bases:
        for order in orders:
            groups: dict[tuple, list[tuple[str, str]]] = {}
            for val in _secret_valuations(p, key_bits):
                inputs = dict(val)
                if base_var is not None:
                    inputs[base_var] = base
                run = _Run(p, cfg, inputs, cells)
                try:
                    for tid in order:
                        run.step(tid)
                except ReplayError:
                    continue  # order invalid under this valuation's branches
                if run.pending():
                    continue
                critical = [(s, v) for (t, s, v) in run.verdicts
                            if t == p.critical_tid]
                key = tuple(run.profile)
                ref = groups.setdefault(key, critical)
                if ref is not critical:
                    for (site, v0), (_, v1) in zip(ref, critical):
                        if v0 != v1:
                            leaks.add((site, order))
    return leaks
