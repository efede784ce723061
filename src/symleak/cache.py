"""Cache geometry and symbolic hit/miss constraints.

A direct-mapped set holds one block, so an access hits exactly when the
most recent earlier access to its set touched its block.  That is a
chain of if-then-else terms, one per predecessor, linear in the trace
length.  For a W-way LRU cache the block survives as long as fewer than
W distinct other blocks mapped to its set were touched since it was last
loaded.  One scan from the newest predecessor to the oldest keeps that
count as a bitvector sum, counting each other block at its last access
before the probed one, so the constraint is quadratic in the trace
length and needs no bound on it.

Both encodings are pruned with interval reasoning over address
ranges.  Every pruning is exact: it drops only terms whose value the
intervals already decide.  All interval reasoning lives here, not in
the expression folders.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import expr as ex
from .errors import ConfigError
from .expr import Expr
from .records import Frozen, Value, set_field

ADDR_WIDTH = 32


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


class CacheConfig(Value, Frozen):
    """An LRU cache: size in bytes, line size in bytes and associativity
    (ways)."""

    __slots__ = ("cache_size", "line_size", "assoc")

    def __init__(self, cache_size: int = 65536, line_size: int = 64,
                 assoc: int = 1) -> None:
        if not (_is_pow2(cache_size) and _is_pow2(line_size) and _is_pow2(assoc)):
            raise ConfigError("cache_size, line_size and assoc must be powers of two")
        if line_size * assoc > cache_size:
            raise ConfigError("cache smaller than one set")
        set_field(self, "cache_size", cache_size)
        set_field(self, "line_size", line_size)
        set_field(self, "assoc", assoc)

    @property
    def num_sets(self) -> int:
        return self.cache_size // (self.line_size * self.assoc)

    @property
    def line_bits(self) -> int:
        return self.line_size.bit_length() - 1


def probe_window(cfg: CacheConfig) -> int:
    """Upper bound for symbolically placed base addresses.

    Four times the cache covers every distinct set/tag relation an attacker
    placement can realise, and keeps enumeration over candidate bases small.
    """
    return 4 * cfg.cache_size


def tag(addr: Expr, cfg: CacheConfig) -> Expr:
    """Block number of an address; equal tags mean the same memory block."""
    return ex.lshr(addr, ex.const(cfg.line_bits, addr.width))


def line(addr: Expr, cfg: CacheConfig) -> Expr:
    """Cache set index of an address."""
    return ex.and_(tag(addr, cfg), ex.const(cfg.num_sets - 1, addr.width))


# ---------------------------------------------------------------------------
# Interval analysis (unsigned, conservative)

_COMPARISONS = (ex.Op.EQ, ex.Op.NE, ex.Op.ULT, ex.Op.ULE)


def interval(e: Expr, memo: dict[Expr, tuple[int, int]]) -> tuple[int, int]:
    """Conservative unsigned bounds of e, ignoring path conditions.
    ``memo`` holds the bounds of every node visited so far and gains
    those of this call."""
    for node in ex.postorder([e], memo):
        memo[node] = _interval_node(node, memo)
    return memo[e]


def _interval_node(e: Expr, memo: dict[Expr, tuple[int, int]]) -> tuple[int, int]:
    mask = (1 << e.width) - 1
    full = (0, mask)
    op = e.op
    if op is ex.Op.CONST:
        return (e.value, e.value)
    if op is ex.Op.VAR:
        return full
    if op in _COMPARISONS:
        return (0, 1)
    if op is ex.Op.ITE:
        (a0, a1), (b0, b1) = memo[e.args[1]], memo[e.args[2]]
        return (min(a0, b0), max(a1, b1))
    a0, a1 = memo[e.args[0]]
    if op is ex.Op.ZEXT:
        return (a0, a1)
    if op is ex.Op.MULC:
        out = (a0 * e.value, a1 * e.value)
        return full if out[1] > mask else out
    if op is ex.Op.EXTRACT:
        return (a0, a1) if e.value == 0 and a1 <= mask else full
    if op is ex.Op.SHL:
        b = e.args[1]
        if b.is_const and (a1 << b.value) <= mask:
            return (a0 << b.value, a1 << b.value)
        return full
    if op is ex.Op.LSHR:
        b = e.args[1]
        return (a0 >> b.value, a1 >> b.value) if b.is_const else (0, a1)
    b0, b1 = memo[e.args[1]]
    if op is ex.Op.ADD:
        lo, hi = a0 + b0, a1 + b1
        if hi <= mask:
            return (lo, hi)
        if hi - lo >= mask or (lo & mask) > (hi & mask):
            return full
        return (lo & mask, hi & mask)
    if op is ex.Op.SUB:
        lo, hi = a0 - b1, a1 - b0
        if lo >= 0:
            return (lo, hi)
        if hi < 0 and (lo & mask) <= (hi & mask):
            return (lo & mask, hi & mask)
        return full
    if op is ex.Op.AND:
        return (0, min(a1, b1))
    if op is ex.Op.OR or op is ex.Op.XOR:
        return (0, (1 << max(a1.bit_length(), b1.bit_length())) - 1)
    return full


def _set_offsets(a: tuple[int, int], b: tuple[int, int],
                 num_sets: int) -> tuple[int, int]:
    """The range ``(lo, hi)`` of k for which a block in range ``a`` and
    one in range ``b`` can differ by k * num_sets, empty when lo > hi.
    The two may share a set iff lo <= hi, may be the same block iff
    lo <= 0 <= hi, and may be different blocks of one set iff lo <= hi
    and (lo, hi) != (0, 0)."""
    return -((b[1] - a[0]) // num_sets), (a[1] - b[0]) // num_sets


def may_displace(a: tuple[int, int], b: tuple[int, int],
                 num_sets: int) -> bool:
    """Can an access in block range ``a`` put into the set of a block in
    range ``b`` a block other than that one?  Not when no block of ``a``
    shares a set with one of ``b``, nor when two that share one are
    always the same block (``_set_offsets`` is (0, 0)).  An access that
    cannot displace a block, at any associativity, leaves it cached."""
    lo, hi = _set_offsets(a, b, num_sets)
    return lo <= hi and (lo, hi) != (0, 0)


class Geometry:
    """Tag, set index and block range of each address under one cache
    configuration, each computed once, with the interval bounds behind
    the block ranges.  Every function below that reads geometry takes
    one.  A search owns one table and drops it when it ends, so nothing
    here outlives its caller or depends on what the process built
    before."""

    __slots__ = ("cfg", "num_sets", "_memo", "_bounds")

    def __init__(self, cfg: CacheConfig) -> None:
        self.cfg = cfg
        self.num_sets = cfg.num_sets
        self._memo: dict[Expr, tuple[Expr, Expr, tuple[int, int]]] = {}
        self._bounds: dict[Expr, tuple[int, int]] = {}

    def of(self, addr: Expr) -> tuple[Expr, Expr, tuple[int, int]]:
        """(tag, set index, block range) of ``addr``."""
        g = self._memo.get(addr)
        if g is None:
            cfg = self.cfg
            lo, hi = interval(addr, self._bounds)
            g = self._memo[addr] = (tag(addr, cfg), line(addr, cfg),
                                    (lo >> cfg.line_bits, hi >> cfg.line_bits))
        return g


# ---------------------------------------------------------------------------
# Hit constraints

def hit_constraint(addrs: Sequence[Expr], i: int, geo: Geometry) -> Expr:
    """Direct-mapped hit condition for the access at ``addrs[i]`` after
    the accesses at ``addrs[:i]``, under ``geo``'s configuration.

    The chain ``h = ite(line_j == line_i, tag_j == tag_i, h)`` is folded
    from the oldest predecessor j to the newest, starting from false:
    the cache starts empty.  Predecessors are scanned most recent first
    and the scan stops at the first whose set equality is literally
    true, since nothing older can reach access i.  A predecessor that
    can never share the set is skipped, one that provably touches
    another block gets a false block equality, and one that cannot
    displace access i's block (``may_displace``) a true one.
    """
    n = geo.num_sets
    t_i, l_i, b_i = geo.of(addrs[i])
    links: list[tuple[Expr, Expr]] = []
    for j in range(i - 1, -1, -1):
        t_j, l_j, b_j = geo.of(addrs[j])
        lo, hi = _set_offsets(b_j, b_i, n)
        if lo > hi:
            continue
        same_set = ex.eq(l_j, l_i)
        if same_set is ex.FALSE:
            continue
        if not may_displace(b_j, b_i, n):
            same_block = ex.TRUE  # within one set the blocks are equal
        elif lo <= 0 <= hi:
            same_block = ex.eq(t_j, t_i)
        else:
            same_block = ex.FALSE
        links.append((same_set, same_block))
        if same_set is ex.TRUE:
            break
    h = ex.FALSE
    for same_set, same_block in reversed(links):
        h = ex.ite(same_set, same_block, h)
    return h


def hit_constraint_assoc(addrs: Sequence[Expr], i: int,
                         geo: Geometry) -> Expr:
    """W-way LRU hit condition for the access at ``addrs[i]``.

    Access i hits when some earlier access j touched its block and fewer
    than W distinct other blocks of its set were touched in (j, i).  One
    scan from the newest predecessor to the oldest keeps that count for
    the current j.  Each intermediate block is counted at its last
    access before i: access l counts when it maps to access i's set,
    touches another block, and no later kept intermediate touches the
    same block.  That indicator does not depend on j, so every access
    adds one term to a single running sum and the constraint is
    quadratic in the trace length.  The scan stops at the first j whose
    block equality is literally true.  With assoc=1 the result is
    logically equivalent to hit_constraint.

    A predecessor that provably touches another block is no candidate
    for j, and an access that can never put a different block into
    access i's set (``may_displace``) is no intermediate.
    """
    n = geo.num_sets
    w = geo.cfg.assoc
    t_i, s_i, b_i = geo.of(addrs[i])
    cw = max(i, w).bit_length() + 1
    count = ex.const(0, cw)
    kept: list[Expr] = []
    disjuncts: list[Expr] = []
    for j in range(i - 1, -1, -1):
        t_j, l_j, b_j = geo.of(addrs[j])
        lo, hi = _set_offsets(b_j, b_i, n)
        tag_eq = ex.eq(t_j, t_i) if lo <= 0 <= hi else ex.FALSE
        if tag_eq is not ex.FALSE:
            disjuncts.append(tag_eq if len(kept) < w
                             else ex.and_(tag_eq, ex.ult(count, ex.const(w, cw))))
        if tag_eq is ex.TRUE:
            break
        if not may_displace(b_j, b_i, n):
            continue
        last = [ex.eq(l_j, s_i), ex.ne(t_j, t_i)]
        last += [ex.ne(t, t_j) for t in kept]
        count = ex.add(count, ex.zext(ex.conj(last), cw))
        kept.append(t_j)
    return ex.disj(disjuncts)


def may_same_line(a: Expr, b: Expr, pcon: Expr, geo: Geometry,
                  backend) -> bool:
    """Can the addresses ``a`` and ``b`` fall into the same cache set on
    a path under ``pcon``?

    Decided by the interval pre-check whenever possible; otherwise the
    question goes to the solver backend.  A query the backend leaves
    undecided answers True.
    """
    _, l_a, b_a = geo.of(a)
    _, l_b, b_b = geo.of(b)
    lo, hi = _set_offsets(b_a, b_b, geo.num_sets)
    if lo > hi:
        return False
    if a.is_const and b.is_const:
        return True  # point intervals: overlap is equality
    q = ex.and_(ex.eq(l_a, l_b), pcon)
    if q.is_const:
        return bool(q.value)
    return backend.check(q).status != "unsat"


def may_touch_blocks(addr: Expr, pcon: Expr, other: Expr, geo: Geometry,
                     backend) -> bool:
    """Can ``addr``, on a path under ``pcon``, touch a block in the block
    range of ``other``?

    The query bounds the tag of ``addr`` by that range's constants and
    names no variable of ``other``.  An undecided query answers True.
    """
    t, _, blocks = geo.of(addr)
    _, _, (b0, b1) = geo.of(other)
    lo, hi = _set_offsets(blocks, (b0, b1), geo.num_sets)
    if not lo <= 0 <= hi:
        return False
    q = ex.conj([ex.ule(ex.const(b0, t.width), t),
                 ex.ule(t, ex.const(b1, t.width)), pcon])
    if q.is_const:
        return bool(q.value)
    return backend.check(q).status != "unsat"
