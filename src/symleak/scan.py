"""The enumerative divergence query: a scan of one plan's assignments
for a feasible tau-true and a feasible tau-false assignment that agree
on every shared variable.

``EnumerativeBackend.check_divergence`` imports this module at its
first query and hands each query it does not find in its memo to
``divergence``, which builds the plan and runs the scan.  So a run
whose every site settles before the search, or that asks no divergence
query at all, never compiles it.
"""

from __future__ import annotations

from .expr import Expr, postorder
from .solver import (_FIRST_BLOCK, _VAR, DivergenceResult, EnumerativeBackend,
                     _blocks, _Lanes, _lane_bits, _Plan)


def divergence(backend: EnumerativeBackend, tau: Expr, pcon: Expr,
               duplicated: list[str]) -> DivergenceResult:
    """``backend``'s answer to one divergence query, asked anew: the
    first group, in enumeration order, that holds a feasible hit and a
    feasible miss.  "unknown" when the domains pass the backend's cap or
    the scan its deadline.  A duplicated name that neither formula reads
    is 0 in both models."""
    order = postorder([pcon, tau])
    widths = {e.name: e.width for e in order if e.op is _VAR}
    names = sorted(widths)
    plan = backend._plan(widths, [n for n in names if n not in duplicated]
                         + [n for n in names if n in duplicated])
    if plan is None:
        return DivergenceResult("unknown")
    try:
        found = _DivergenceScan(backend, plan, order, tau, pcon, duplicated).run()
    except _Timeout:
        return DivergenceResult("unknown")
    if found is None:
        return DivergenceResult("unsat")
    hit, miss = found
    for n in duplicated:
        hit.setdefault(n, 0)
        miss.setdefault(n, 0)
    return DivergenceResult("sat", hit, miss)


class _Timeout(Exception):
    pass


class _Block:
    """One evaluated block of a divergence scan, assignments ``lo..hi-1``:
    which lanes satisfy the path condition with tau true (hits) and with
    tau false (misses), unpacked to bytes so a lane is found in C."""

    def __init__(self, lanes: _Lanes, lo: int, pc: int, tv: int):
        self.lo = lo
        self.hi = lo + lanes.n
        self.size = lanes.bits // 8
        self.hit_lanes = (pc & tv).to_bytes(lanes.n * self.size, "little")
        self.miss_lanes = (pc & ~tv).to_bytes(lanes.n * self.size, "little")

    def first(self, lanes: bytes, lo: int, hi: int) -> int:
        """The first assignment in ``lo..hi-1`` whose lane is 1, or -1.
        Only a lane's lowest byte can be nonzero."""
        i = lanes.find(1, (lo - self.lo) * self.size, (hi - self.lo) * self.size)
        return -1 if i < 0 else self.lo + i // self.size


class _DivergenceScan:
    """The enumerative divergence query over one plan whose shared
    variables are outermost.  A group (the assignments of one shared
    value) yields a pair when it holds a feasible tau-true and a
    feasible tau-false assignment.  Two assignments of one group differ
    only on duplicated variables, and tau separates their values, so
    such a pair always differs on a duplicated variable.

    Groups are scanned in order.  Within a group, in windows of
    ``chunk`` assignments, the scan takes the first hit and the first
    miss.  Groups no wider than a chunk are evaluated many to a block,
    and only those holding a hit are looked at, so a narrow group costs
    no evaluation of its own.
    """

    def __init__(self, backend: EnumerativeBackend, plan: _Plan,
                 order: list[Expr], tau: Expr, pcon: Expr,
                 duplicated: list[str]):
        self.backend = backend
        self.plan = plan
        self.tau = tau
        self.pcon = pcon
        self.deadline = backend._deadline()
        self.order = order
        self.bits = _lane_bits(self.order)
        self.group = 1
        for n in plan.names:
            if n in duplicated:
                self.group *= len(plan.doms[n])

    def block(self, lo: int, hi: int) -> _Block:
        if self.backend._past(self.deadline):
            raise _Timeout
        lanes = self.backend._words(hi - lo, self.bits)
        val = lanes.evaluate(self.order, self.plan.env(lo, lanes))
        return _Block(lanes, lo, val[self.pcon], val[self.tau])

    def run(self) -> tuple[dict[str, int], dict[str, int]] | None:
        total, group, chunk = self.plan.total, self.group, self.backend.chunk
        if total == 0:
            return None
        if group > chunk:
            for lo in range(0, total, group):
                found = self.pair(lo, lo + group, self.windows(lo, lo + group))
                if found is not None:
                    return found
            return None
        limit = group * max(1, self.backend._block_lanes(self.bits) // group)
        first = min(limit, group * max(1, _FIRST_BLOCK // group))
        for lo, hi in _blocks(total, first, limit):
            blk = self.block(lo, hi)
            at = lo
            while (h := blk.first(blk.hit_lanes, at, blk.hi)) >= 0:
                start = h - h % group
                found = self.pair(start, start + group, (blk,))
                if found is not None:
                    return found
                at = start + group
        return None

    def windows(self, lo: int, hi: int):
        chunk = self.backend.chunk
        return (self.block(w, min(w + chunk, hi)) for w in range(lo, hi, chunk))

    def pair(self, lo: int, hi: int, blocks):
        """The first hit and the first miss of the group ``lo..hi-1``,
        read from ``blocks``, or None."""
        hit = miss = -1
        for blk in blocks:
            a, b = max(lo, blk.lo), min(hi, blk.hi)
            if hit < 0:
                hit = blk.first(blk.hit_lanes, a, b)
            if miss < 0:
                miss = blk.first(blk.miss_lanes, a, b)
            if hit >= 0 and miss >= 0:
                return self.plan.model(hit), self.plan.model(miss)
        return None
