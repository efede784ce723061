"""The enumerative divergence query: a scan of one plan's assignments
for a feasible tau-true and a feasible tau-false assignment that agree
on every shared variable.

``EnumerativeBackend._divergence`` builds the plan and imports this
module at its first query, so a run whose every site settles before
the search, or that asks no divergence query at all, never compiles it.
"""

from __future__ import annotations

import time

from .expr import Expr
from .solver import (_FIRST_BLOCK, EnumerativeBackend, _blocks, _Lanes,
                     _lane_bits, _Plan)


class _Timeout(Exception):
    pass


class _Block:
    """One evaluated block of a divergence scan, assignments ``lo..hi-1``:
    which lanes satisfy the path condition with tau true (hits) and with
    tau false (misses), unpacked to bytes so a lane is found in C."""

    def __init__(self, lanes: _Lanes, lo: int, env: dict[str, int], pc: int, tv: int):
        self.lanes = lanes
        self.lo = lo
        self.hi = lo + lanes.n
        self.env = env
        self.size = lanes.bits // 8
        self.hits = pc & tv
        self.misses = pc & ~tv
        self.hit_lanes = self._bytes(self.hits)
        self.miss_lanes = self._bytes(self.misses)
        self._apart: dict[tuple, tuple[bytes, bytes]] = {}

    def _bytes(self, word: int) -> bytes:
        return word.to_bytes(self.lanes.n * self.size, "little")

    def first(self, lanes: bytes, lo: int, hi: int) -> int:
        """The first assignment in ``lo..hi-1`` whose lane is 1, or -1.
        Only a lane's lowest byte can be nonzero."""
        i = lanes.find(1, (lo - self.lo) * self.size, (hi - self.lo) * self.size)
        return -1 if i < 0 else self.lo + i // self.size

    def apart(self, pinned: dict[str, int], widths: dict[str, int]) -> tuple[bytes, bytes]:
        """Hit and miss lanes of the assignments that differ from
        ``pinned`` on some key."""
        key = tuple(pinned.items())
        got = self._apart.get(key)
        if got is None:
            lanes = self.lanes
            differ = 0
            for k, v in pinned.items():
                w = widths[k]
                differ |= lanes.differ(self.env[k] & lanes.mask(w),
                                       lanes.const(v & ((1 << w) - 1)), w)
            got = self._apart[key] = (self._bytes(self.hits & differ),
                                      self._bytes(self.misses & differ))
        return got


class _DivergenceScan:
    """The enumerative divergence query over one plan whose shared
    variables are outermost.  A group (the assignments of one shared
    value) yields a pair when it holds a feasible tau-true and a
    feasible tau-false assignment whose ``keys`` projections differ.

    Groups are scanned in order.  Within a group, in windows of
    ``chunk`` assignments: the first hit and the first miss; if they
    pin the same keys (tau is driven by an unconstrained load), a
    second pass takes the first window holding either side at other key
    values, its hit before its miss.  Groups no wider than a chunk are
    evaluated many to a block, and only those holding a hit are looked
    at, so a narrow group costs no evaluation of its own.
    """

    def __init__(self, backend: EnumerativeBackend, plan: _Plan,
                 order: list[Expr], tau: Expr, pcon: Expr,
                 widths: dict[str, int], duplicated: list[str],
                 distinct: list[str]):
        self.backend = backend
        self.plan = plan
        self.tau = tau
        self.pcon = pcon
        self.widths = widths
        self.keys = [n for n in plan.names if n in duplicated and n in distinct]
        self.deadline = backend._deadline()
        self.order = order
        self.bits = _lane_bits(self.order)
        self.group = 1
        for n in plan.names:
            if n in duplicated:
                self.group *= len(plan.doms[n])

    def block(self, lo: int, hi: int) -> _Block:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Timeout
        lanes = self.backend._words(hi - lo, self.bits)
        env = self.plan.env(lo, lanes)
        val = lanes.evaluate(self.order, env)
        return _Block(lanes, lo, env, val[self.pcon], val[self.tau])

    def run(self) -> tuple[dict[str, int], dict[str, int]] | None:
        total, group, chunk = self.plan.total, self.group, self.backend.chunk
        if total == 0:
            return None
        if group > chunk:
            for lo in range(0, total, group):
                found = self.pair(lo, lo + group, None)
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

    def windows(self, lo: int, hi: int, cached: tuple[_Block, ...] | None):
        if cached is not None:
            return cached
        chunk = self.backend.chunk
        return (self.block(w, min(w + chunk, hi)) for w in range(lo, hi, chunk))

    def pair(self, lo: int, hi: int, cached: tuple[_Block, ...] | None):
        """The pair of the group ``lo..hi-1``, or None."""
        hit = miss = -1
        for blk in self.windows(lo, hi, cached):
            a, b = max(lo, blk.lo), min(hi, blk.hi)
            if hit < 0:
                hit = blk.first(blk.hit_lanes, a, b)
            if miss < 0:
                miss = blk.first(blk.miss_lanes, a, b)
            if hit >= 0 and miss >= 0:
                break
        else:
            return None
        hit_model, miss_model = self.plan.model(hit), self.plan.model(miss)
        if any(hit_model[k] != miss_model[k] for k in self.keys):
            return hit_model, miss_model
        # Both sides pinned the exact same key values.  Rescan for either
        # side of the partition under any other key assignment.
        pinned = {k: hit_model[k] for k in self.keys}
        for blk in self.windows(lo, hi, cached):
            a, b = max(lo, blk.lo), min(hi, blk.hi)
            hits, misses = blk.apart(pinned, self.widths)
            other = blk.first(hits, a, b)
            if other >= 0:
                return self.plan.model(other), miss_model
            other = blk.first(misses, a, b)
            if other >= 0:
                return hit_model, self.plan.model(other)
        return None
