"""Constraint solving backends.

A backend answers satisfiability questions about width-1 expressions
with "sat", "unsat" or "unknown"; timeouts surface as "unknown", never
as an exception, because callers treat unknown conservatively.  The
per-query deadline is the backend's own, set when it is built.

EnumerativeBackend evaluates the expression over the whole cross
product of its free variables' domains, a block of assignments at a
time, in packed lanes: each node's values over the block are one Python
int with one fixed-width lane per assignment, so an operator costs a
few big-int operations per block (SIMD within a register).  Lanes are
64 bits wide while no node is wider than 32 bits, as in every program
the parser accepts, else the next multiple of 64 that is at least twice
the widest node.  A domain is any sequence of ints below 2**64; a
``range`` stays lazy.  One ``expr.postorder`` of the query gives both
the order the nodes are evaluated in and the variables to enumerate.
The backend is exact, needs nothing outside the standard library and
is fast for the small key spaces this tool targets.  A query whose
combined domain exceeds a configurable bit budget is not enumerated and
answers "unknown".  ``evaluate`` runs the same lanes on a block of one
assignment; it is the package's one evaluator of a formula.  The
divergence query's plan and scan live in ``symleak.scan``, which
``check_divergence`` loads at its first query, so a run whose sites all
settle never compiles it.  The backend that pipes SMT-LIB2 through an
external solver lives in ``symleak.smt``, loaded only by a run that
asks for one.

Every backend memoizes its answers for its own lifetime.
``SolverBackend.check`` counts the query, folds constant formulas, looks
the formula up in a per-instance dict and only then calls the backend's
``_solve``.  ``Expr`` nodes are hash-consed, so the formula object is
its structure and a hit returns exactly what solving again would.  Only
"sat" and "unsat" are stored: "unknown" depends on the deadline, so an
undecided query is asked again next time.  The enumerative divergence
query is memoized the same way on its arguments.  Memoized results are
shared between callers and must be treated as read-only.
"""

from __future__ import annotations

import sys
import time
from abc import ABC, abstractmethod
from array import array
from collections.abc import Sequence

from . import expr as ex
from .errors import ConfigError
from .expr import Expr


DEFAULT_TIMEOUT_MS = 30000  # of an external solver and of the command line


class SolveResult:
    __slots__ = ("status", "model")

    def __init__(self, status: str, model: dict[str, int] | None = None) -> None:
        self.status = status  # "sat" | "unsat" | "unknown"
        self.model = model


class DivergenceResult:
    __slots__ = ("status", "model_a", "model_b")

    def __init__(self, status: str, model_a: dict[str, int] | None = None,
                 model_b: dict[str, int] | None = None) -> None:
        self.status = status
        self.model_a = model_a
        self.model_b = model_b


class SolverBackend(ABC):
    """Satisfiability oracle for width-1 bitvector expressions.

    A query past ``timeout_ms`` (at least 1; None: no deadline) answers
    "unknown".  ``calls`` counts queries issued, including those the
    memo answered; ``memo_hits`` counts the latter.  Subclasses
    implement ``_solve`` and ``check_divergence``.
    """

    def __init__(self, timeout_ms: int | None = None) -> None:
        if timeout_ms is not None and timeout_ms < 1:
            raise ConfigError(f"timeout_ms must be at least 1, got {timeout_ms}")
        self.timeout_ms = timeout_ms
        self.calls = 0
        self.memo_hits = 0
        self._memo: dict = {}

    def check(self, formula: Expr) -> SolveResult:
        """Decide satisfiability; a sat result carries a witness model.

        The result may be shared with earlier and later callers asking
        the same formula, so it is read-only.
        """
        self.calls += 1
        if formula.is_const:
            return SolveResult("sat", {}) if formula.value else SolveResult("unsat")
        return self._memoized(formula, lambda: self._solve(formula))

    @abstractmethod
    def _solve(self, formula: Expr) -> SolveResult:
        """Decide a non-constant formula; called once per decided formula."""

    def _memoized(self, key, solve):
        """The stored answer for ``key``, else ``solve()``, stored unless
        it is "unknown"."""
        res = self._memo.get(key)
        if res is not None:
            self.memo_hits += 1
            return res
        res = solve()
        if res.status != "unknown":
            self._memo[key] = res
        return res

    @abstractmethod
    def check_divergence(self, tau: Expr, pcon: Expr, duplicated: list[str],
                         distinct: list[str]) -> DivergenceResult:
        """Find two valuations, agreeing on every non-duplicated variable,
        that satisfy the path condition and drive ``tau`` to opposite
        values; they then differ on a duplicated variable.  ``distinct``
        must name the same variables as ``duplicated`` (see
        ``_check_distinct``).  The result is read-only, as ``check``'s
        is.
        """

    @staticmethod
    def _check_distinct(duplicated: Sequence[str], distinct: Sequence[str]) -> None:
        """Raise ValueError unless ``distinct`` names exactly the
        duplicated variables: the one query a backend answers asks the
        two runs to differ somewhere on all of them."""
        if distinct is not duplicated and set(distinct) != set(duplicated):
            raise ValueError(f"check_divergence: distinct {sorted(distinct)} "
                             f"is not duplicated {sorted(duplicated)}")


# ---------------------------------------------------------------------------
# Packed-lane evaluation

_CONST, _VAR, _ITE, _EQ, _NE = ex.Op.CONST, ex.Op.VAR, ex.Op.ITE, ex.Op.EQ, ex.Op.NE
_AND, _OR, _XOR, _ADD, _SUB = ex.Op.AND, ex.Op.OR, ex.Op.XOR, ex.Op.ADD, ex.Op.SUB
_ULT, _ULE, _MULC = ex.Op.ULT, ex.Op.ULE, ex.Op.MULC
_EXTRACT, _ZEXT, _SHL, _LSHR = ex.Op.EXTRACT, ex.Op.ZEXT, ex.Op.SHL, ex.Op.LSHR
_CONST_BITS = 1 << 21


def _lane_bits(order: list[Expr]) -> int:
    """Lane width for evaluating ``order``: 64 bits while no node is
    wider than 32, else the next multiple of 64 that is at least twice
    the widest node.  Then a sum, ``x - y + 2**w``, a constant product
    or a shift by less than ``w`` of ``w``-bit values stays inside its
    lane, and bit ``w`` is free to act as a comparison's guard bit."""
    widest = max(e.width for e in order)
    return 64 if widest <= 32 else -(-2 * widest // 64) * 64


class _Lanes:
    """Words for blocks of ``n`` assignments in lanes of ``bits`` bits.

    A word is one Python int: lane ``i``, its bits ``[i * bits, (i + 1)
    * bits)``, holds a node's value under the block's ``i``-th
    assignment.  Every operator then costs one or a few big-int
    operations per block.  ``ones`` has a 1 in every lane, so
    ``c * ones`` broadcasts the constant ``c``; width-1 results are 0 or
    1 per lane.  The constant words of a shape (ones, masks, guard
    bits, broadcast constants) are built once and kept.
    """

    def __init__(self, n: int, bits: int):
        self.n = n
        self.bits = bits
        self.ones = int.from_bytes((b"\x01" + bytes(bits // 8 - 1)) * n, "little")
        self._masks: dict[int, int] = {}
        self._guards: dict[int, int] = {}
        self._consts: dict[int, int] = {}
        self._ramp: int | None = None

    def const(self, value: int) -> int:
        """``value`` in every lane.  Constant words are kept up to 2 Mbit
        in all, so many fit for small blocks and a few for large ones."""
        word = self._consts.get(value)
        if word is None:
            word = value * self.ones
            if len(self._consts) * self.n * self.bits < _CONST_BITS:
                self._consts[value] = word
        return word

    def mask(self, width: int) -> int:
        """``2**width - 1`` in every lane."""
        word = self._masks.get(width)
        if word is None:
            word = self._masks[width] = ((1 << width) - 1) * self.ones
        return word

    def guard(self, width: int) -> int:
        """``2**width`` in every lane: the guard bit of ``width``-bit values."""
        word = self._guards.get(width)
        if word is None:
            word = self._guards[width] = self.ones << width
        return word

    def ramp(self) -> int:
        """Lane ``i`` holds ``i``."""
        if self._ramp is None:
            self._ramp = int.from_bytes(
                _column_bytes(range(self.n), 1, 0, self.n, self.bits // 8), "little")
        return self._ramp

    def column(self, dom, stride: int, lo: int) -> int:
        """The word of a variable over assignments ``lo..lo+n-1`` of a
        mixed-radix enumeration: lane ``g - lo`` holds
        ``dom[(g // stride) % len(dom)]``."""
        n, size = self.n, self.bits // 8
        at = lo % len(dom)
        if (stride == 1 and isinstance(dom, range) and at + n <= len(dom)
                and dom.step > 0 and dom.start >= 0 and dom[-1] >> self.bits == 0):
            # An arithmetic progression: start + step * (lane index).
            return dom[at] * self.ones + dom.step * self.ramp()
        return int.from_bytes(_column_bytes(dom, stride, lo, lo + n, size), "little")

    def differ(self, a: int, b: int, width: int) -> int:
        """1 in the lanes where the ``width``-bit values of a and b differ:
        ``(a ^ b) + 2**width - 1`` reaches the guard bit exactly then."""
        return (((a ^ b) + self.mask(width)) >> width) & self.ones

    def equal(self, a: int, b: int, width: int) -> int:
        """1 in the lanes where a and b are equal: ``2**width - (a ^ b)``
        keeps the guard bit exactly then, and never borrows from the
        next lane."""
        return ((self.guard(width) - (a ^ b)) >> width) & self.ones

    def at_most(self, a: int, b: int, width: int) -> int:
        """1 in the lanes where ``a <= b``: ``b + 2**width - a`` keeps the
        guard bit exactly then, and never borrows."""
        return ((b + self.guard(width) - a) >> width) & self.ones

    def below(self, a: int, b: int, width: int) -> int:
        """1 in the lanes where ``a < b``: ``b + 2**width - 1 - a`` reaches
        the guard bit exactly then."""
        return ((b + self.mask(width) - a) >> width) & self.ones

    def evaluate(self, order: list[Expr], env: dict[str, int]) -> dict[Expr, int]:
        """The word of every node of ``order`` (arguments first), given a
        word per variable."""
        ones = self.ones
        mask = self.mask
        val: dict[Expr, int] = {}
        for e in order:
            op = e.op
            args = e.args
            if op is _CONST:
                v = self.const(e.value)
            elif op is _VAR:
                v = env[e.name] & mask(e.width)
            else:
                a = val[args[0]]
                if op is _ITE:
                    f = val[args[2]]
                    v = f ^ ((val[args[1]] ^ f) & (a * ((1 << e.width) - 1)))
                elif op is _EQ:
                    v = self.equal(a, val[args[1]], args[0].width)
                elif op is _NE:
                    v = self.differ(a, val[args[1]], args[0].width)
                elif op is _AND:
                    v = a & val[args[1]]
                elif op is _OR:
                    v = a | val[args[1]]
                elif op is _XOR:
                    v = a ^ val[args[1]]
                elif op is _ULT:
                    v = self.below(a, val[args[1]], args[0].width)
                elif op is _ULE:
                    v = self.at_most(a, val[args[1]], args[0].width)
                elif op is _ADD:
                    v = (a + val[args[1]]) & mask(e.width)
                elif op is _SUB:
                    v = (a + self.guard(e.width) - val[args[1]]) & mask(e.width)
                elif op is _EXTRACT:
                    v = (a >> e.value) & mask(e.width)
                elif op is _ZEXT:
                    v = a
                elif op is _MULC:
                    v = (a * (e.value & ((1 << e.width) - 1))) & mask(e.width)
                elif op is _SHL or op is _LSHR:
                    v = self._shift(op is _SHL, a, args[1], val[args[1]], e.width)
                else:
                    raise AssertionError(f"unhandled op {op}")
            val[e] = v
        return val

    def _shift(self, left: bool, a: int, amount: Expr, b: int, width: int) -> int:
        """``a`` shifted by ``amount`` (word ``b``); zero from ``width`` on.
        A symbolic amount selects, lane by lane, among its ``width``
        possible shifts."""
        m = self.mask(width)
        if amount.op is _CONST:
            s = amount.value
            return 0 if s >= width else ((a << s) if left else (a >> s)) & m
        out = 0
        for s in range(width):
            picked = self.equal(b, self.const(s), width)
            out |= ((a << s) if left else (a >> s)) & (picked * ((1 << width) - 1))
        return out


def evaluate(e: Expr, env: dict[str, int]) -> int:
    """The value of ``e`` where each variable has its value in ``env``,
    taken modulo ``2**width``: a block of one assignment."""
    order = ex.postorder([e])
    lanes = _Lanes(1, _lane_bits(order))
    return lanes.evaluate(order, env)[e]


def _cyclic(dom, start: int, count: int):
    """``count`` values of ``dom`` from index ``start`` on, wrapping
    around; a slice that does not wrap stays a lazy range."""
    if start + count <= len(dom):
        return dom[start:start + count]
    head = list(dom[start:])
    whole, part = divmod(count - len(head), len(dom))
    return head + list(dom) * whole + list(dom[:part])


def _column_bytes(dom, stride: int, lo: int, hi: int, size: int):
    """Lanes of ``size`` bytes for assignments ``lo..hi-1`` of one
    variable: lane ``g - lo`` holds ``dom[(g // stride) % len(dom)]``.

    Each domain value, below 2**64, fills a run of ``stride``
    consecutive lanes.  The lanes are written in C: value by value when
    runs are long, else with one strided copy of the values per position
    in a run, so the Python steps number at most the smaller of the two.
    """
    first = lo // stride
    vals = _cyclic(dom, first % len(dom), (hi - 1) // stride - first + 1)
    if stride > len(vals):
        out = bytearray()
        start = lo
        for i, v in enumerate(vals):
            end = min(hi, (first + i + 1) * stride)
            out += v.to_bytes(8, "little").ljust(size, b"\0") * (end - start)
            start = end
        return out
    col = array("Q", vals)
    if sys.byteorder == "big":
        col.byteswap()
    words = size // 8
    buf = bytearray(len(vals) * stride * size)
    with memoryview(buf).cast("Q") as view:
        for t in range(stride):
            view[t * words::stride * words] = col
    skip = (lo - first * stride) * size
    return memoryview(buf)[skip:skip + (hi - lo) * size]


class _Plan:
    """Mixed-radix enumeration of a query's assignments.  ``order`` lists
    the variables outermost first; assignment ``g`` gives each variable
    ``dom[(g // stride) % len(dom)]``.  Models list ``names`` in order."""

    def __init__(self, names: list[str], order: list[str], doms: dict):
        self.names = names
        self.order = order
        self.doms = doms
        self.strides: dict[str, int] = {}
        total = 1
        for n in reversed(order):
            self.strides[n] = total
            total *= len(doms[n])
        self.total = total

    def model(self, g: int) -> dict[str, int]:
        return {n: self.doms[n][(g // self.strides[n]) % len(self.doms[n])]
                for n in self.names}

    def env(self, lo: int, lanes: _Lanes) -> dict[str, int]:
        return {n: lanes.column(self.doms[n], self.strides[n], lo)
                for n in self.order}


# Assignments in the first block of a scan; later blocks double up to
# the backend's chunk, but stop at words of _WORD_BITS bits: a big-int
# operation on words that fit a core's cache costs half as much per lane.
_FIRST_BLOCK = 1024
_WORD_BITS = 1 << 22


def _blocks(total: int, first: int, limit: int):
    """``(lo, hi)`` blocks covering assignments ``0..total-1``: ``first``
    of them, then twice as many each time up to ``limit``, so a witness
    early in the enumeration costs a small block and a long scan a few
    large ones."""
    lo, step = 0, first
    while lo < total:
        yield lo, min(lo + step, total)
        lo += step
        step = min(limit, 2 * step)


class EnumerativeBackend(SolverBackend):
    """Exhaustive enumeration of the free variables, in packed lanes.

    Assignments are enumerated in mixed radix over the variables in
    sorted order, the last fastest, and evaluated a block at a time as
    words of packed lanes (``_Lanes``): one lane per assignment, 64 bits
    wide while no node is wider than 32 bits, else the next multiple of
    64 that is at least twice the widest node.  The first block holds
    1,024 assignments and each next one twice as many, up to ``chunk``
    and to words of 4 Mbit.  The model of a "sat" is the first
    satisfying assignment in enumeration order, whatever the blocks.
    The constant words of each block shape (lane ones, masks, guard
    bits, broadcast constants) are kept on the instance.

    ``domains`` optionally restricts named variables to explicit values:
    any sequence of ints in ``[0, 2**64)``, a ``range`` being kept lazy
    (the symbolic adversary base uses this: the aligned addresses of
    the probe window instead of 2**32 candidates).  A value is taken
    modulo ``2**width`` when evaluated and reported as given.  Other
    variables range over all ``2**width`` values.  Total enumerated
    width is capped at ``cap_bits``: a wider query answers "unknown",
    as a timed-out one does, rather than running forever.  A domain
    value outside ``[0, 2**64)`` or a ``chunk`` below 1 raises
    ``ConfigError``.
    """

    def __init__(self, domains: dict[str, Sequence[int]] | None = None,
                 timeout_ms: int | None = None, cap_bits: int = 24,
                 chunk: int = 1 << 18):
        super().__init__(timeout_ms)
        if chunk < 1:
            raise ConfigError(f"chunk must be at least 1, got {chunk}")
        self.domains = {n: d if isinstance(d, range) else [int(v) for v in d]
                        for n, d in (domains or {}).items()}
        for n, d in self.domains.items():
            ends = (d[0], d[-1]) if isinstance(d, range) and d else d
            if any(not 0 <= v < 1 << 64 for v in ends):
                raise ConfigError(f"domain of {n!r} holds a value outside "
                                  f"[0, 2**64)")
        self.cap_bits = cap_bits
        self.chunk = chunk
        self._lanes: dict[tuple[int, int], _Lanes] = {}

    def _words(self, n: int, bits: int) -> _Lanes:
        """The constant words for blocks of ``n`` lanes of ``bits`` bits.
        Block shapes recur from query to query, so they are kept, up to
        twice a chunk's lanes in all."""
        lanes = self._lanes.get((n, bits))
        if lanes is None:
            if n + sum(k[0] for k in self._lanes) > 2 * self.chunk:
                self._lanes.clear()
            lanes = self._lanes[n, bits] = _Lanes(n, bits)
        return lanes

    def _block_lanes(self, bits: int) -> int:
        """The most assignments a block of ``bits``-bit lanes holds."""
        return max(1, min(self.chunk, _WORD_BITS // bits))

    def _plan(self, widths: dict[str, int],
              order: list[str] | None = None) -> _Plan | None:
        """The enumeration of ``widths``' variables, or None when their
        domains span more than ``cap_bits`` bits."""
        names = sorted(widths)
        # A variable without a domain spans its width; its range is not
        # measured, since len() fails from 2**63 values on.
        bits = sum(widths[n] if n not in self.domains
                   else max(1, (len(self.domains[n]) - 1).bit_length())
                   for n in names)
        if bits > self.cap_bits:
            return None
        doms = {n: self.domains.get(n, range(1 << widths[n])) for n in names}
        return _Plan(names, names if order is None else order, doms)

    def _deadline(self) -> float | None:
        """When a query started now must end; None: never."""
        ms = self.timeout_ms
        return None if ms is None else time.monotonic() + ms / 1000

    @staticmethod
    def _past(deadline: float | None) -> bool:
        """Whether ``deadline`` has passed, on the clock ``_deadline``
        reads."""
        return deadline is not None and time.monotonic() > deadline

    def _solve(self, formula: Expr) -> SolveResult:
        deadline = self._deadline()
        order = ex.postorder([formula])
        plan = self._plan({e.name: e.width for e in order if e.op is _VAR})
        if plan is None:
            return SolveResult("unknown")
        bits = _lane_bits(order)
        limit = self._block_lanes(bits)
        for lo, hi in _blocks(plan.total, min(limit, _FIRST_BLOCK), limit):
            if self._past(deadline):
                return SolveResult("unknown")
            lanes = self._words(hi - lo, bits)
            sat = lanes.evaluate(order, plan.env(lo, lanes))[formula]
            if sat:
                return SolveResult("sat", plan.model(lo + (sat & -sat).bit_length() // bits))
        return SolveResult("unsat")

    def check_divergence(self, tau: Expr, pcon: Expr, duplicated: list[str],
                         distinct: list[str]) -> DivergenceResult:
        """Partition the feasible assignments by the value of tau.

        A divergent pair exists exactly when, for some assignment of the
        shared variables, both a satisfying and a falsifying assignment
        of tau survive the path condition.  Variables outside
        ``duplicated`` are enumerated outermost, so the assignments
        sharing their values form one run of lanes (a group) and the two
        returned models agree on them; see ``symleak.scan``, which this
        method imports at its first query.  With no duplicated variable,
        each group is one assignment and no pair exists.  Equivalent to
        the two-family formula that ``symleak.smt.SmtProcessBackend``
        solves, but enumerates the variable space once instead of
        squaring it.  Answers are memoized on the arguments, as
        ``check``'s are, and read-only.
        """
        self._check_distinct(duplicated, distinct)
        self.calls += 1
        from .scan import divergence
        return self._memoized((tau, pcon, tuple(duplicated)),
                              lambda: divergence(self, tau, pcon, duplicated))
