"""Constraint solving backends.

Two interchangeable backends answer satisfiability questions about
width-1 expressions:

* EnumerativeBackend evaluates the expression over the whole cross
  product of its free variables' domains, vectorised with numpy in
  fixed-size chunks.  It is exact, dependency free and fast for the
  small key spaces this tool targets, but refuses once the combined
  domain exceeds a configurable bit budget.

* SmtProcessBackend prints the query as SMT-LIB2 (QF_BV) and pipes it
  through an external solver executable such as ``z3 -in``.  Query text
  is byte deterministic for a given expression, so runs are
  reproducible and cacheable.

Both report "sat", "unsat" or "unknown"; timeouts surface as "unknown",
never as an exception, because callers treat unknown conservatively.

Every backend memoizes its answers for its own lifetime.
``SolverBackend.check`` counts the query, folds constant formulas, looks
the formula up in a per-instance dict and only then calls the backend's
``_solve``.  ``Expr`` nodes are hash-consed, so the formula object is
its structure and a hit returns exactly what solving again would.  Only
"sat" and "unsat" are stored: "unknown" depends on the deadline, so an
undecided query is asked again next time.  The enumerative divergence
query is memoized the same way on its arguments; the generic one needs
no memo of its own, since it rebuilds the same interned formula and
``check`` answers it.  Memoized results are shared between callers and
must be treated as read-only.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import EnumerativeCapError, SolverProcessError
from .expr import Expr


@dataclass
class SolveResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: dict[str, int] | None = None


@dataclass
class DivergenceResult:
    status: str
    model_a: dict[str, int] | None = None
    model_b: dict[str, int] | None = None


class SolverBackend(ABC):
    """Satisfiability oracle for width-1 bitvector expressions.

    ``calls`` counts queries issued, including those the memo answered;
    ``memo_hits`` counts the latter.  Subclasses implement ``_solve``.
    """

    name: str = "backend"

    def __init__(self) -> None:
        self.calls = 0
        self.memo_hits = 0
        self._memo: dict = {}

    def check(self, formula: Expr, timeout_ms: int | None = None) -> SolveResult:
        """Decide satisfiability; a sat result carries a witness model.

        The result may be shared with earlier and later callers asking
        the same formula, so it is read-only.
        """
        self.calls += 1
        if formula.is_const:
            return SolveResult("sat", {}) if formula.value else SolveResult("unsat")
        return self._memoized(formula, lambda: self._solve(formula, timeout_ms))

    @abstractmethod
    def _solve(self, formula: Expr, timeout_ms: int | None) -> SolveResult:
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

    def check_divergence(self, tau: Expr, pcon: Expr, duplicated: list[str],
                         distinct: list[str],
                         timeout_ms: int | None = None) -> DivergenceResult:
        """Find two valuations, agreeing on every non-duplicated variable,
        that satisfy the path condition, differ somewhere on ``distinct``
        and drive ``tau`` to opposite values.

        The generic implementation instantiates the constraint twice over
        renamed variable families and solves the combined formula.  The
        result is read-only, as ``check``'s is.
        """
        widths = ex.var_widths(tau) | ex.var_widths(pcon)
        fam_a = {n: ex.var(f"{n}__1", widths[n]) for n in duplicated}
        fam_b = {n: ex.var(f"{n}__2", widths[n]) for n in duplicated}
        parts = [ex.substitute(pcon, fam_a), ex.substitute(pcon, fam_b)]
        if distinct:
            parts.append(ex.disj([ex.ne(fam_a[n], fam_b[n]) for n in sorted(distinct)]))
        parts.append(ex.xor(ex.substitute(tau, fam_a), ex.substitute(tau, fam_b)))
        res = self.check(ex.conj(parts), timeout_ms=timeout_ms)
        if res.status != "sat":
            return DivergenceResult(res.status)
        model = res.model or {}
        shared = {n: v for n, v in model.items() if not n.endswith(("__1", "__2"))}
        m_a = dict(shared)
        m_b = dict(shared)
        for n in duplicated:
            m_a[n] = model.get(f"{n}__1", 0)
            m_b[n] = model.get(f"{n}__2", 0)
        return DivergenceResult("sat", m_a, m_b)


# ---------------------------------------------------------------------------
# Vectorised evaluation

def evaluate_vec(e: Expr, env: dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate e elementwise over numpy uint64 variable assignments."""
    memo: dict[Expr, np.ndarray] = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        pending = [a for a in node.args if a not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[node] = _vec_node(node, env, memo)
    return memo[e]


def _vec_node(e: Expr, env: dict[str, np.ndarray], memo: dict[Expr, np.ndarray]) -> np.ndarray:
    mask = np.uint64((1 << e.width) - 1)
    op = e.op
    if op is ex.Op.CONST:
        return np.uint64(e.value)
    if op is ex.Op.VAR:
        return env[e.name] & mask
    a = memo[e.args[0]]
    if op is ex.Op.ZEXT:
        return a
    if op is ex.Op.EXTRACT:
        return (a >> np.uint64(e.value)) & mask
    if op is ex.Op.MULC:
        return (a * np.uint64(e.value)) & mask
    if op is ex.Op.ITE:
        return np.where(a.astype(bool), memo[e.args[1]], memo[e.args[2]])
    b = memo[e.args[1]]
    if op is ex.Op.ADD:
        return (a + b) & mask
    if op is ex.Op.SUB:
        return (a - b) & mask
    if op is ex.Op.AND:
        return a & b
    if op is ex.Op.OR:
        return a | b
    if op is ex.Op.XOR:
        return a ^ b
    if op is ex.Op.SHL:
        safe = np.minimum(b, np.uint64(63))
        return np.where(b < e.width, (a << safe) & mask, np.uint64(0))
    if op is ex.Op.LSHR:
        safe = np.minimum(b, np.uint64(63))
        return np.where(b < e.width, (a >> safe) & mask, np.uint64(0))
    if op is ex.Op.EQ:
        return (a == b).astype(np.uint64)
    if op is ex.Op.NE:
        return (a != b).astype(np.uint64)
    if op is ex.Op.ULT:
        return (a < b).astype(np.uint64)
    if op is ex.Op.ULE:
        return (a <= b).astype(np.uint64)
    raise AssertionError(f"unhandled op {op}")


class EnumerativeBackend(SolverBackend):
    """Exhaustive chunked enumeration over the free variables.

    ``domains`` optionally restricts named variables to explicit value
    lists (the symbolic adversary base uses this: a handful of aligned
    addresses instead of 2**32 candidates).  Total enumerated width is
    capped; wider queries raise EnumerativeCapError rather than running
    forever.
    """

    name = "enumerative"

    def __init__(self, domains: dict[str, "np.ndarray | list[int]"] | None = None,
                 cap_bits: int = 24, chunk: int = 1 << 18):
        super().__init__()
        self.domains = {n: np.asarray(d, dtype=np.uint64) for n, d in (domains or {}).items()}
        self.cap_bits = cap_bits
        self.chunk = chunk

    def _domain_of(self, name: str, width: int) -> np.ndarray:
        dom = self.domains.get(name)
        if dom is not None:
            return dom
        if width > self.cap_bits:
            raise EnumerativeCapError(
                f"variable {name!r} is {width} bits wide with no explicit domain")
        return np.arange(1 << width, dtype=np.uint64)

    def _plan(self, widths: dict[str, int]) -> tuple[list[str], list[np.ndarray], int]:
        names = sorted(widths)
        doms = [self._domain_of(n, widths[n]) for n in names]
        bits = sum(max(1, (len(d) - 1).bit_length()) for d in doms)
        if bits > self.cap_bits:
            raise EnumerativeCapError(
                f"query spans {bits} domain bits over {names}, cap is {self.cap_bits}")
        total = 1
        for d in doms:
            total *= len(d)
        return names, doms, total

    def _env_for(self, names: list[str], doms: list[np.ndarray],
                 lo: int, hi: int) -> dict[str, np.ndarray]:
        g = np.arange(lo, hi, dtype=np.uint64)
        env: dict[str, np.ndarray] = {}
        stride = 1
        for n, d in zip(reversed(names), reversed(doms)):
            env[n] = d[(g // np.uint64(stride)) % np.uint64(len(d))]
            stride *= len(d)
        return env

    def _solve(self, formula: Expr, timeout_ms: int | None) -> SolveResult:
        deadline = None if timeout_ms is None else time.monotonic() + timeout_ms / 1000
        names, doms, total = self._plan(ex.var_widths(formula))
        for lo in range(0, total, self.chunk):
            if deadline is not None and time.monotonic() > deadline:
                return SolveResult("unknown")
            hi = min(lo + self.chunk, total)
            env = self._env_for(names, doms, lo, hi)
            vals = evaluate_vec(formula, env)
            nz = np.flatnonzero(vals)
            if len(nz):
                pick = int(nz[0])
                return SolveResult("sat", {n: int(env[n][pick]) for n in names})
        return SolveResult("unsat")

    def check_divergence(self, tau: Expr, pcon: Expr, duplicated: list[str],
                         distinct: list[str],
                         timeout_ms: int | None = None) -> DivergenceResult:
        """Partition the feasible assignments by the value of tau.

        A divergent pair exists exactly when, for some assignment of the
        shared variables, both a satisfying and a falsifying assignment
        of tau survive the path condition.  Variables outside
        ``duplicated`` are enumerated in an outer loop so the two
        returned models agree on them.  Equivalent to the two-family
        formula of the generic implementation, but enumerates the
        variable space once instead of squaring it.  Answers are
        memoized on the arguments, as ``check``'s are, and read-only.
        """
        self.calls += 1
        if not distinct:
            return DivergenceResult("unsat")
        return self._memoized(
            (tau, pcon, tuple(duplicated), tuple(distinct)),
            lambda: self._divergence(tau, pcon, duplicated, distinct, timeout_ms))

    def _divergence(self, tau: Expr, pcon: Expr, duplicated: list[str],
                    distinct: list[str], timeout_ms: int | None) -> DivergenceResult:
        widths = ex.var_widths(tau) | ex.var_widths(pcon)
        missing = [n for n in duplicated if n not in widths]
        deadline = None if timeout_ms is None else time.monotonic() + timeout_ms / 1000
        names, doms, total = self._plan(widths)
        shared_names = [n for n in names if n not in duplicated]
        fam_names = [n for n in names if n in duplicated]
        fam_doms = [doms[names.index(n)] for n in fam_names]
        shared_doms = [doms[names.index(n)] for n in shared_names]
        keys = [n for n in fam_names if n in distinct]
        fam_total = 1
        for d in fam_doms:
            fam_total *= len(d)
        shared_total = 1
        for d in shared_doms:
            shared_total *= len(d)
        timed_out = False
        for s in range(shared_total):
            shared_env = {}
            stride = 1
            for n, d in zip(reversed(shared_names), reversed(shared_doms)):
                shared_env[n] = d[(s // stride) % len(d)]
                stride *= len(d)
            found = self._scan_partition(tau, pcon, names, fam_names, fam_doms,
                                         fam_total, shared_env, keys, deadline)
            if found == "timeout":
                timed_out = True
                break
            if found is not None:
                hit, miss = found
                for n in missing:
                    hit.setdefault(n, 0)
                    miss.setdefault(n, 0)
                return DivergenceResult("sat", hit, miss)
        return DivergenceResult("unknown" if timed_out else "unsat")

    def _scan_partition(self, tau, pcon, names, fam_names, fam_doms, fam_total,
                        shared_env, keys, deadline):
        """One shared-variable assignment: find a feasible tau-true and a
        feasible tau-false model whose ``keys`` projections differ.  A hit
        and a miss almost always differ on the keys already; when both
        sides pin the exact same key values (tau is driven by an
        unconstrained load), a second scan looks for either side at any
        other key value."""
        hit = miss = None
        for lo in range(0, fam_total, self.chunk):
            if deadline is not None and time.monotonic() > deadline:
                return "timeout"
            hi = min(lo + self.chunk, fam_total)
            env = self._env_for(fam_names, fam_doms, lo, hi)
            for n, v in shared_env.items():
                env[n] = np.full(hi - lo, v, dtype=np.uint64)
            pc = evaluate_vec(pcon, env).astype(bool)
            tv = evaluate_vec(tau, env).astype(bool)
            for want_hit, side in ((True, pc & tv), (False, pc & ~tv)):
                if (hit if want_hit else miss) is None:
                    cand = np.flatnonzero(side)
                    if len(cand):
                        pick = int(cand[0])
                        model = {n: int(env[n][pick]) for n in names}
                        if want_hit:
                            hit = model
                        else:
                            miss = model
            if hit is not None and miss is not None:
                if any(hit[k] != miss[k] for k in keys):
                    return hit, miss
                break
        if hit is None or miss is None:
            return None
        # Both sides pinned the exact same key values.  Rescan for either
        # side of the partition under any other key assignment.
        for lo in range(0, fam_total, self.chunk):
            if deadline is not None and time.monotonic() > deadline:
                return "timeout"
            hi = min(lo + self.chunk, fam_total)
            env = self._env_for(fam_names, fam_doms, lo, hi)
            for n, v in shared_env.items():
                env[n] = np.full(hi - lo, v, dtype=np.uint64)
            pc = evaluate_vec(pcon, env).astype(bool)
            tv = evaluate_vec(tau, env).astype(bool)
            proj = np.zeros(hi - lo, dtype=bool)
            for k in keys:
                proj |= env[k] != np.uint64(hit[k])
            for want_hit, side in ((True, pc & tv), (False, pc & ~tv)):
                cand = np.flatnonzero(side & proj)
                if len(cand):
                    pick = int(cand[0])
                    model = {n: int(env[n][pick]) for n in names}
                    return (model, miss) if want_hit else (hit, model)
        return None


# ---------------------------------------------------------------------------
# SMT-LIB2 emission and the external-process backend

_SMT_BINOPS = {
    ex.Op.ADD: "bvadd", ex.Op.SUB: "bvsub", ex.Op.AND: "bvand",
    ex.Op.OR: "bvor", ex.Op.XOR: "bvxor", ex.Op.SHL: "bvshl",
    ex.Op.LSHR: "bvlshr",
}
_SMT_CMPS = {ex.Op.EQ: "=", ex.Op.ULT: "bvult", ex.Op.ULE: "bvule"}


def emit_query(formula: Expr, logic: str = "QF_BV", get_model: bool = True) -> str:
    """Serialise a width-1 formula as a deterministic SMT-LIB2 script.

    Shared subexpressions become numbered define-funs in first-visit
    order, so identical expressions always produce identical bytes.
    """
    if formula.width != 1:
        raise ValueError("emit_query expects a width-1 formula")
    lines = [f"(set-logic {logic})"]
    widths = ex.var_widths(formula)
    for n in sorted(widths):
        lines.append(f"(declare-fun {n} () (_ BitVec {widths[n]}))")

    uses: dict[Expr, int] = {}
    order: list[Expr] = []
    stack = [formula]
    seen: set[Expr] = set()
    while stack:
        node = stack.pop()
        uses[node] = uses.get(node, 0) + 1
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
        stack.extend(node.args)

    names: dict[Expr, str] = {}
    counter = 0

    def text_of(node: Expr) -> str:
        if node in names:
            return names[node]
        return _render(node)

    def _render(node: Expr) -> str:
        op = node.op
        if op is ex.Op.CONST:
            return f"(_ bv{node.value} {node.width})"
        if op is ex.Op.VAR:
            return node.name
        args = [text_of(a) for a in node.args]
        if op in _SMT_BINOPS:
            return f"({_SMT_BINOPS[op]} {args[0]} {args[1]})"
        if op in _SMT_CMPS:
            return f"(ite ({_SMT_CMPS[op]} {args[0]} {args[1]}) #b1 #b0)"
        if op is ex.Op.NE:
            return f"(ite (distinct {args[0]} {args[1]}) #b1 #b0)"
        if op is ex.Op.MULC:
            return f"(bvmul {args[0]} (_ bv{node.value} {node.width}))"
        if op is ex.Op.ITE:
            return f"(ite (= {args[0]} #b1) {args[1]} {args[2]})"
        if op is ex.Op.ZEXT:
            return f"((_ zero_extend {node.width - node.args[0].width}) {args[0]})"
        if op is ex.Op.EXTRACT:
            return f"((_ extract {node.value + node.width - 1} {node.value}) {args[0]})"
        raise AssertionError(f"unhandled op {op}")

    # Define shared internal nodes bottom-up (reverse of the DFS ordering).
    for node in reversed(order):
        if node.args and uses[node] > 1:
            body = _render(node)
            names[node] = f"e{counter}"
            lines.append(f"(define-fun e{counter} () (_ BitVec {node.width}) {body})")
            counter += 1

    lines.append(f"(assert (= {text_of(formula)} #b1))")
    lines.append("(check-sat)")
    if get_model:
        lines.append("(get-model)")
    return "\n".join(lines) + "\n"


_MODEL_RE = re.compile(
    r"\(define-fun\s+(\S+)\s*\(\)\s*\(_\s*BitVec\s*(\d+)\s*\)\s*"
    r"(#x[0-9a-fA-F]+|#b[01]+|\(_\s*bv(\d+)\s*\d+\s*\))", re.MULTILINE)


def parse_model(text: str, wanted: set[str]) -> dict[str, int]:
    """Extract bitvector assignments from a get-model response."""
    model: dict[str, int] = {}
    for m in _MODEL_RE.finditer(text):
        name, _width, value, bvdec = m.group(1), m.group(2), m.group(3), m.group(4)
        if name not in wanted:
            continue
        if value.startswith("#x"):
            model[name] = int(value[2:], 16)
        elif value.startswith("#b"):
            model[name] = int(value[2:], 2)
        else:
            model[name] = int(bvdec)
    return model


class SmtProcessBackend(SolverBackend):
    """Drives an external SMT-LIB2 solver process, e.g. ``z3 -in``."""

    name = "smt-process"

    def __init__(self, command: str | list[str], timeout_ms: int = 30000):
        super().__init__()
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.timeout_ms = timeout_ms

    def _solve(self, formula: Expr, timeout_ms: int | None) -> SolveResult:
        budget = (timeout_ms or self.timeout_ms) / 1000
        query = emit_query(formula)
        try:
            proc = subprocess.run(self.command, input=query, text=True,
                                  capture_output=True, timeout=budget)
        except subprocess.TimeoutExpired:
            return SolveResult("unknown")
        except OSError as e:
            raise SolverProcessError(f"cannot run solver {self.command}: {e}") from e
        out = proc.stdout.strip()
        first = out.split("\n", 1)[0].strip() if out else ""
        if first == "unsat":
            return SolveResult("unsat")
        if first == "unknown":
            return SolveResult("unknown")
        if first != "sat":
            raise SolverProcessError(
                f"solver {self.command[0]} said {first!r} (stderr: {proc.stderr.strip()[:200]})")
        model = parse_model(out, set(ex.var_widths(formula)))
        return SolveResult("sat", model)
