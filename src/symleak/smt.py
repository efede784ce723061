"""SMT-LIB2 emission and the backend that drives an external solver.

SmtProcessBackend prints each query as SMT-LIB2 (QF_BV) and pipes it
through an external solver executable such as ``z3 -in``, one process
per query, killed once it outlives the backend's ``timeout_ms`` (the
query then answers "unknown"; None: no deadline).  A query's shared
nodes are numbered define-funs in ``expr.postorder``'s order, so one
formula always prints the same bytes.  The names it invents, ``$e<n>``
for a shared node and ``<var>$1``, ``<var>$2`` for the two copies of a
duplicated variable, hold a ``$``, which no IR identifier can, in
different places: none names a program variable or another.

The divergence query has no solver-side shortcut here: the backend
instantiates the path condition and tau over two renamed copies of the
duplicated variables, asks for the copies to differ on a distinct
variable and for tau to differ, and solves that one formula.  It needs
no memo of its own, since a repeat rebuilds the same interned formula
and ``check`` answers it.

The command line loads this module only for ``analyze --solver``.
"""

from __future__ import annotations

import re

from . import expr as ex
from .errors import SolverProcessError
from .expr import Expr
from .solver import DEFAULT_TIMEOUT_MS, DivergenceResult, SolverBackend, SolveResult


_SMT_BINOPS = {
    ex.Op.ADD: "bvadd", ex.Op.SUB: "bvsub", ex.Op.AND: "bvand",
    ex.Op.OR: "bvor", ex.Op.XOR: "bvxor", ex.Op.SHL: "bvshl",
    ex.Op.LSHR: "bvlshr",
}
_SMT_CMPS = {ex.Op.EQ: "=", ex.Op.ULT: "bvult", ex.Op.ULE: "bvule"}


def _smt_node(node: Expr, args: list[str]) -> str:
    """SMT-LIB2 text of one node, given the text of its arguments."""
    op = node.op
    if op is ex.Op.CONST:
        return f"(_ bv{node.value} {node.width})"
    if op is ex.Op.VAR:
        return node.name
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


def emit_query(formula: Expr) -> str:
    """Serialise a width-1 formula as an SMT-LIB2 script.

    One ``expr.postorder`` of the formula serves to count each node's
    parents, collect the variables to declare and build each node's
    text from its arguments' text.  Shared internal nodes are numbered
    define-funs in that order, each defined before any use.
    """
    if formula.width != 1:
        raise ValueError("emit_query expects a width-1 formula")
    order = ex.postorder([formula])
    parents: dict[Expr, int] = {}
    widths: dict[str, int] = {}
    for node in order:
        if node.op is ex.Op.VAR:
            widths[node.name] = node.width
        for a in node.args:
            parents[a] = parents.get(a, 0) + 1
    lines = ["(set-logic QF_BV)"]
    for n in sorted(widths):
        lines.append(f"(declare-fun {n} () (_ BitVec {widths[n]}))")
    text: dict[Expr, str] = {}
    defined = 0
    for node in order:
        body = _smt_node(node, [text[a] for a in node.args])
        if node.args and parents.get(node, 0) > 1:
            lines.append(f"(define-fun $e{defined} () (_ BitVec {node.width}) {body})")
            body = f"$e{defined}"
            defined += 1
        text[node] = body
    lines.append(f"(assert (= {text[formula]} #b1))")
    lines += ["(check-sat)", "(get-model)"]
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


def substitute(e: Expr, env: dict[str, Expr]) -> Expr:
    """Replace free variables by expressions, rebuilding through the folders."""
    memo: dict[Expr, Expr] = {}
    for node in ex.postorder([e]):
        memo[node] = _subst_node(node, env, memo)
    return memo[e]


def _subst_node(e: Expr, env: dict[str, Expr], memo: dict[Expr, Expr]) -> Expr:
    op = e.op
    if op is ex.Op.CONST:
        return e
    if op is ex.Op.VAR:
        repl = env.get(e.name)
        if repl is None:
            return e
        if repl.width != e.width:
            raise ValueError(f"substitute {e.name!r}: width {repl.width} != {e.width}")
        return repl
    args = tuple(memo[a] for a in e.args)
    if args == e.args:
        return e
    if op is ex.Op.ADD:
        return ex.add(*args)
    if op is ex.Op.SUB:
        return ex.sub(*args)
    if op is ex.Op.AND:
        return ex.and_(*args)
    if op is ex.Op.OR:
        return ex.or_(*args)
    if op is ex.Op.XOR:
        return ex.xor(*args)
    if op is ex.Op.SHL:
        return ex.shl(*args)
    if op is ex.Op.LSHR:
        return ex.lshr(*args)
    if op is ex.Op.MULC:
        return ex.mulc(args[0], e.value)
    if op is ex.Op.EQ:
        return ex.eq(*args)
    if op is ex.Op.NE:
        return ex.ne(*args)
    if op is ex.Op.ULT:
        return ex.ult(*args)
    if op is ex.Op.ULE:
        return ex.ule(*args)
    if op is ex.Op.ITE:
        return ex.ite(*args)
    if op is ex.Op.ZEXT:
        return ex.zext(args[0], e.width)
    if op is ex.Op.EXTRACT:
        return ex.extract(args[0], e.value, e.width)
    raise AssertionError(f"unhandled op {op}")


class SmtProcessBackend(SolverBackend):
    """Drives an external SMT-LIB2 solver process, e.g. ``z3 -in``."""

    def __init__(self, command: str | list[str],
                 timeout_ms: int | None = DEFAULT_TIMEOUT_MS):
        super().__init__(timeout_ms)
        if isinstance(command, str):
            import shlex  # only an external solver pays for loading it
            command = shlex.split(command)
        self.command = list(command)

    def check_divergence(self, tau: Expr, pcon: Expr, duplicated: list[str],
                         distinct: list[str]) -> DivergenceResult:
        """Instantiates the constraint twice over renamed variable families
        and solves the combined formula through ``check``, whose memo
        answers a repeat.  A duplicated variable that the constraint does
        not name reads 0 in both models, as in ``EnumerativeBackend``.
        The result is read-only, as ``check``'s is.
        """
        widths = ex.var_widths(tau) | ex.var_widths(pcon)
        fam_a = {n: ex.var(f"{n}$1", widths[n]) for n in duplicated if n in widths}
        fam_b = {n: ex.var(f"{n}$2", widths[n]) for n in fam_a}
        parts = [substitute(pcon, fam_a), substitute(pcon, fam_b)]
        if distinct:
            parts.append(ex.disj([ex.ne(fam_a[n], fam_b[n])
                                  for n in sorted(distinct) if n in fam_a]))
        parts.append(ex.xor(substitute(tau, fam_a), substitute(tau, fam_b)))
        res = self.check(ex.conj(parts))
        if res.status != "sat":
            return DivergenceResult(res.status)
        model = res.model or {}
        shared = {n: v for n, v in model.items() if "$" not in n}
        m_a = dict(shared)
        m_b = dict(shared)
        for n in duplicated:
            m_a[n] = model.get(f"{n}$1", 0)
            m_b[n] = model.get(f"{n}$2", 0)
        return DivergenceResult("sat", m_a, m_b)

    def _solve(self, formula: Expr) -> SolveResult:
        import subprocess  # only an external solver pays for loading it
        budget = None if self.timeout_ms is None else self.timeout_ms / 1000
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
