"""Scalar evaluation of one expression under one assignment, node by
node: the independent reference that the solver's packed-lane
evaluator (``symleak.solver``) and its models are checked against."""

from __future__ import annotations

from symleak.expr import Expr, Op, postorder


def evaluate(e: Expr, env: dict[str, int], _memo: dict[Expr, int] | None = None) -> int:
    """Evaluate under a complete valuation of the free variables.  A node
    already in ``_memo`` keeps its value there."""
    memo: dict[Expr, int] = {} if _memo is None else _memo
    for node in postorder([e]):
        if node not in memo:
            memo[node] = _eval_node(node, env, memo)
    return memo[e]


def _eval_node(e: Expr, env: dict[str, int], memo: dict[Expr, int]) -> int:
    m = (1 << e.width) - 1
    op = e.op
    if op is Op.CONST:
        return e.value
    if op is Op.VAR:
        try:
            return env[e.name] & m
        except KeyError:
            raise KeyError(f"no value for variable {e.name!r}") from None
    a = memo[e.args[0]]
    if op is Op.ZEXT:
        return a
    if op is Op.EXTRACT:
        return (a >> e.value) & m
    if op is Op.MULC:
        return (a * e.value) & m
    if op is Op.ITE:
        return memo[e.args[1]] if a else memo[e.args[2]]
    b = memo[e.args[1]]
    if op is Op.ADD:
        return (a + b) & m
    if op is Op.SUB:
        return (a - b) & m
    if op is Op.AND:
        return a & b
    if op is Op.OR:
        return a | b
    if op is Op.XOR:
        return a ^ b
    if op is Op.SHL:
        return (a << b) & m if b < e.width else 0
    if op is Op.LSHR:
        return (a >> b) & m if b < e.width else 0
    if op is Op.EQ:
        return int(a == b)
    if op is Op.NE:
        return int(a != b)
    if op is Op.ULT:
        return int(a < b)
    if op is Op.ULE:
        return int(a <= b)
    raise AssertionError(f"unhandled op {op}")

