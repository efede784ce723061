"""Fixed-width bitvector expressions with hash consing.

Every node is immutable and interned: structurally equal expressions are
the same Python object, so identity comparison, memoised traversal and
set membership are all cheap.  Smart constructors apply local
simplifications only (constant folding, x == x, masking identities);
they deliberately do no interval or solver reasoning, which belongs to
the cache model where it can be switched on and off.

The constructors also reassociate constants, as KLEE's expression
builders do: ``(x op c1) op c2`` becomes ``x op (c1 op c2)`` for ADD,
XOR, AND and OR, and ``mulc(mulc(x, a), b)`` becomes
``mulc(x, a*b mod 2**w)``.  So no ADD/XOR/AND/OR node has a constant
operand and a child of the same operator with a constant operand, and
a table-lookup round such as ``r := r ^ c`` repeated keeps alternating
between two interned nodes instead of growing a chain.  ``x - c`` is
built as ``x + (-c)``, so a base and a subtracted constant fold into
one.  Each rule is exact modulo 2**w.  Commutative operators (ADD, AND,
OR, XOR, EQ, NE) put a constant operand first and otherwise keep the
caller's order, so a node depends only on how it was built, never on
what the process built before it.

Widths are in bits.  All arithmetic is unsigned and wraps modulo 2**w.
Comparisons produce width-1 values, and the usual bitwise operators
double as boolean connectives at width 1.
"""

from __future__ import annotations

from collections.abc import Container

from .records import Frozen, set_field


class Op:
    """The operator tags of ``Expr`` nodes: one interned string each,
    compared by identity and used as dict keys."""

    CONST = "const"
    VAR = "var"
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"
    MULC = "mulc"
    EQ = "eq"
    NE = "ne"
    ULT = "ult"
    ULE = "ule"
    ITE = "ite"
    ZEXT = "zext"
    EXTRACT = "extract"


class Expr(Frozen):
    """One interned DAG node.  Do not construct directly; use the builders.

    Equality is identity: interning makes equal nodes the same object."""

    __slots__ = ("op", "width", "args", "value", "name", "is_const")

    def __init__(self, op: str, width: int, args: tuple[Expr, ...] = (),
                 value: int | None = None, name: str | None = None) -> None:
        set_field(self, "op", op)
        set_field(self, "width", width)
        set_field(self, "args", args)
        # CONST value, MULC factor or EXTRACT low bit; unused otherwise.
        set_field(self, "value", value)
        set_field(self, "name", name)
        set_field(self, "is_const", op is Op.CONST)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.op is Op.CONST:
            return f"{self.value}:{self.width}"
        if self.op is Op.VAR:
            return f"{self.name}:{self.width}"
        extra = f" {self.value}" if self.value is not None else ""
        return f"({self.op}{extra} " + " ".join(map(repr, self.args)) + ")"


_table: dict[tuple, Expr] = {}


def _intern(op: str, width: int, args: tuple[Expr, ...] = (),
            value: int | None = None, name: str | None = None) -> Expr:
    # Nodes hash and compare by identity, so the argument tuple itself
    # keys its node.
    key = (op, width, value, name, args)
    node = _table.get(key)
    if node is None:
        node = Expr(op, width, args, value, name)
        _table[key] = node
    return node


def const(value: int, width: int) -> Expr:
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return _intern(Op.CONST, width, value=value & ((1 << width) - 1))


def var(name: str, width: int) -> Expr:
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return _intern(Op.VAR, width, name=name)


TRUE = None  # populated below, after const() exists
FALSE = None


def _mask(width: int) -> int:
    return (1 << width) - 1


def _require_same_width(a: Expr, b: Expr, what: str) -> None:
    if a.width != b.width:
        raise ValueError(f"{what}: width mismatch {a.width} vs {b.width}")


def _split_const(e: Expr, op: str) -> tuple[Expr, int] | None:
    """``(y, c)`` when e is ``c op y`` for a constant c, else None; a
    constant operand of a commutative node is always its first."""
    if e.op is op and e.args[0].is_const:
        return e.args[1], e.args[0].value
    return None


def add(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "add")
    if a.is_const and b.is_const:
        return const(a.value + b.value, a.width)
    if b.is_const:
        a, b = b, a
    if a.is_const:
        if a.value == 0:
            return b
        inner = _split_const(b, Op.ADD)
        if inner is not None:
            return add(inner[0], const(inner[1] + a.value, a.width))
    return _intern(Op.ADD, a.width, (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "sub")
    if b.is_const:
        return add(a, const(-b.value, a.width))
    if a is b:
        return const(0, a.width)
    return _intern(Op.SUB, a.width, (a, b))


def and_(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "and")
    if a.is_const and b.is_const:
        return const(a.value & b.value, a.width)
    if b.is_const:
        a, b = b, a
    if a.is_const:
        if a.value == 0:
            return a
        if a.value == _mask(b.width):
            return b
        inner = _split_const(b, Op.AND)
        if inner is not None:
            return and_(inner[0], const(inner[1] & a.value, a.width))
    if a is b:
        return a
    return _intern(Op.AND, a.width, (a, b))


def or_(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "or")
    if a.is_const and b.is_const:
        return const(a.value | b.value, a.width)
    if b.is_const:
        a, b = b, a
    if a.is_const:
        if a.value == 0:
            return b
        if a.value == _mask(b.width):
            return a
        inner = _split_const(b, Op.OR)
        if inner is not None:
            return or_(inner[0], const(inner[1] | a.value, a.width))
    if a is b:
        return a
    return _intern(Op.OR, a.width, (a, b))


def xor(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "xor")
    if a.is_const and b.is_const:
        return const(a.value ^ b.value, a.width)
    if b.is_const:
        a, b = b, a
    if a.is_const:
        if a.value == 0:
            return b
        inner = _split_const(b, Op.XOR)
        if inner is not None:
            return xor(inner[0], const(inner[1] ^ a.value, a.width))
    if a is b:
        return const(0, a.width)
    return _intern(Op.XOR, a.width, (a, b))


def not_(a: Expr) -> Expr:
    if a.width != 1:
        raise ValueError("not_ requires a width-1 operand")
    return xor(a, const(1, 1))


def shl(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "shl")
    if b.is_const:
        if b.value == 0:
            return a
        if b.value >= a.width:
            return const(0, a.width)
        if a.is_const:
            return const(a.value << b.value, a.width)
    return _intern(Op.SHL, a.width, (a, b))


def lshr(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "lshr")
    if b.is_const:
        if b.value == 0:
            return a
        if b.value >= a.width:
            return const(0, a.width)
        if a.is_const:
            return const(a.value >> b.value, a.width)
    return _intern(Op.LSHR, a.width, (a, b))


def mulc(a: Expr, factor: int) -> Expr:
    """Multiply by a non-negative constant factor, taken modulo 2**w."""
    if factor < 0:
        raise ValueError("mulc factor must be non-negative")
    factor &= _mask(a.width)
    if factor == 0:
        return const(0, a.width)
    if factor == 1:
        return a
    if a.is_const:
        return const(a.value * factor, a.width)
    if a.op is Op.MULC:
        return mulc(a.args[0], a.value * factor)
    return _intern(Op.MULC, a.width, (a,), value=factor)


def eq(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "eq")
    if a.is_const and b.is_const:
        return const(int(a.value == b.value), 1)
    if a is b:
        return const(1, 1)
    if b.is_const:
        a, b = b, a
    return _intern(Op.EQ, 1, (a, b))


def ne(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "ne")
    if a.is_const and b.is_const:
        return const(int(a.value != b.value), 1)
    if a is b:
        return const(0, 1)
    if b.is_const:
        a, b = b, a
    return _intern(Op.NE, 1, (a, b))


def ult(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "ult")
    if a.is_const and b.is_const:
        return const(int(a.value < b.value), 1)
    if a is b:
        return const(0, 1)
    if b.is_const and b.value == 0:
        return const(0, 1)
    return _intern(Op.ULT, 1, (a, b))


def ule(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b, "ule")
    if a.is_const and b.is_const:
        return const(int(a.value <= b.value), 1)
    if a is b:
        return const(1, 1)
    if b.is_const and b.value == _mask(b.width):
        return const(1, 1)
    return _intern(Op.ULE, 1, (a, b))


def ite(c: Expr, t: Expr, f: Expr) -> Expr:
    if c.width != 1:
        raise ValueError("ite condition must have width 1")
    _require_same_width(t, f, "ite")
    if c.is_const:
        return t if c.value else f
    if t is f:
        return t
    return _intern(Op.ITE, t.width, (c, t, f))


def zext(a: Expr, width: int) -> Expr:
    if width < a.width:
        raise ValueError(f"zext target {width} narrower than operand {a.width}")
    if width == a.width:
        return a
    if a.is_const:
        return const(a.value, width)
    if a.op is Op.ZEXT:
        return zext(a.args[0], width)
    return _intern(Op.ZEXT, width, (a,))


def extract(a: Expr, lo: int, width: int) -> Expr:
    if lo < 0 or width <= 0 or lo + width > a.width:
        raise ValueError(f"extract [{lo}, {lo + width}) out of range for width {a.width}")
    if lo == 0 and width == a.width:
        return a
    if a.is_const:
        return const(a.value >> lo, width)
    if a.op is Op.ZEXT and lo == 0:
        inner = a.args[0]
        if width == inner.width:
            return inner
        if width > inner.width:
            return zext(inner, width)
    return _intern(Op.EXTRACT, width, (a,), value=lo)


def conj(terms: list[Expr]) -> Expr:
    """Conjunction of width-1 terms; the empty conjunction is true."""
    out = const(1, 1)
    for t in terms:
        out = and_(out, t)
    return out


def disj(terms: list[Expr]) -> Expr:
    """Disjunction of width-1 terms; the empty disjunction is false."""
    out = const(0, 1)
    for t in terms:
        out = or_(out, t)
    return out


def postorder(roots: list[Expr], done: Container[Expr] = ()) -> list[Expr]:
    """Every node reachable from ``roots`` but not through a node in
    ``done``, once each, after its arguments.  A caller that keeps a
    result per node passes the nodes it already has, so the walk lists
    only the new ones.  Iterative, so deep chains cannot hit the
    recursion limit; every walk over a formula DAG reads this order.  A
    None on the stack closes the node last opened."""
    order: list[Expr] = []
    opened: list[Expr] = []
    seen: set[Expr] = set()
    stack: list[Expr | None] = list(roots)
    while stack:
        node = stack.pop()
        if node is None:
            order.append(opened.pop())
        elif node not in seen and node not in done:
            seen.add(node)
            opened.append(node)
            stack.append(None)
            stack.extend(node.args)
    return order


def var_widths(e: Expr) -> dict[str, int]:
    """Width of every free variable in e."""
    return {n.name: n.width for n in postorder([e]) if n.op is Op.VAR}


def free_vars(e: Expr) -> frozenset[str]:
    """Names of all variables reachable from e."""
    return frozenset(var_widths(e))


TRUE = const(1, 1)
FALSE = const(0, 1)
