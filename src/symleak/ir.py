"""Program representation for the concurrent mini-IR.

A program is a set of memory declarations, secret and public inputs,
and one thread body per thread id.  Exactly one thread is the critical
thread whose accesses the adversary observes.  Statement and expression
nodes are read-only records with value equality, so parsed programs
compare structurally, which the round-trip tests rely on.
"""

from __future__ import annotations

from .records import Frozen, Value, set_field


class Sensitivity:
    """A declaration's sensitivity tags, compared by identity."""

    SECRET = "secret"
    PUBLIC = "public"
    DERIVED = "derived"


class Fixed(Value, Frozen):
    __slots__ = ("base",)

    def __init__(self, base: int) -> None:
        set_field(self, "base", base)


class SymbolicBase(Value, Frozen):
    __slots__ = ("var",)

    def __init__(self, var: str) -> None:
        set_field(self, "var", var)


Placement = Fixed | SymbolicBase


class Declaration(Value, Frozen):
    __slots__ = ("name", "kind", "elem_size", "length", "placement",
                 "sensitivity", "contents")

    def __init__(self, name: str, kind: str, elem_size: int, length: int,
                 placement: Placement,
                 sensitivity: str = Sensitivity.DERIVED,
                 contents: tuple[int, ...] | None = None) -> None:
        set_field(self, "name", name)
        set_field(self, "kind", kind)  # "array" | "scalar"
        set_field(self, "elem_size", elem_size)
        set_field(self, "length", length)
        set_field(self, "placement", placement)
        set_field(self, "sensitivity", sensitivity)
        # Optional concrete contents, one value per element.  The grammar
        # can only express a uniform fill; richer tables are set
        # programmatically.
        set_field(self, "contents", contents)

    @property
    def byte_size(self) -> int:
        return self.elem_size * self.length


class SecretInput(Value, Frozen):
    __slots__ = ("name", "width")

    def __init__(self, name: str, width: int) -> None:
        set_field(self, "name", name)
        set_field(self, "width", width)


class PublicInput(Value, Frozen):
    __slots__ = ("name", "width", "value")

    def __init__(self, name: str, width: int, value: int) -> None:
        set_field(self, "name", name)
        set_field(self, "width", width)
        set_field(self, "value", value)


# ---------------------------------------------------------------------------
# Expressions (syntactic; resolved against registers and inputs at run time)

class Num(Value, Frozen):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        set_field(self, "value", value)


class Name(Value, Frozen):
    __slots__ = ("ident",)

    def __init__(self, ident: str) -> None:
        set_field(self, "ident", ident)


class BinOp(Value, Frozen):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: IRExpr, rhs: IRExpr) -> None:
        set_field(self, "op", op)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


IRExpr = Num | Name | BinOp

# Binary operators by increasing binding strength, C style: bitwise ops
# bind more loosely than comparisons, shifts more tightly than both.
PRECEDENCE: tuple[tuple[str, ...], ...] = (
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<="),
    ("<<", ">>"),
    ("+", "-"),
)


# ---------------------------------------------------------------------------
# Statements

class Assign(Value, Frozen):
    __slots__ = ("dst", "expr", "line")

    def __init__(self, dst: str, expr: IRExpr, line: int = 0) -> None:
        set_field(self, "dst", dst)
        set_field(self, "expr", expr)
        set_field(self, "line", line)


class Load(Value, Frozen):
    __slots__ = ("dst", "decl", "index", "line")

    def __init__(self, dst: str, decl: str, index: IRExpr, line: int = 0) -> None:
        set_field(self, "dst", dst)
        set_field(self, "decl", decl)
        set_field(self, "index", index)
        set_field(self, "line", line)


class Store(Value, Frozen):
    __slots__ = ("decl", "index", "value", "line")

    def __init__(self, decl: str, index: IRExpr, value: IRExpr,
                 line: int = 0) -> None:
        set_field(self, "decl", decl)
        set_field(self, "index", index)
        set_field(self, "value", value)
        set_field(self, "line", line)


class If(Value, Frozen):
    __slots__ = ("cond", "then_body", "else_body", "line")

    def __init__(self, cond: IRExpr, then_body: tuple[Stmt, ...],
                 else_body: tuple[Stmt, ...] = (), line: int = 0) -> None:
        set_field(self, "cond", cond)
        set_field(self, "then_body", then_body)
        set_field(self, "else_body", else_body)
        set_field(self, "line", line)


class For(Value, Frozen):
    __slots__ = ("var", "lo", "hi", "body", "line")

    def __init__(self, var: str, lo: int, hi: int, body: tuple[Stmt, ...],
                 line: int = 0) -> None:
        set_field(self, "var", var)
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "body", body)
        set_field(self, "line", line)


Stmt = Assign | Load | Store | If | For


class Thread(Value, Frozen):
    __slots__ = ("tid", "body")

    def __init__(self, tid: int, body: tuple[Stmt, ...]) -> None:
        set_field(self, "tid", tid)
        set_field(self, "body", body)


class Program(Value, Frozen):
    __slots__ = ("decls", "secret_inputs", "public_inputs", "threads",
                 "critical_tid")

    def __init__(self, decls: tuple[Declaration, ...],
                 secret_inputs: tuple[SecretInput, ...],
                 public_inputs: tuple[PublicInput, ...],
                 threads: tuple[Thread, ...], critical_tid: int) -> None:
        set_field(self, "decls", decls)
        set_field(self, "secret_inputs", secret_inputs)
        set_field(self, "public_inputs", public_inputs)
        set_field(self, "threads", threads)
        set_field(self, "critical_tid", critical_tid)

    def decl(self, name: str) -> Declaration:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(name)
