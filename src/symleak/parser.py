"""Parser for the concurrent mini-IR.

Grammar, one item per line or free-form (newlines are whitespace,
``#`` comments run to end of line)::

    array <name> [<len>] elem <bytes> at <base|symbolic> [secret|public = <const>]
    scalar <name> elem <bytes> at <base|symbolic> [secret|public = <const>]
    input <name> width <bits> secret
    input <name> width <bits> public = <const>
    thread <tid> [critical] { <stmt>* }

    stmt := <reg> := <expr>
          | load <reg>, <name>[<expr>]      (bare <name> for scalars)
          | store <name>[<expr>], <expr>
          | if (<expr>) { <stmt>* } [else { <stmt>* }]
          | for <var> in <lo>..<hi> { <stmt>* }

Expressions use integer literals, registers and inputs with
``+ - & | ^ << >> == != < <=`` at C-like precedence.  Statements record
the source line of their first token, which names the access site in
reports.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .ir import (Assign, BinOp, Declaration, Fixed, For, If, IRExpr, Load,
                 Name, Num, PRECEDENCE, Program, PublicInput, SecretInput,
                 Sensitivity, Stmt, Store, SymbolicBase, Thread, base_var,
                 parse_var)
from .records import Frozen, set_field

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<num>0x[0-9a-fA-F]+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|<<|>>|==|!=|<=|\.\.|[][(){}<>+\-&|^=,])
""", re.VERBOSE)

_KEYWORDS = {"array", "scalar", "input", "thread", "critical", "secret",
             "public", "elem", "at", "width", "symbolic", "load", "store",
             "if", "else", "for", "in"}


class Token(Frozen):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        set_field(self, "kind", kind)  # "num" | "ident" | "op" | "eof"
        set_field(self, "text", text)
        set_field(self, "line", line)
        set_field(self, "col", col)


def _number(tok: Token) -> int:
    try:
        return int(tok.text, 0)
    except ValueError:  # a decimal with a leading zero, such as 08
        raise ParseError(f"bad number {tok.text!r}", tok.line, tok.col) from None


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(Token(kind, chunk, line, col))
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.marked: list[int] = []  # tids of the threads marked critical

    # -- token helpers ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.next()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def expect_num(self) -> int:
        tok = self.next()
        if tok.kind != "num":
            raise ParseError(f"expected number, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return _number(tok)

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # -- program ----------------------------------------------------------

    def parse_program(self) -> Program:
        decls: list[Declaration] = []
        secrets: list[SecretInput] = []
        publics: list[PublicInput] = []
        threads: list[Thread] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text in ("array", "scalar"):
                decls.append(self.parse_decl())
            elif tok.text == "input":
                item = self.parse_input()
                (secrets if isinstance(item, SecretInput) else publics).append(item)
            elif tok.text == "thread":
                threads.append(self.parse_thread())
            else:
                raise ParseError(f"expected declaration, input or thread, found {tok.text!r}",
                                 tok.line, tok.col)
        return _validate(decls, secrets, publics, threads, self.marked)

    def parse_decl(self) -> Declaration:
        kw = self.next()
        kind = kw.text
        name = self.expect_ident("declaration name").text
        length = 1
        if kind == "array":
            self.expect("[")
            length = self.expect_num()
            self.expect("]")
            if length <= 0:
                raise ParseError(f"array {name!r} must have positive length", kw.line)
        self.expect("elem")
        elem = self.expect_num()
        if elem <= 0 or elem & (elem - 1):
            raise ParseError(f"elem size of {name!r} must be a power of two, got {elem}", kw.line)
        self.expect("at")
        if self.at("symbolic"):
            self.next()
            placement: Fixed | SymbolicBase = SymbolicBase(base_var(name))
        else:
            placement = Fixed(self.expect_num())
        sensitivity = Sensitivity.DERIVED
        contents: tuple[int, ...] | None = None
        if self.at("secret"):
            self.next()
            sensitivity = Sensitivity.SECRET
        elif self.at("public"):
            self.next()
            sensitivity = Sensitivity.PUBLIC
            self.expect("=")
            fill = self.expect_num()
            contents = (fill,) * length
        return Declaration(name, kind, elem, length, placement, sensitivity, contents)

    def parse_input(self) -> SecretInput | PublicInput:
        kw = self.expect("input")
        name = self.expect_ident("input name").text
        self.expect("width")
        width = self.expect_num()
        if not 0 < width <= 32:
            raise ParseError(f"input {name!r} width must be in 1..32, got {width}", kw.line)
        tok = self.next()
        if tok.text == "secret":
            return SecretInput(name, width)
        if tok.text == "public":
            self.expect("=")
            value = self.expect_num()
            if value >= 1 << width:
                raise ParseError(
                    f"input {name!r} value {value} does not fit in {width} bits", kw.line)
            return PublicInput(name, width, value)
        raise ParseError(f"expected 'secret' or 'public', found {tok.text!r}", tok.line, tok.col)

    def parse_thread(self) -> Thread:
        self.expect("thread")
        tid = self.expect_num()
        if self.at("critical"):
            self.next()
            self.marked.append(tid)
        self.expect("{")
        return Thread(tid, self.parse_block())

    def parse_block(self) -> tuple[Stmt, ...]:
        stmts: list[Stmt] = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                tok = self.peek()
                raise ParseError("unterminated block", tok.line, tok.col)
            stmts.append(self.parse_stmt())
        self.expect("}")
        return tuple(stmts)

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.text == "load":
            self.next()
            dst = self.expect_ident("register").text
            self.expect(",")
            decl, index = self.parse_ref()
            return Load(dst, decl, index, tok.line)
        if tok.text == "store":
            self.next()
            decl, index = self.parse_ref()
            self.expect(",")
            value = self.parse_expr()
            return Store(decl, index, value, tok.line)
        if tok.text == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect("{")
            then_body = self.parse_block()
            else_body: tuple[Stmt, ...] = ()
            if self.at("else"):
                self.next()
                self.expect("{")
                else_body = self.parse_block()
            return If(cond, then_body, else_body, tok.line)
        if tok.text == "for":
            self.next()
            ivar = self.expect_ident("loop variable").text
            self.expect("in")
            lo = self.expect_num()
            self.expect("..")
            hi = self.expect_num()
            self.expect("{")
            body = self.parse_block()
            if hi < lo:
                raise ParseError(f"loop bounds {lo}..{hi} are reversed", tok.line)
            return For(ivar, lo, hi, body, tok.line)
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            dst = self.next().text
            self.expect(":=")
            return Assign(dst, self.parse_expr(), tok.line)
        raise ParseError(f"expected statement, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def parse_ref(self) -> tuple[str, IRExpr]:
        name = self.expect_ident("memory name").text
        if self.at("["):
            self.next()
            index = self.parse_expr()
            self.expect("]")
            return name, index
        return name, Num(0)

    # -- expressions ------------------------------------------------------

    def parse_expr(self, level: int = 0) -> IRExpr:
        if level == len(PRECEDENCE):
            return self.parse_primary()
        node = self.parse_expr(level + 1)
        while self.peek().text in PRECEDENCE[level]:
            op = self.next().text
            rhs = self.parse_expr(level + 1)
            node = BinOp(op, node, rhs)
        return node

    def parse_primary(self) -> IRExpr:
        tok = self.next()
        if tok.kind == "num":
            return Num(_number(tok))
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            return Name(tok.text)
        if tok.text == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(f"expected expression, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)


# ---------------------------------------------------------------------------
# Validation

def _expr_names(e: IRExpr) -> set[str]:
    if isinstance(e, Num):
        return set()
    if isinstance(e, Name):
        return {e.ident}
    return _expr_names(e.lhs) | _expr_names(e.rhs)


def _check_body(body: tuple[Stmt, ...], defined: set[str], known: set[str],
                decls: dict[str, Declaration], loop_vars: set[str]) -> set[str]:
    """Walk a block tracking definitely-assigned registers; returns the
    register set defined after the block."""
    live = set(defined)
    for s in body:
        if isinstance(s, Assign):
            _check_uses(s.expr, live, known, loop_vars, s.line)
            _check_dst(s.dst, known, decls, loop_vars, s.line)
            live.add(s.dst)
        elif isinstance(s, Load):
            if s.decl not in decls:
                raise ParseError(f"load from undeclared memory {s.decl!r}", s.line)
            _check_index(decls[s.decl], s.index, s.line)
            _check_uses(s.index, live, known, loop_vars, s.line)
            _check_dst(s.dst, known, decls, loop_vars, s.line)
            live.add(s.dst)
        elif isinstance(s, Store):
            if s.decl not in decls:
                raise ParseError(f"store to undeclared memory {s.decl!r}", s.line)
            _check_index(decls[s.decl], s.index, s.line)
            _check_uses(s.index, live, known, loop_vars, s.line)
            _check_uses(s.value, live, known, loop_vars, s.line)
        elif isinstance(s, If):
            _check_uses(s.cond, live, known, loop_vars, s.line)
            t = _check_body(s.then_body, live, known, decls, loop_vars)
            e = _check_body(s.else_body, live, known, decls, loop_vars)
            live |= t & e
        elif isinstance(s, For):
            if s.var in known or s.var in loop_vars:
                raise ParseError(f"loop variable {s.var!r} shadows an existing name", s.line)
            inner = _check_body(s.body, live, known, decls, loop_vars | {s.var})
            if s.hi > s.lo:
                live |= inner
        else:
            raise AssertionError(f"unhandled statement {s!r}")
    return live


def _check_index(decl: Declaration, index: IRExpr, line: int) -> None:
    if decl.kind == "scalar" and index != Num(0):
        raise ParseError(f"scalar {decl.name!r} takes no index", line)


def _check_dst(dst: str, known: set[str], decls: dict[str, Declaration],
               loop_vars: set[str], line: int) -> None:
    if dst in known or dst in decls or dst in loop_vars:
        raise ParseError(f"cannot assign to non-register name {dst!r}", line)


def _check_uses(e: IRExpr, live: set[str], known: set[str],
                loop_vars: set[str], line: int) -> None:
    for ident in sorted(_expr_names(e)):
        if ident in live or ident in known or ident in loop_vars:
            continue
        raise ParseError(f"use of unassigned register or undeclared input {ident!r}", line)


def _validate(decls: list[Declaration], secrets: list[SecretInput],
              publics: list[PublicInput], threads: list[Thread],
              marked: list[int]) -> Program:
    names: set[str] = set()
    for d in decls:
        if d.name in names:
            raise ParseError(f"duplicate declaration {d.name!r}")
        names.add(d.name)
    decl_names = set(names)
    for inp in [*secrets, *publics]:
        if inp.name in names:
            raise ParseError(f"duplicate name {inp.name!r}")
        names.add(inp.name)
        var = parse_var(inp.name, decl_names)
        if var is not None:  # it would be the same solver variable
            raise ParseError(f"input name {inp.name!r} is reserved for "
                             f"a variable of declaration {var[1]!r}")

    placed = sorted(
        (d.placement.base, d.placement.base + d.byte_size, d.name)
        for d in decls if isinstance(d.placement, Fixed)
    )
    for (lo1, hi1, n1), (lo2, hi2, n2) in zip(placed, placed[1:]):
        if lo2 < hi1:
            raise ParseError(f"declarations {n1!r} and {n2!r} overlap in memory")

    if not threads:
        raise ParseError("program has no threads")
    tids = [t.tid for t in threads]
    if len(set(tids)) != len(tids):
        raise ParseError("duplicate thread id")
    if len(threads) == 1:
        critical_tid = marked[0] if marked else threads[0].tid
    elif len(marked) == 1:
        critical_tid = marked[0]
    else:
        raise ParseError("exactly one thread must be marked critical")

    decl_map = {d.name: d for d in decls}
    input_names = {s.name for s in secrets} | {p.name for p in publics}
    for t in threads:
        _check_body(t.body, set(), input_names, decl_map, set())

    return Program(tuple(decls), tuple(secrets), tuple(publics), tuple(threads), critical_tid)


def parse_program(text: str) -> Program:
    """Parse source text into a validated Program."""
    return _Parser(text).parse_program()
