"""Program text from a parsed program: the inverse of the parser.

``pretty`` renders a program as source text with the fewest
parentheses the operator precedence allows.  Parsing that text and
printing it again gives the same text.  The reparsed program is not
always equal to the original, since statements may move to other
source lines.  The command line loads this module only for ``print-ir``.
"""

from __future__ import annotations

from .ir import (PRECEDENCE, Assign, Declaration, For, If, IRExpr, Load, Name,
                 Num, Program, Sensitivity, Stmt, Store, SymbolicBase)


_PREC_OF: dict[str, int] = {op: i for i, level in enumerate(PRECEDENCE) for op in level}


def _expr_str(e: IRExpr, parent_prec: int = -1) -> str:
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Name):
        return e.ident
    prec = _PREC_OF[e.op]
    # Same-level operands associate left, so the right child needs parens.
    lhs = _expr_str(e.lhs, prec - 1)
    rhs = _expr_str(e.rhs, prec)
    text = f"{lhs} {e.op} {rhs}"
    if prec <= parent_prec:
        return f"({text})"
    return text


def _ref_str(decl_name: str, index: IRExpr, decls: dict[str, Declaration]) -> str:
    d = decls.get(decl_name)
    if d is not None and d.kind == "scalar" and index == Num(0):
        return decl_name
    return f"{decl_name}[{_expr_str(index)}]"


def _stmt_lines(s: Stmt, indent: int, decls: dict[str, Declaration]) -> list[str]:
    pad = "  " * indent
    if isinstance(s, Assign):
        return [f"{pad}{s.dst} := {_expr_str(s.expr)}"]
    if isinstance(s, Load):
        return [f"{pad}load {s.dst}, {_ref_str(s.decl, s.index, decls)}"]
    if isinstance(s, Store):
        return [f"{pad}store {_ref_str(s.decl, s.index, decls)}, {_expr_str(s.value)}"]
    if isinstance(s, If):
        out = [f"{pad}if ({_expr_str(s.cond)}) {{"]
        for inner in s.then_body:
            out.extend(_stmt_lines(inner, indent + 1, decls))
        if s.else_body:
            out.append(f"{pad}}} else {{")
            for inner in s.else_body:
                out.extend(_stmt_lines(inner, indent + 1, decls))
        out.append(f"{pad}}}")
        return out
    if isinstance(s, For):
        out = [f"{pad}for {s.var} in {s.lo}..{s.hi} {{"]
        for inner in s.body:
            out.extend(_stmt_lines(inner, indent + 1, decls))
        out.append(f"{pad}}}")
        return out
    raise AssertionError(f"unhandled statement {s!r}")


def pretty(p: Program) -> str:
    """Render a program as parseable source text."""
    decls = {d.name: d for d in p.decls}
    lines: list[str] = []
    for d in p.decls:
        head = f"array {d.name} [{d.length}]" if d.kind == "array" else f"scalar {d.name}"
        place = "symbolic" if isinstance(d.placement, SymbolicBase) else str(d.placement.base)
        item = f"{head} elem {d.elem_size} at {place}"
        if d.sensitivity is Sensitivity.SECRET:
            item += " secret"
        elif d.sensitivity is Sensitivity.PUBLIC:
            fill = d.contents[0] if d.contents else 0
            item += f" public = {fill}"
        lines.append(item)
    for s in p.secret_inputs:
        lines.append(f"input {s.name} width {s.width} secret")
    for s in p.public_inputs:
        lines.append(f"input {s.name} width {s.width} public = {s.value}")
    for t in p.threads:
        mark = " critical" if t.tid == p.critical_tid and len(p.threads) > 1 else ""
        lines.append(f"thread {t.tid}{mark} {{")
        for s in t.body:
            lines.extend(_stmt_lines(s, 1, decls))
        lines.append("}")
    return "\n".join(lines) + "\n"
