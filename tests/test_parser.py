"""Front-end: grammar, line pinning and validation.

The language is free-form, but statement line numbers feed directly
into site names and schedule replay, so several tests pin them down.
"""

import pytest

from symleak import parse_program
from symleak.errors import ParseError
from symleak.ir import (Assign, BinOp, Fixed, For, If, Load, Name, Num,
                        Sensitivity, Store, SymbolicBase)
from symleak.printer import pretty


def test_declarations_and_inputs():
    p = parse_program("""
        array t[16] elem 4 at 0x100
        scalar flag elem 1 at 0 public = 3
        array key[4] elem 1 at 0x200 secret
        input k width 8 secret
        input mode width 2 public = 1
        thread 1 { load r, t[k] }
    """)
    t, flag, key = p.decls
    assert (t.kind, t.length, t.elem_size, t.placement) == ("array", 16, 4, Fixed(256))
    assert t.sensitivity is Sensitivity.DERIVED
    assert t.contents is None
    assert flag.sensitivity is Sensitivity.PUBLIC
    assert flag.contents == (3,)
    assert key.sensitivity is Sensitivity.SECRET
    assert p.secret_inputs[0].width == 8
    assert p.public_inputs[0].value == 1
    assert p.critical_tid == 1


def test_public_fill_replicates_across_array():
    p = parse_program("array s[5] elem 1 at 0 public = 9\nthread 1 { load r, s[0] }")
    assert p.decls[0].contents == (9, 9, 9, 9, 9)


def test_symbolic_placement_names_base_variable():
    p = parse_program("scalar probe elem 1 at symbolic\nthread 1 { load r, probe }")
    assert p.decls[0].placement == SymbolicBase("probe_base")


def test_statement_line_numbers_follow_source():
    src = ("input k width 8 secret\n"
           "array a[4] elem 1 at 0\n"
           "thread 1 {\n"
           "  load r1, a[k & 3]\n"       # line 4
           "  if (k == 0) {\n"            # line 5
           "    store a[0], r1\n"         # line 6
           "  }\n"
           "}\n")
    p = parse_program(src)
    body = p.threads[0].body
    assert isinstance(body[0], Load) and body[0].line == 4
    assert isinstance(body[1], If) and body[1].line == 5
    assert body[1].then_body[0].line == 6


def test_freeform_layout_one_line():
    p = parse_program("input k width 4 secret array a[16] elem 1 at 0 "
                      "thread 1 { load r, a[k] store a[k], r + 1 }")
    body = p.threads[0].body
    assert isinstance(body[0], Load) and isinstance(body[1], Store)
    assert body[0].line == body[1].line == 1


def test_comments_and_hex_literals():
    p = parse_program("""
        # layout
        array a[4] elem 1 at 0x10   # base 16
        thread 1 { r := 0xff load q, a[r & 3] }
    """)
    assert p.decls[0].placement == Fixed(16)
    assert p.threads[0].body[0].expr == Num(255)


@pytest.mark.parametrize("number", ["08", "007"])
def test_malformed_number_rejected(number):
    # Python's int() rejects a decimal with a leading zero; the parser
    # reports it as a parse error, not a ValueError.
    with pytest.raises(ParseError, match=f"line 1, col 20: bad number '{number}'"):
        parse_program(f"scalar a elem 1 at {number} thread 1 critical {{ load r, a }}")


def test_expression_precedence():
    p = parse_program("input k width 8 secret\nthread 1 { r := k + 1 << 2 & 3 }")
    e = p.threads[0].body[0].expr
    # & binds loosest, then <<, then +.
    assert isinstance(e, BinOp) and e.op == "&"
    assert isinstance(e.lhs, BinOp) and e.lhs.op == "<<"
    assert e.lhs.lhs == BinOp("+", Name("k"), Num(1))


def test_parenthesized_expression():
    p = parse_program("input k width 8 secret\nthread 1 { r := (k + 1) & 3 }")
    e = p.threads[0].body[0].expr
    assert e == BinOp("&", BinOp("+", Name("k"), Num(1)), Num(3))


def test_for_and_assign():
    p = parse_program("""
        array a[8] elem 1 at 0
        thread 1 {
            acc := 0
            for i in 0..4 { load v, a[i] acc := acc + v }
        }
    """)
    loop = p.threads[0].body[1]
    assert isinstance(loop, For) and (loop.lo, loop.hi) == (0, 4)
    assert isinstance(loop.body[1], Assign)


def test_scalar_reference_without_index():
    p = parse_program("scalar s elem 2 at 8\nthread 1 { load r, s store s, r }")
    assert p.threads[0].body[0].index == Num(0)
    with pytest.raises(ParseError, match="takes no index"):
        parse_program("scalar s elem 2 at 8\nthread 1 { load r, s[1] }")


def test_overlapping_placements_rejected():
    with pytest.raises(ParseError, match="overlap"):
        parse_program("""
            array a[16] elem 1 at 0
            scalar b elem 4 at 12
            thread 1 { load r, a[0] }
        """)


def test_adjacent_placements_allowed():
    parse_program("""
        array a[16] elem 1 at 0
        scalar b elem 4 at 16
        thread 1 { load r, a[0] }
    """)


def test_duplicate_names_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_program("array a[2] elem 1 at 0\narray a[2] elem 1 at 8\n"
                      "thread 1 { load r, a[0] }")
    with pytest.raises(ParseError, match="duplicate"):
        parse_program("array a[2] elem 1 at 0\ninput a width 4 secret\n"
                      "thread 1 { load r, a[0] }")


@pytest.mark.parametrize("name", ["t_base", "cell_t_0", "ld3_t"],
                         ids=["base", "cell", "ld"])
def test_input_named_like_an_analysis_variable_rejected(name):
    # The analysis names a symbolic base, a never-written cell and an
    # unknown read after their declaration; an input of that name would
    # be the same solver variable.
    rest = f"input {name} width 4 secret\nthread 1 {{ load r, p[{name}] }}"
    with pytest.raises(ParseError, match=f"{name!r} is reserved .* 't'"):
        parse_program(f"array p[16] elem 1 at 0\narray t[4] elem 1 at symbolic\n{rest}")
    # The same name is an ordinary input when no declaration owns it.
    parse_program(f"array p[16] elem 1 at 0\narray u[4] elem 1 at symbolic\n{rest}")


def test_thread_validation():
    with pytest.raises(ParseError, match="no threads"):
        parse_program("array a[2] elem 1 at 0")
    with pytest.raises(ParseError, match="duplicate thread id"):
        parse_program("array a[2] elem 1 at 0\nthread 1 { load r, a[0] }\n"
                      "thread 1 { load q, a[1] }")
    with pytest.raises(ParseError, match="critical"):
        parse_program("array a[2] elem 1 at 0\nthread 1 { load r, a[0] }\n"
                      "thread 2 { load q, a[1] }")


def test_single_thread_is_implicitly_critical():
    p = parse_program("array a[2] elem 1 at 0\nthread 7 { load r, a[0] }")
    assert p.critical_tid == 7


def test_printing_a_marked_single_thread_keeps_the_program():
    # ``pretty`` drops the redundant mark on a lone thread; the program
    # it prints is still the one parsed, with the same critical thread.
    p = parse_program("array p[256] elem 1 at 0\ninput k width 4 secret\n"
                      "thread 1 critical {\n  load r1, p[k]\n}\n")
    assert parse_program(pretty(p)) == p


def test_undeclared_and_unassigned_names_rejected():
    with pytest.raises(ParseError, match="undeclared memory"):
        parse_program("thread 1 { load r, nowhere[0] }")
    with pytest.raises(ParseError, match="unassigned register"):
        parse_program("array a[2] elem 1 at 0\nthread 1 { load r, a[ghost] }")
    with pytest.raises(ParseError, match="cannot assign"):
        parse_program("input k width 8 secret\narray a[2] elem 1 at 0\n"
                      "thread 1 { k := 1 }")


def test_branch_join_keeps_only_common_registers():
    # r2 is assigned on one arm only, so using it after the join is an error.
    with pytest.raises(ParseError, match="unassigned"):
        parse_program("""
            input k width 8 secret
            thread 1 {
                if (k == 0) { r2 := 1 } else { r3 := 2 }
                r4 := r2
            }
        """)
    parse_program("""
        input k width 8 secret
        thread 1 {
            if (k == 0) { r2 := 1 } else { r2 := 2 }
            r4 := r2
        }
    """)


def test_malformed_syntax_reports_line():
    with pytest.raises(ParseError) as info:
        parse_program("array a[4] elem 1 at 0\nthread 1 {\n  load r a[0]\n}")
    assert info.value.line == 3
    with pytest.raises(ParseError, match="width must be in 1..32"):
        parse_program("input k width 33 secret\nthread 1 { r := k }")
    with pytest.raises(ParseError, match="power of two"):
        parse_program("array a[4] elem 3 at 0\nthread 1 { load r, a[0] }")
    with pytest.raises(ParseError, match="reversed"):
        parse_program("array a[4] elem 1 at 0\n"
                      "thread 1 { for i in 3..1 { load r, a[i] } }")
    with pytest.raises(ParseError, match="unterminated"):
        parse_program("array a[4] elem 1 at 0\nthread 1 { load r, a[0]")


def test_loop_variable_shadowing_rejected():
    with pytest.raises(ParseError, match="shadows"):
        parse_program("input i width 4 secret\narray a[4] elem 1 at 0\n"
                      "thread 1 { for i in 0..2 { load r, a[i] } }")


def test_pretty_output_reparses_to_same_program():
    src = """
        array p[256] elem 1 at 0
        input k width 8 secret
        array q[256] elem 1 at 257
        thread 1 {
            load reg1, p[k]
            if (k <= 127) { load reg2, q[255 - k] } else { load reg2, q[k - 128] }
            reg1 := reg1 + reg2
            store p[k], reg1
        }
    """
    p1 = parse_program(src)
    p2 = parse_program(pretty(p1))
    assert pretty(p2) == pretty(p1)
    assert p2.decls == p1.decls
    assert len(p2.threads[0].body) == len(p1.threads[0].body)
