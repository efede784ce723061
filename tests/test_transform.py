"""Loop unrolling and adversary-thread synthesis."""

import pytest

from symleak import CacheConfig, parse_program, unroll_loops
from symleak.errors import AdversaryError, UnrollError
from symleak.ir import BinOp, Load, Num, Sensitivity, Store, SymbolicBase
from symleak.transform import synthesize_adversary


def _body(p, tid=0):
    return p.threads[tid].body


def test_unroll_expands_half_open_range():
    p = parse_program("""
        array a[8] elem 1 at 0
        thread 1 { for i in 2..5 { load r, a[i] } }
    """)
    body = _body(unroll_loops(p, 16))
    # Three iterations: i = 2, 3, 4.  The upper bound is exclusive.
    assert [s.index for s in body] == [Num(2), Num(3), Num(4)]
    assert all(isinstance(s, Load) for s in body)


def test_unroll_substitutes_into_every_position():
    p = parse_program("""
        array a[16] elem 1 at 0
        thread 1 { for i in 0..2 { load r, a[i + 1] store a[i], r + i } }
    """)
    body = _body(unroll_loops(p, 16))
    assert isinstance(body[1], Store) and body[1].index == Num(0)
    assert isinstance(body[3], Store) and body[3].index == Num(1)


def test_unroll_keeps_source_lines():
    p = parse_program("array a[8] elem 1 at 0\n"
                      "thread 1 {\n"
                      "  for i in 0..3 {\n"
                      "    load r, a[i]\n"   # line 4, three copies
                      "  }\n"
                      "}\n")
    assert [s.line for s in _body(unroll_loops(p, 16))] == [4, 4, 4]


def test_unroll_handles_nesting_and_empty_range():
    p = parse_program("""
        array a[16] elem 1 at 0
        thread 1 {
            for i in 0..2 { for j in 0..2 { load r, a[i + j] } }
            for z in 3..3 { load r, a[0] }
        }
    """)
    body = _body(unroll_loops(p, 16))
    # Substitution leaves sums of literals unfolded; lowering folds them.
    assert [s.index for s in body] == [
        BinOp("+", Num(0), Num(0)), BinOp("+", Num(0), Num(1)),
        BinOp("+", Num(1), Num(0)), BinOp("+", Num(1), Num(1)),
    ]


def test_unroll_is_idempotent_and_bounded():
    p = parse_program("""
        array a[8] elem 1 at 0
        thread 1 { for i in 0..6 { load r, a[i] } }
    """)
    once = unroll_loops(p, 16)
    assert unroll_loops(once, 16) is once
    with pytest.raises(UnrollError, match="exceeds bound"):
        unroll_loops(p, 5)


def test_synthesize_adds_probe_thread():
    p = parse_program("""
        array s[16] elem 1 at 0
        input k width 4 secret
        thread 1 { load r, s[k] }
    """)
    cfg = CacheConfig(cache_size=512, line_size=64, assoc=1)
    q = synthesize_adversary(p, cfg)
    probe = q.decls[-1]
    assert probe.name == "adv"
    assert probe.placement == SymbolicBase("adv_base")
    assert probe.elem_size == cfg.line_size  # one whole line
    assert probe.sensitivity is Sensitivity.PUBLIC
    assert q.threads[-1].tid == 2
    assert isinstance(q.threads[-1].body[0], Load)
    assert q.critical_tid == 1


def test_synthesize_avoids_name_collision():
    p = parse_program("""
        scalar adv elem 1 at 0
        thread 1 { load r, adv }
    """)
    q = synthesize_adversary(p, CacheConfig(512, 1, 1))
    assert q.decls[-1].name == "adv2"
    # An input named ``adv_base`` would be the probe's base variable
    # too, so the probe takes the next free name there as well.
    p = parse_program("""
        array s[16] elem 1 at 0
        input adv_base width 4 secret
        thread 1 { load r, s[adv_base] }
    """)
    probe = synthesize_adversary(p, CacheConfig(512, 1, 1)).decls[-1]
    assert probe.name == "adv2"
    assert probe.placement == SymbolicBase("adv2_base")


def test_synthesize_refuses_existing_second_thread():
    p = parse_program("""
        array s[16] elem 1 at 0
        scalar w elem 1 at 32
        thread 1 critical { load r, s[0] }
        thread 2 { load r2, w }
    """)
    with pytest.raises(AdversaryError, match="already contains"):
        synthesize_adversary(p, CacheConfig(512, 1, 1))
