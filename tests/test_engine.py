"""Symbolic stepping: lowering, load resolution, branching, scheduling.

Where the engine and the concrete oracle implement the same arithmetic
(32-bit wrapping, C-like comparisons, shift saturation), a differential
test pins them together so they cannot drift apart.
"""

import random
from itertools import product

import pytest

import symleak.explorer
from symleak import CacheConfig, parse_program, unroll_loops
from symleak import expr as ex
from symleak.cli import backend_for
from symleak.engine import (branch_events, enabled_events, initial_state,
                            lower, next_event, number_body, perform_access,
                            take_branch)
from symleak.errors import UnrollError
from symleak.explorer import explore
from symleak.ir import BinOp, Declaration, If, Name, Num, Program, site
from symleak.oracle import _eval as oracle_eval

from conftest import CORPUS_GEOMETRY, load_program
from engine_runs import finished, run_schedule
from reference_eval import evaluate


def _program(src):
    return unroll_loops(parse_program(src), 64)


def _cfg():
    return CacheConfig(cache_size=512, line_size=1, assoc=1)


def test_lower_comparisons_widen_to_32_bits():
    env = {"k": ex.var("k", 32)}
    e = lower(BinOp("<=", Name("k"), Num(127)), env)
    assert e.width == 32
    assert evaluate(e, {"k": 127}) == 1
    assert evaluate(e, {"k": 128}) == 0


def test_lower_rejects_unbound_names():
    with pytest.raises(KeyError, match="unbound"):
        lower(Name("ghost"), {})


def _random_irexpr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Num(rng.randrange(0, 300)) if rng.random() < 0.5 else Name("k")
    op = rng.choice(["+", "-", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<="])
    return BinOp(op, _random_irexpr(rng, depth - 1), _random_irexpr(rng, depth - 1))


def test_lowering_agrees_with_concrete_evaluator():
    rng = random.Random(11)
    env = {"k": ex.var("k", 32)}
    for _ in range(500):
        e = _random_irexpr(rng, 4)
        k = rng.randrange(0, 1 << 32)
        symbolic = evaluate(lower(e, env), {"k": k})
        concrete = oracle_eval(e, {"k": k})
        assert symbolic == concrete, f"{e} at k={k}"


def test_initial_state_binds_inputs():
    p = _program("""
        input k width 8 secret
        input m width 4 public = 5
        array a[4] elem 1 at 0
        thread 1 { r := k + m load q, a[0] }
    """)
    st = initial_state(p, _cfg())
    # Leading assignments already ran; r mentions only the secret.
    assert ex.free_vars(st.regs[0]["r"]) == {"k"}
    assert evaluate(st.regs[0]["r"], {"k": 2}) == 7
    assert st.pcon is ex.TRUE


def test_symbolic_placement_constrains_path_condition():
    p = _program("scalar w elem 4 at symbolic\nthread 1 { load r, w }")
    cfg = _cfg()
    st = initial_state(p, cfg)
    pc = st.pcon
    assert ex.free_vars(pc) == {"w_base"}
    assert evaluate(pc, {"w_base": 8}) == 1
    assert evaluate(pc, {"w_base": 9}) == 0      # misaligned for elem 4
    assert evaluate(pc, {"w_base": 4096}) == 0   # outside the probe window


def test_load_forwards_last_concrete_store():
    p = _program("""
        array a[4] elem 1 at 0
        thread 1 { store a[2], 7 store a[2], 9 load r, a[2] load s, a[1] }
    """)
    st = run_schedule(p, _cfg(), ())
    assert st.regs[0]["r"] is ex.const(9, 32)
    # a[1] was never written or initialised: fresh per-cell variable.
    assert ex.free_vars(st.regs[0]["s"]) == {"cell_a_1"}


def test_symbolic_store_index_clobbers_array():
    p = _program("""
        input k width 2 secret
        array a[4] elem 1 at 0
        thread 1 { store a[0], 7 store a[k], 1 load r, a[0] }
    """)
    st = run_schedule(p, _cfg(), ())
    # The store through k may or may not have hit cell 0, so the load is
    # a fresh unknown named by trace position.
    assert ex.free_vars(st.regs[0]["r"]) == {"ld2_a"}


def test_initialised_contents_and_out_of_range_clamp():
    p = _program("""
        input k width 8 secret
        array t[4] elem 1 at 0 public = 6
        thread 1 { load r, t[k] load s, t[3] }
    """)
    st = run_schedule(p, _cfg(), ())
    assert st.regs[0]["r"] is ex.const(6, 32)
    assert st.regs[0]["s"] is ex.const(6, 32)
    q = _program("""
        input k width 8 secret
        array u[2] elem 1 at 0
        thread 1 { store u[0], 1 store u[1], 2 load r, u[k] load s, u[200] }
    """)
    stq = run_schedule(q, _cfg(), ())
    # Symbolic index over concrete stores: unknown cell.
    assert ex.free_vars(stq.regs[0]["r"]) == {"ld2_u"}
    # A concrete index past the end clamps onto the last cell's store? No:
    # only initialised contents clamp; an uninitialised read stays fresh.
    assert ex.free_vars(stq.regs[0]["s"]) == {"cell_u_200"}


def test_non_uniform_contents_read_through_an_index_chain():
    # The grammar only fills tables uniformly; richer contents come from
    # the library and read as an if-then-else over the index.
    p = _program("""
        input k width 8 secret
        array t[4] elem 1 at 0 public = 0
        thread 1 { load r, t[k] }
    """)
    t = p.decl("t")
    rich = Declaration(t.name, t.kind, t.elem_size, t.length, t.placement,
                       t.sensitivity, (3, 1, 4, 0x1FF))
    q = Program((rich,), p.secret_inputs, p.public_inputs, p.threads,
                p.critical_tid)
    r = run_schedule(q, _cfg(), ()).regs[0]["r"]
    # Masked to the element size; indices past the end read the last cell.
    assert [evaluate(r, {"k": i}) for i in range(6)] == [3, 1, 4, 0xFF, 0xFF, 0xFF]


def test_fresh_loads_classified_by_declaration_sensitivity():
    p = _program("""
        array sec[2] elem 1 at 0 secret
        array pub[2] elem 1 at 16
        thread 1 { load a, sec[0] load b, pub[0] }
    """)
    st = run_schedule(p, _cfg(), ())
    assert st.fresh_secret == ("cell_sec_0",)
    assert st.fresh_public == ("cell_pub_0",)


def test_repeated_uninitialised_read_reuses_cell_variable():
    p = _program("""
        scalar s elem 1 at 0
        thread 1 { load a, s load b, s }
    """)
    st = run_schedule(p, _cfg(), ())
    assert st.regs[0]["a"] is st.regs[0]["b"]
    assert st.fresh_public == ("cell_s_0",)


def test_store_value_truncates_to_element_size():
    p = _program("""
        array a[4] elem 1 at 0
        thread 1 { store a[0], 0x1ff load r, a[0] }
    """)
    st = run_schedule(p, _cfg(), ())
    assert st.regs[0]["r"] is ex.const(0xFF, 32)


def test_branch_blocks_accesses_until_resolved():
    p = _program("""
        input k width 8 secret
        array a[4] elem 1 at 0
        scalar w elem 1 at 16
        thread 1 critical { if (k == 0) { load r, a[0] } }
        thread 2 { load q, w }
    """)
    st = initial_state(p, _cfg())
    assert enabled_events(st) == ()
    (be,) = branch_events(st)
    assert be.tid == 1
    then_st = take_branch(st, be, True)
    assert evaluate(then_st.pcon, {"k": 0}) == 1
    assert evaluate(then_st.pcon, {"k": 3}) == 0
    assert [e.tid for e in enabled_events(then_st)] == [1, 2]
    else_st = take_branch(st, be, False)
    assert evaluate(else_st.pcon, {"k": 3}) == 1
    assert evaluate(else_st.pcon, {"k": 0}) == 0
    # The then-arm body is skipped: only the other thread's load remains.
    assert [e.tid for e in enabled_events(else_st)] == [2]


def test_addresses_scale_by_element_size():
    p = _program("""
        input k width 8 secret
        array a[8] elem 4 at 0x40
        thread 1 { load r, a[k & 7] }
    """)
    st = initial_state(p, _cfg())
    (ev,) = enabled_events(st)
    assert evaluate(ev.addr, {"k": 3}) == 0x40 + 12


def test_trace_records_accumulate_in_schedule_order():
    p = _program("""
        array a[4] elem 1 at 0
        scalar w elem 1 at 32
        thread 1 critical { load r, a[0] store a[0], r }
        thread 2 { load q, w }
    """)
    st = run_schedule(p, _cfg(), (2, 1, 1))
    assert [site(r.tid, r.stmt) for r in st.trace] == [
        "t2:L5:load:w", "t1:L4:load:a", "t1:L4:store:a"]
    assert finished(st)


def test_run_schedule_rejects_disabled_thread():
    p = _program("array a[2] elem 1 at 0\nthread 1 { load r, a[0] }")
    with pytest.raises(ValueError, match="no enabled access"):
        run_schedule(p, _cfg(), (9,))


def test_unrolling_required_before_execution():
    p = parse_program("""
        array a[4] elem 1 at 0
        thread 1 { for i in 0..2 { load r, a[i] } }
    """)
    with pytest.raises(UnrollError, match="unrolled"):
        initial_state(p, _cfg())


def _statements(body):
    """Every statement of ``body``, both arms of each branch included."""
    for s in body:
        yield s
        if isinstance(s, If):
            yield from _statements(s.then_body)
            yield from _statements(s.else_body)


def _path(body, arms):
    """The statements one run of ``body`` executes, in program order,
    taking branch arms from the iterator ``arms``."""
    for s in body:
        yield s
        if isinstance(s, If):
            yield from _path(s.then_body if next(arms) else s.else_body, arms)


def test_numbering_gives_each_statement_one_position_in_path_order():
    p = _program("""
        array a[4] elem 1 at 0
        input k width 4 secret
        thread 1 {
          load r, a[0]
          if (k < 4) {
            x := r + 1
            if (k == 1) {
              store a[1], x
            } else {
              load y, a[2]
            }
          } else {
            if (k == 9) {
              load z, a[3]
            }
          }
          store a[0], 1
        }
    """)
    body = p.threads[0].body
    code = number_body(body)
    stmts = list(_statements(body))
    assert code[0] == (None, 0)
    assert len(set(stmts)) == len(stmts) == len(code) - 1
    assert {s for s, _ in code[1:]} == set(stmts)
    for pos, (s, succ) in enumerate(code[1:], 1):
        assert all(n < pos for n in (succ if isinstance(s, If) else (succ,)))
    start = initial_state(p, _cfg()).cursors[0]
    assert start == len(code) - 1
    for choices in product((True, False), repeat=2):
        arms, pos, seen = iter(choices), start, []
        while pos:
            s, succ = code[pos]
            seen.append(s)
            pos = succ[0 if next(arms) else 1] if isinstance(s, If) else succ
        assert seen == list(_path(body, iter(choices)))


def test_perform_access_leaves_source_state_intact():
    p = _program("array a[2] elem 1 at 0\nthread 1 { load r, a[0] load s, a[1] }")
    st = initial_state(p, _cfg())
    (ev,) = enabled_events(st)
    nxt = perform_access(st, ev)
    assert len(st.trace) == 0 and len(nxt.trace) == 1
    assert "r" not in st.regs[0] and "r" in nxt.regs[0]


def _fields(e):
    """An event's class and slots; Exprs are interned, so equal fields
    are the same nodes."""
    if e is None:
        return None
    return (type(e),) + tuple(getattr(e, n) for n in type(e).__slots__)


@pytest.mark.parametrize("name,geometry", CORPUS_GEOMETRY,
                         ids=[f"{n}-{g[0]}-{g[1]}-{g[2]}" for n, g in CORPUS_GEOMETRY])
def test_carried_events_match_events_built_from_scratch(monkeypatch, name,
                                                        geometry):
    # A state carries each thread's next event and rebuilds only the
    # moved thread's.  At every state the search opens, the carried
    # events must be those its cursors and registers give afresh.  With
    # every site settled the search would open none, so nothing is.
    states = []
    monkeypatch.setattr(symleak.explorer, "_settled_sites", lambda *a: 0)

    def recording_branch_events(st):
        states.append(st)
        return branch_events(st)

    monkeypatch.setattr(symleak.explorer, "branch_events",
                        recording_branch_events)
    p, cfg = load_program(name), CacheConfig(*geometry)
    explore(p, cfg, backend_for(p, cfg))
    assert states
    for st in states:
        fresh = [next_event(p, t.tid, st.code[i][st.cursors[i]][0], st.regs[i])
                 for i, t in enumerate(p.threads)]
        assert [_fields(e) for e in st.next_events] == [_fields(e) for e in fresh]
