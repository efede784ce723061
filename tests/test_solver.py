"""Backends: exhaustive enumeration and the external-process path.

The process backend is driven through tests/smtstub.py, a minimal
SMT-LIB2 evaluator, so these tests need no solver installed.  Random
formulas are checked on both backends and must agree.
"""

import random
import sys
from pathlib import Path

import pytest

from symleak import expr as ex
from symleak.errors import EnumerativeCapError, SolverProcessError
from symleak.solver import (EnumerativeBackend, SmtProcessBackend, SolveResult,
                            emit_query, parse_model)

STUB = [sys.executable, str(Path(__file__).resolve().parent / "smtstub.py")]


def _stub():
    return SmtProcessBackend(STUB, timeout_ms=60000)


def test_enumerative_sat_returns_valid_model():
    k = ex.var("k", 8)
    f = ex.and_(ex.ult(ex.const(100, 8), k), ex.eq(ex.and_(k, ex.const(1, 8)),
                                                   ex.const(1, 8)))
    be = EnumerativeBackend()
    res = be.check(f)
    assert res.status == "sat"
    assert ex.evaluate(f, res.model) == 1
    assert be.calls == 1


def test_enumerative_unsat_and_consts():
    k = ex.var("k", 8)
    be = EnumerativeBackend()
    assert be.check(ex.and_(ex.ult(k, ex.const(3, 8)),
                            ex.ult(ex.const(200, 8), k))).status == "unsat"
    assert be.check(ex.TRUE).status == "sat"
    assert be.check(ex.FALSE).status == "unsat"


def test_enumerative_cap_and_domains():
    wide = ex.var("addr", 32)
    f = ex.eq(wide, ex.const(512, 32))
    with pytest.raises(EnumerativeCapError):
        EnumerativeBackend().check(f)
    be = EnumerativeBackend(domains={"addr": [0, 256, 512]})
    res = be.check(f)
    assert res.status == "sat" and res.model == {"addr": 512}
    assert be.check(ex.eq(wide, ex.const(100, 32))).status == "unsat"


def test_enumerative_chunked_scan_finds_late_witness():
    k = ex.var("k", 20)
    f = ex.eq(k, ex.const(0xFFFFF, 20))
    be = EnumerativeBackend(chunk=1 << 10)
    res = be.check(f)
    assert res.status == "sat" and res.model == {"k": 0xFFFFF}


def _k_formula():
    k = ex.var("k", 8)
    return ex.and_(ex.ult(ex.const(100, 8), k), ex.ne(k, ex.const(101, 8)))


def test_memo_answers_a_repeated_formula():
    be = EnumerativeBackend()
    first = be.check(_k_formula())
    second = be.check(_k_formula())  # built again, interned to one node
    assert (second.status, second.model) == (first.status, first.model)
    assert (be.calls, be.memo_hits) == (2, 1)
    other = be.check(ex.ult(ex.var("k", 8), ex.const(3, 8)))
    assert other.status == "sat" and (be.calls, be.memo_hits) == (3, 1)
    # Constant formulas never reach the memo.
    assert be.check(ex.TRUE).status == "sat"
    assert (be.calls, be.memo_hits) == (4, 1)
    fresh = EnumerativeBackend()  # one memo per instance
    fresh.check(_k_formula())
    assert (fresh.calls, fresh.memo_hits) == (1, 0)


def test_memo_never_stores_unknown():
    class LateAnswer(EnumerativeBackend):
        def __init__(self):
            super().__init__()
            self.answers = [SolveResult("unknown"), SolveResult("sat", {"k": 102})]

        def _solve(self, formula, timeout_ms):
            return self.answers.pop(0)

    be = LateAnswer()
    assert be.check(_k_formula()).status == "unknown"
    assert be.check(_k_formula()).status == "sat"
    assert (be.calls, be.memo_hits) == (2, 0)
    assert be.check(_k_formula()).model == {"k": 102}
    assert (be.calls, be.memo_hits) == (3, 1)


def test_divergence_memo_keys_on_every_argument():
    x = ex.var("x", 2)
    k = ex.var("k", 2)
    tau = ex.eq(x, ex.const(0, 2))
    pcon = ex.ule(k, ex.const(2, 2))
    be = EnumerativeBackend()
    a = be.check_divergence(tau, pcon, ["x", "k"], ["k"])
    again = be.check_divergence(tau, pcon, ["x", "k"], ["k"])
    assert (again.status, again.model_a, again.model_b) == (
        a.status, a.model_a, a.model_b)
    assert (be.calls, be.memo_hits) == (2, 1)
    b = be.check_divergence(tau, pcon, ["x", "k"], ["x", "k"])
    assert (be.calls, be.memo_hits) == (3, 1)
    assert b.status == "sat" and b.model_a["x"] != b.model_b["x"]


def test_check_divergence_enumerative():
    k = ex.var("k", 8)
    tau = ex.ule(k, ex.const(10, 8))
    be = EnumerativeBackend()
    res = be.check_divergence(tau, ex.TRUE, ["k"], ["k"])
    assert res.status == "sat"
    assert ex.evaluate(tau, res.model_a) != ex.evaluate(tau, res.model_b)
    assert res.model_a["k"] != res.model_b["k"]


def test_check_divergence_respects_shared_variables():
    # tau depends on base and k; the pair must agree on base and still
    # flip tau, which is only possible at base values below 8.
    k = ex.var("k", 4)
    base = ex.var("base", 4)
    tau = ex.ult(ex.add(k, base), ex.const(8, 4))
    be = EnumerativeBackend()
    res = be.check_divergence(tau, ex.TRUE, ["k"], ["k"])
    assert res.status == "sat"
    assert res.model_a["base"] == res.model_b["base"]
    assert ex.evaluate(tau, res.model_a) == 1
    assert ex.evaluate(tau, res.model_b) == 0


def test_check_divergence_needs_a_distinct_variable():
    k = ex.var("k", 4)
    be = EnumerativeBackend()
    assert be.check_divergence(ex.ult(k, ex.const(3, 4)), ex.TRUE, [], []).status == "unsat"
    # Constant tau can never diverge.
    assert be.check_divergence(ex.TRUE, ex.TRUE, ["k"], ["k"]).status == "unsat"


def test_check_divergence_unconstrained_load_projection():
    # tau is driven by x alone; k merely must differ somewhere.  The
    # earliest hit and miss agree on k, so the second scan phase must
    # find a pair differing in k anyway.
    x = ex.var("x", 2)
    k = ex.var("k", 2)
    tau = ex.eq(x, ex.const(0, 2))
    pcon = ex.ule(k, ex.const(2, 2))
    be = EnumerativeBackend()
    res = be.check_divergence(tau, pcon, ["x", "k"], ["k"])
    assert res.status == "sat"
    assert res.model_a["k"] != res.model_b["k"]
    assert ex.evaluate(tau, res.model_a) != ex.evaluate(tau, res.model_b)


def test_emit_query_is_deterministic_and_shares_subterms():
    k = ex.var("k", 8)
    shared = ex.add(k, ex.const(3, 8))
    f = ex.and_(ex.ult(shared, ex.const(50, 8)), ex.ne(shared, ex.const(7, 8)))
    q1 = emit_query(f)
    q2 = emit_query(f)
    assert q1 == q2
    assert q1.count("define-fun e0") == 1
    assert "(set-logic QF_BV)" in q1
    assert "(check-sat)" in q1 and "(get-model)" in q1
    with pytest.raises(ValueError, match="width-1"):
        emit_query(k)


def test_parse_model_accepts_all_value_forms():
    text = """sat
    (model
      (define-fun k () (_ BitVec 8) #x2a)
      (define-fun b () (_ BitVec 3) #b101)
      (define-fun w () (_ BitVec 32) (_ bv99 32))
      (define-fun noise () (_ BitVec 8) #x00)
    )"""
    model = parse_model(text, {"k", "b", "w"})
    assert model == {"k": 0x2A, "b": 5, "w": 99}


def test_process_backend_roundtrip():
    k = ex.var("k", 8)
    f = ex.and_(ex.ult(ex.const(100, 8), k), ex.ult(k, ex.const(103, 8)))
    be = _stub()
    res = be.check(f)
    assert res.status == "sat"
    assert res.model is not None and ex.evaluate(f, res.model) == 1
    assert be.check(ex.and_(f, ex.eq(k, ex.const(5, 8)))).status == "unsat"


def test_process_backend_memo_skips_the_second_process():
    k = ex.var("k", 8)
    f = ex.and_(ex.ult(ex.const(100, 8), k), ex.ult(k, ex.const(103, 8)))
    be = _stub()
    first = be.check(f)
    second = be.check(f)
    assert (second.status, second.model) == (first.status, first.model)
    assert (be.calls, be.memo_hits) == (2, 1)


def test_process_backend_handles_every_operator():
    k = ex.var("k", 8)
    j = ex.var("j", 8)
    parts = [
        ex.eq(ex.add(k, j), ex.const(10, 8)),
        ex.eq(ex.sub(k, j), ex.const(2, 8)),
        ex.ule(ex.xor(k, ex.const(3, 8)), ex.const(200, 8)),
        ex.eq(ex.and_(k, ex.const(0xF0, 8)), ex.const(0, 8)),
        ex.ne(ex.or_(k, j), ex.const(0, 8)),
        ex.eq(ex.lshr(ex.shl(k, ex.const(1, 8)), ex.const(1, 8)),
              ex.and_(k, ex.const(0x7F, 8))),
        ex.ult(ex.mulc(j, 3), ex.const(200, 8)),
        ex.eq(ex.extract(ex.zext(k, 16), 0, 4), ex.const(6, 4)),
        ex.ite(ex.ult(k, j), ex.TRUE, ex.ne(k, j)),
    ]
    f = ex.conj(parts)
    enum_res = EnumerativeBackend().check(f)
    proc_res = _stub().check(f)
    assert enum_res.status == proc_res.status == "sat"
    assert ex.evaluate(f, proc_res.model) == 1


def _random_formula(rng):
    a = ex.var("a", 4)
    b = ex.var("b", 4)
    atoms = [
        ex.eq(a, ex.const(rng.randrange(16), 4)),
        ex.ult(ex.add(a, b), ex.const(rng.randrange(1, 16), 4)),
        ex.ule(ex.xor(a, b), ex.const(rng.randrange(16), 4)),
        ex.ne(ex.and_(a, ex.const(rng.randrange(16), 4)), b),
        ex.eq(ex.lshr(b, ex.const(rng.randrange(5), 4)), ex.const(rng.randrange(4), 4)),
    ]
    f = rng.choice(atoms)
    for _ in range(rng.randrange(3)):
        g = rng.choice(atoms)
        f = rng.choice([ex.and_, ex.or_, ex.xor])(f, g)
    return f


def test_backends_agree_on_random_formulas():
    rng = random.Random(7)
    stub = _stub()
    enum = EnumerativeBackend()
    for _ in range(25):
        f = _random_formula(rng)
        r1 = enum.check(f)
        r2 = stub.check(f)
        assert r1.status == r2.status, emit_query(f)
        if r2.status == "sat" and not f.is_const:
            assert ex.evaluate(f, r2.model) == 1


def test_generic_divergence_through_process_backend():
    k = ex.var("k", 4)
    base = ex.var("base", 4)
    tau = ex.ult(ex.add(k, base), ex.const(8, 4))
    be = _stub()
    res = be.check_divergence(tau, ex.TRUE, ["k"], ["k"])
    assert res.status == "sat"
    assert res.model_a["base"] == res.model_b["base"]
    assert ex.evaluate(tau, res.model_a) != ex.evaluate(tau, res.model_b)
    # The repeat rebuilds the same interned formula; check's memo answers.
    again = be.check_divergence(tau, ex.TRUE, ["k"], ["k"])
    assert (again.model_a, again.model_b) == (res.model_a, res.model_b)
    assert (be.calls, be.memo_hits) == (2, 1)


def test_process_backend_failure_modes():
    k = ex.var("k", 8)
    f = ex.eq(k, ex.const(1, 8))
    with pytest.raises(SolverProcessError, match="cannot run"):
        SmtProcessBackend(["/no/such/solver"]).check(f)
    garbage = SmtProcessBackend([sys.executable, "-c", "print('gibberish')"])
    with pytest.raises(SolverProcessError, match="said"):
        garbage.check(f)
    # Overwide queries make the stub give up rather than lie.
    wide = ex.eq(ex.var("w", 32), ex.const(5, 32))
    assert _stub().check(wide).status == "unknown"
