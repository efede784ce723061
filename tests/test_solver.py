"""Backends: exhaustive enumeration and the external-process path.

The process backend is driven through tests/smtstub.py, a minimal
SMT-LIB2 evaluator, so these tests need no solver installed.  Random
formulas are checked on both backends and must agree.  The enumerative
backend's packed lanes are checked lane by lane against scalar
``expr.evaluate``, and its divergence scan against a reference that
takes one assignment at a time.
"""

import hashlib
import itertools
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import symleak.smt
from symleak import expr as ex
from symleak.cache import CacheConfig
from symleak.errors import SolverProcessError
from symleak.explorer import ExploreOptions, explore
from symleak.smt import SmtProcessBackend, emit_query, parse_model
from symleak.solver import EnumerativeBackend, SolveResult, _Lanes, _lane_bits

from conftest import late_clock, load_program

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
    # Too wide to enumerate: undecided, like a timed-out query.
    assert EnumerativeBackend().check(f).status == "unknown"
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

        def _solve(self, formula):
            return self.answers.pop(0)

    be = LateAnswer()
    assert be.check(_k_formula()).status == "unknown"
    assert be.check(_k_formula()).status == "sat"
    assert (be.calls, be.memo_hits) == (2, 0)
    assert be.check(_k_formula()).model == {"k": 102}
    assert (be.calls, be.memo_hits) == (3, 1)


def _divergence_query():
    x = ex.var("x", 2)
    return ex.eq(x, ex.const(0, 2)), ex.TRUE, ["x"], ["x"]


def test_past_deadline_answers_unknown_and_is_asked_again(monkeypatch):
    be = EnumerativeBackend(timeout_ms=30000)
    with monkeypatch.context() as m:
        late_clock(m)
        assert be.check(_k_formula()).status == "unknown"
        assert be.check_divergence(*_divergence_query()).status == "unknown"
    assert be.check(_k_formula()).status == "sat"
    assert be.check_divergence(*_divergence_query()).status == "sat"
    assert (be.calls, be.memo_hits) == (4, 0)


def test_no_deadline_ignores_the_clock(monkeypatch):
    late_clock(monkeypatch)
    be = EnumerativeBackend()
    assert be.check(_k_formula()).status == "sat"
    assert be.check_divergence(*_divergence_query()).status == "sat"


def test_process_past_deadline_answers_unknown():
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    be = SmtProcessBackend(sleeper, timeout_ms=1)
    assert be.check(_k_formula()).status == "unknown"
    assert be.check_divergence(*_divergence_query()).status == "unknown"


def test_process_backend_without_deadline_answers():
    res = SmtProcessBackend(STUB, timeout_ms=None).check(_k_formula())
    assert res.status == "sat" and res.model == {"k": 102}


@pytest.mark.parametrize("make", [
    lambda t: EnumerativeBackend(timeout_ms=t),
    lambda t: SmtProcessBackend(STUB, timeout_ms=t),
], ids=["enumerative", "process"])
def test_deadline_below_one_ms_is_rejected(make):
    for value in (0, -5):
        with pytest.raises(ValueError,
                           match=f"timeout_ms must be at least 1, got {value}"):
            make(value)


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
    assert q1.count("define-fun $e0 ") == 1
    assert "(set-logic QF_BV)" in q1
    assert "(check-sat)" in q1 and "(get-model)" in q1
    with pytest.raises(ValueError, match="width-1"):
        emit_query(k)


def test_emit_query_renders_chains_deeper_than_the_recursion_limit():
    # Every disjunct and every link of the disjunction is used once, so
    # all of it is rendered inline, 3000 levels deep.
    k = ex.var("k", 16)
    q = emit_query(ex.disj([ex.eq(k, ex.const(i, 16)) for i in range(3000)]))
    assert "define-fun" not in q
    assert q.count("(bvor ") == 2999
    assert q.count("(ite (= ") == 3000
    assert all(f"(_ bv{i} 16)" in q for i in range(3000))


def test_emit_query_prints_each_node_once():
    # Each round's value feeds the next round and its own comparison, so
    # it is shared: defined once, after the definitions it uses, and
    # named wherever it is used.  Defined in any other order, a shared
    # node would be inlined again into each definition that uses it.
    k, j = ex.var("k", 16), ex.var("j", 16)
    r, terms = k, []
    for i in range(200):
        r = ex.add(ex.xor(r, j), ex.const(7 * i + 1, 16))
        terms.append(ex.eq(r, ex.const(i, 16)))
    q = emit_query(ex.disj(terms))
    assert q.count("(bvxor ") == q.count("(bvadd ") == 200
    defined = []
    for line in q.splitlines():
        if line.startswith("(define-fun "):
            name, body = line.split(" ", 2)[1], line.split(")", 2)[2]
            assert set(re.findall(r"\$e\d+", body)) <= set(defined)
            defined.append(name)
    assert defined == [f"$e{i}" for i in range(199)]


def test_emit_query_names_clash_with_no_program_variable(monkeypatch):
    # ``e0``, ``e`` and ``e0__1`` are valid IR input names.  The names
    # the module invents for a shared node and for a variable's two
    # copies must differ from them and from each other, or a script both
    # declares and defines one name.
    texts = []
    real = symleak.smt.emit_query
    monkeypatch.setattr(symleak.smt, "emit_query",
                        lambda f: texts.append(real(f)) or texts[-1])
    e0, e = ex.var("e0", 4), ex.var("e", 4)
    shared = ex.add(e0, ex.const(1, 4))
    texts.append(real(ex.and_(ex.eq(shared, ex.const(0, 4)), ex.ult(shared, e0))))
    # ``e0 + e`` is in pcon and in tau, so each copy of it is shared.
    pcon = ex.ult(ex.add(e0, e), ex.const(12, 4))
    tau = ex.ult(ex.add(ex.add(e0, e), ex.var("e0__1", 4)), ex.const(8, 4))
    res = _stub().check_divergence(tau, pcon, ["e0", "e"], ["e0", "e"])
    assert res.status == "sat"
    assert res.model_a["e0__1"] == res.model_b["e0__1"]
    assert ex.evaluate(tau, res.model_a) != ex.evaluate(tau, res.model_b)
    assert len(texts) == 2
    for q in texts:
        declared = set(re.findall(r"\(declare-fun (\S+) ", q))
        defined = set(re.findall(r"\(define-fun (\S+) ", q))
        assert defined and not declared & defined, q


def _query_digest(names: list[str]) -> str:
    """sha256 of the SMT-LIB texts sent to the stub solver while the
    last of ``names`` is explored, after the others in this process."""
    texts: list[str] = []
    real = symleak.smt.emit_query
    symleak.smt.emit_query = lambda f: texts.append(real(f)) or texts[-1]
    try:
        for name in names:
            texts.clear()
            explore(load_program(name), CacheConfig(512, 1, 1),
                    ExploreOptions(), _stub())
    finally:
        symleak.smt.emit_query = real
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def test_query_text_does_not_depend_on_earlier_analyses():
    # The bytes of a query are a function of the search that built it:
    # exploring another program first changes none of them.
    second = "conc_path_dependent_alias.ir"
    after = _query_digest(["conc_tmp_fixed.ir", second])
    tests = Path(__file__).resolve().parent
    code = (f"import sys; sys.path[:0] = {[str(tests.parent / 'src'), str(tests)]!r}; "
            f"from test_solver import _query_digest; "
            f"print(_query_digest([{second!r}]))")
    alone = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, timeout=300).stdout.strip()
    assert after == alone


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


def _random_expr(rng, leaves, width, depth):
    """A random expression of ``width`` bits over ``leaves`` (variables
    by width), built from every operator: SUB that wraps, MULC factors
    past the width, shifts by constant and by symbolic amounts, and
    comparisons, ZEXT and EXTRACT between widths."""
    if depth == 0 or rng.random() < 0.15:
        if width in leaves and rng.random() < 0.7:
            return rng.choice(leaves[width])
        return ex.const(rng.getrandbits(width), width)

    def sub(w=width):
        return _random_expr(rng, leaves, w, depth - 1)

    def other_width():
        return rng.choice(sorted(leaves))

    if width == 1 and rng.random() < 0.5:
        w = other_width()
        return rng.choice([ex.eq, ex.ne, ex.ult, ex.ule])(sub(w), sub(w))
    kind = rng.choice(["add", "sub", "and", "or", "xor", "mulc", "shl",
                       "lshr", "ite", "zext", "extract"])
    if kind in ("add", "sub", "and", "or", "xor"):
        return getattr(ex, {"and": "and_", "or": "or_"}.get(kind, kind))(sub(), sub())
    if kind == "mulc":
        return ex.mulc(sub(), rng.randrange(1, 1 << (width + 2)))
    if kind in ("shl", "lshr"):
        if rng.random() < 0.5:
            amount = ex.const(rng.randrange(width + 1), width)
        else:  # symbolic, often but not always below the width
            amount = ex.and_(sub(), ex.const((1 << max(1, width.bit_length())) - 1, width))
        return (ex.shl if kind == "shl" else ex.lshr)(sub(), amount)
    if kind == "ite":
        return ex.ite(sub(1), sub(), sub())
    narrower = [w for w in leaves if w < width]
    if kind == "zext" and narrower:
        return ex.zext(sub(rng.choice(narrower)), width)
    wider = [w for w in leaves if w > width]
    if kind == "extract" and wider:
        src = rng.choice(wider)
        return ex.extract(sub(src), rng.randrange(src - width + 1), width)
    return ex.xor(sub(), sub())


def _random_formula(rng):
    a = ex.var("a", 4)
    b = ex.var("b", 6)
    leaves = {4: [a], 6: [b], 1: [ex.extract(b, 5, 1)]}
    f = ex.conj([_random_expr(rng, leaves, 1, 4) for _ in range(rng.randrange(1, 4))])
    return f if not f.is_const else ex.eq(ex.add(a, ex.const(3, 4)), ex.extract(b, 1, 4))


def test_backends_agree_on_random_formulas():
    rng = random.Random(7)
    stub = _stub()
    enum = EnumerativeBackend()
    for _ in range(25):
        f = _random_formula(rng)
        r1 = enum.check(f)
        r2 = stub.check(f)
        assert r1.status == r2.status, emit_query(f)
        if r2.status == "sat":
            assert ex.evaluate(f, r1.model) == ex.evaluate(f, r2.model) == 1


# Domains per variable width, enumerated in sorted name order: lists and
# a range, 3 * 41 * 4 * 3 = 1,476 assignments, and a single range
# longer than a chunk (a progression packs without a per-value step).
_NARROW = {"a": (3, [5, 0, 7]), "b": (8, range(7, 7 + 41 * 3, 3)),
           "c": (17, [1, 99_999, 3, 131_071]), "d": (32, [0xFFFF_FFFF, 2, 0x8000_0000])}
_WIDE = {"a": (40, [5, 2**40 - 1, 2**39]), "b": (64, range(2**63, 2**63 + 41 * 7, 7)),
         "c": (33, [1, 2**33 - 1, 3, 2**32]), "d": (50, [0, 2**50 - 1, 12345])}
_RAMP = {"x": (12, range(5, 5 + 3 * 600, 3))}


def _leaves(rng, variables, widths):
    """Per width, an expression over one of ``variables`` of that width."""
    leaves = {}
    for w in widths:
        v = rng.choice(variables)
        leaves[w] = [v] if v.width == w else [
            ex.extract(v, rng.randrange(v.width - w + 1), w) if v.width > w
            else ex.zext(v, w)]
    return leaves


def _enumeration(names, domains):
    """Every assignment in the backend's order: mixed radix over the
    names in sorted order, the last fastest."""
    names = sorted(names)
    return [dict(zip(names, vals))
            for vals in itertools.product(*(domains[n] for n in names))]


@pytest.mark.parametrize("spec, widths", [
    (_NARROW, (1, 2, 3, 7, 8, 13, 17, 31, 32)),
    (_WIDE, (1, 33, 40, 47, 50, 64)),
    (_RAMP, (1, 5, 12, 24, 32)),
])
@pytest.mark.parametrize("chunk", [37, 1 << 18])
def test_packed_lanes_match_evaluate(spec, widths, chunk):
    # Every lane of every node's word equals the scalar evaluation of
    # that node under the lane's assignment, across block boundaries and
    # block sizes that are not powers of two; and check answers with the
    # first satisfying assignment in enumeration order.
    rng = random.Random(f"{sorted(spec)}:{widths}:{chunk}")
    variables = [ex.var(n, w) for n, (w, _) in spec.items()]
    domains = {n: d for n, (_, d) in spec.items()}
    be = EnumerativeBackend(domains=domains, chunk=chunk)
    assignments = _enumeration(domains, domains)
    plan = be._plan({v.name: v.width for v in variables})
    for _ in range(4):
        leaves = _leaves(rng, variables, widths)
        roots = [_random_expr(rng, leaves, w, 4) for w in widths]
        order = ex.postorder(roots)
        assert {e.op for e in order} >= {ex.Op.VAR, ex.Op.CONST}
        bits = _lane_bits(order)
        assert bits == (64 if max(e.width for e in order) <= 32 else 128)
        for lo in range(0, plan.total, chunk):
            hi = min(lo + chunk, plan.total)
            lanes = _Lanes(hi - lo, bits)
            words = lanes.evaluate(order, plan.env(lo, lanes))
            for g in range(lo, hi):
                memo = {}
                for r in roots:
                    ex.evaluate(r, assignments[g], memo)
                for node in order:
                    lane = (words[node] >> ((g - lo) * bits)) & ((1 << bits) - 1)
                    assert lane == memo[node], (node, assignments[g])
            assert all(words[node] >> ((hi - lo) * bits) == 0 for node in order)
        for f in roots:
            if f.width != 1 or f.is_const:
                continue
            names = ex.var_widths(f)
            expected = next((a for a in _enumeration(names, domains)
                             if ex.evaluate(f, a)), None)
            res = EnumerativeBackend(domains=domains, chunk=chunk).check(f)
            if expected is None:
                assert res.status == "unsat"
            else:
                assert res.status == "sat"
                assert list(res.model.items()) == list(expected.items())


def test_packed_lanes_every_operator():
    # Each operator at a narrow and a wide width, over every lane of a
    # two-variable enumeration, against scalar evaluation.
    for w in (1, 5, 32, 33, 64):
        x, y = ex.var("x", w), ex.var("y", w)
        vals = sorted(v for v in {0, 1, 2, w - 1, w, (1 << w) - 1, (1 << w) // 3}
                      if v < 1 << w)
        domains = {"x": vals, "y": vals + [(1 << w) - 2] if w > 1 else vals}
        wider = ex.var("z", w + 3)
        nodes = [ex.add(x, y), ex.sub(x, y), ex.and_(x, y), ex.or_(x, y),
                 ex.xor(x, y), ex.mulc(x, (1 << w) + 3), ex.shl(x, y),
                 ex.lshr(x, y), ex.eq(x, y), ex.ne(x, y), ex.ult(x, y),
                 ex.ule(x, y), ex.ite(ex.ult(x, y), x, y),
                 ex.zext(x, w + 3), ex.extract(ex.add(wider, ex.zext(y, w + 3)), 3, w)]
        if w > 1:
            nodes += [ex.shl(x, ex.const(1, w)), ex.lshr(x, ex.const(w - 1, w))]
        domains["z"] = [0, (1 << min(w + 3, 64)) - 1, 6]
        be = EnumerativeBackend(domains=domains, chunk=5)
        plan = be._plan({"x": w, "y": w, "z": w + 3})
        order = ex.postorder(nodes)
        bits = _lane_bits(order)
        for lo in range(0, plan.total, be.chunk):
            lanes = _Lanes(min(be.chunk, plan.total - lo), bits)
            words = lanes.evaluate(order, plan.env(lo, lanes))
            for i in range(lanes.n):
                env = plan.model(lo + i)
                for node in nodes:
                    got = (words[node] >> (i * bits)) & ((1 << bits) - 1)
                    assert got == ex.evaluate(node, env), (node, env)


def _reference_divergence(tau, pcon, duplicated, distinct, domains, chunk):
    """The enumerative divergence query, one assignment at a time: per
    shared assignment in order, the first hit and the first miss; if
    they agree on the keys, the first ``chunk``-window of the group
    holding either side at other key values, its hit first.  Duplicated
    variables neither formula mentions are 0 in both models.  Returns
    the pair, or None, and whether the second pass found it."""
    pair, rescanned = _reference_pair(tau, pcon, duplicated, distinct, domains, chunk)
    for model in pair or ():
        for n in duplicated:
            model.setdefault(n, 0)
    return pair, rescanned


def _reference_pair(tau, pcon, duplicated, distinct, domains, chunk):
    names = sorted(ex.var_widths(tau) | ex.var_widths(pcon))
    shared = [n for n in names if n not in duplicated]
    fam = [n for n in names if n in duplicated]
    keys = [n for n in fam if n in distinct]
    for outer in _enumeration(shared, domains):
        group = [{n: (outer | inner)[n] for n in names}
                 for inner in _enumeration(fam, domains)]
        sides = [(ex.evaluate(pcon, a), ex.evaluate(tau, a)) for a in group]
        hits = [i for i, (p, t) in enumerate(sides) if p and t]
        misses = [i for i, (p, t) in enumerate(sides) if p and not t]
        if not hits or not misses:
            continue
        hit, miss = group[hits[0]], group[misses[0]]
        if any(hit[k] != miss[k] for k in keys):
            return (hit, miss), False
        for w in range(0, len(group), chunk):
            apart = [i for i in range(w, min(w + chunk, len(group)))
                     if any(group[i][k] != hit[k] for k in keys)]
            for i in apart:
                if i in hits:
                    return (group[i], miss), True
            for i in apart:
                if i in misses:
                    return (hit, group[i]), True
    return None, False


@pytest.mark.parametrize("chunk", [3, 45, 1 << 18])
def test_divergence_matches_reference(chunk):
    # Shared variable s (outer), key k and load x (duplicated): groups of
    # 20 assignments, scanned in windows (chunk 3), in doubling blocks of
    # whole groups (45) or in one block.
    rng = random.Random(chunk)
    s, k, x = ex.var("s", 3), ex.var("k", 4), ex.var("x", 2)
    domains = {"s": [6, 1, 3], "k": range(3, 13, 2), "x": range(4)}
    leaves = {1: [ex.extract(x, 1, 1)], 2: [x], 3: [s], 4: [k]}
    kinds = {"sat": 0, "unsat": 0, "rescan": 0}
    for _ in range(120):
        tau = _random_expr(rng, leaves, 1, 3)
        pcon = ex.conj([_random_expr(rng, leaves, 1, 2)
                        for _ in range(rng.randrange(2))])
        want, rescanned = _reference_divergence(tau, pcon, ["k", "x"], ["k"], domains, chunk)
        res = EnumerativeBackend(domains=domains, chunk=chunk).check_divergence(
            tau, pcon, ["k", "x"], ["k"])
        if want is None:
            assert res.status == "unsat", (tau, pcon)
            kinds["unsat"] += 1
        else:
            assert res.status == "sat", (tau, pcon)
            assert (res.model_a, res.model_b) == want, (tau, pcon)
            kinds["rescan" if rescanned else "sat"] += 1
    assert all(kinds.values()), kinds


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
    # A duplicated name the query does not mention reads 0 in both
    # models, as in the enumerative backend, and leaves the query as it
    # was: the memo answers it.
    unused = be.check_divergence(tau, ex.TRUE, ["k", "j"], ["k", "j"])
    assert unused.model_a == {**res.model_a, "j": 0}
    assert unused.model_b == {**res.model_b, "j": 0}
    assert (be.calls, be.memo_hits) == (3, 2)


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
