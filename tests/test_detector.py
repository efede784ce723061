"""Divergence queries: variable roles, precise mode, two-step mode."""

import random

import pytest

from symleak import expr as ex
from symleak.cache import CacheConfig, Geometry, hit_constraint
from symleak.detector import (VarClasses, classify, solve_precise,
                              solve_two_step, verdicts)
from symleak.engine import initial_state, run_schedule
from symleak.parser import parse_program
from symleak.solver import EnumerativeBackend
from symleak.transform import unroll_loops

from conftest import load_program


def test_classify_roles():
    src = """
    array t[4] elem 1 at symbolic secret
    array pub[4] elem 1 at 64 public = 7
    input k width 8 secret
    input n width 4 public = 2
    thread 1 critical {
        load r1, t[k]
        load r2, pub[0]
    }
    """
    p = parse_program(src)
    cfg = CacheConfig(512, 64, 1)
    st = run_schedule(p, cfg, [1, 1])
    classes = classify(p, st)
    # k is a secret input; the value read out of t is a fresh secret.
    assert "k" in classes.duplicated
    assert any(n.startswith("ld") and "_t" in n for n in classes.duplicated)
    # n is public and concrete, so it never becomes a variable at all.
    assert "n" not in classes.duplicated and "n" not in classes.shared
    assert "t_base" in classes.shared
    # pub has concrete contents, so its load produced no fresh variable.
    assert all("_pub" not in n for n in classes.shared)


def _fig3_setup():
    p = unroll_loops(load_program("seq_leaky_reuse.ir"), 4096)
    cfg = CacheConfig(512, 1, 1)
    st = run_schedule(p, cfg, [1, 1, 1])
    classes = classify(p, st)
    tau = hit_constraint([ev.addr for ev in st.trace], 2, Geometry(cfg))
    return st, classes, tau


def test_solve_precise_finds_flip():
    st, classes, tau = _fig3_setup()
    be = EnumerativeBackend()
    res = solve_precise(be, tau, st.pcon, classes)
    assert res.status == "sat"
    v1, v2 = verdicts(tau, res)
    assert {v1, v2} == {"hit", "miss"}
    assert res.model_a["k"] != res.model_b["k"]
    # The reuse hits exactly when k = 1 lands q on p[1]'s line.
    hit_model = res.model_a if v1 == "hit" else res.model_b
    assert hit_model["k"] == 1


def test_solve_precise_skips_without_secret_dependence():
    be = EnumerativeBackend()
    classes = VarClasses(("k",), ())
    assert solve_precise(be, ex.TRUE, ex.TRUE, classes).status == "unsat"
    tau = ex.ult(ex.var("adv_base", 8), ex.const(3, 8))
    assert solve_precise(be, tau, ex.TRUE, classes).status == "unsat"
    assert be.calls == 0
    # Secret dependence present: the query goes to the backend.
    dep = ex.ult(ex.var("k", 8), ex.const(3, 8))
    assert solve_precise(be, dep, ex.TRUE, classes).status == "sat"
    assert be.calls == 1


def test_solve_two_step_agrees_on_fig3():
    st, classes, tau = _fig3_setup()
    be = EnumerativeBackend()
    res = solve_two_step(be, tau, st.pcon, classes)
    assert res.status == "sat"
    assert {verdicts(tau, res)[0],
            verdicts(tau, res)[1]} == {"hit", "miss"}
    # model_a is always the hit side by construction.
    assert ex.evaluate(tau, res.model_a | {"k": res.model_a["k"]}) == 1


def test_solve_two_step_pins_shared_variables():
    # tau: hit iff k equals the adversary base.  A divergent pair exists
    # for every base, and both models must report the same base.
    k = ex.var("k", 4)
    base = ex.var("adv", 4)
    tau = ex.eq(k, base)
    classes = VarClasses(("k",), ("adv",))
    res = solve_two_step(EnumerativeBackend(), tau, ex.TRUE, classes)
    assert res.status == "sat"
    assert res.model_a["adv"] == res.model_b["adv"]
    assert res.model_a["k"] != res.model_b["k"]
    assert ex.evaluate(tau, res.model_a) == 1
    assert ex.evaluate(tau, res.model_b) == 0


def test_solve_two_step_miss_side_fallback():
    # No hit exists under pcon, so step one must pivot to the miss side
    # and step two look for the hit.
    k = ex.var("k", 4)
    tau = ex.eq(k, ex.const(5, 4))
    pcon = ex.ne(k, ex.const(5, 4))
    classes = VarClasses(("k",), ())
    res = solve_two_step(EnumerativeBackend(), tau, pcon, classes)
    assert res.status == "unsat"
    res = solve_two_step(EnumerativeBackend(), tau, ex.TRUE, classes)
    assert res.status == "sat"
    # Without the fallback the same query dies at step one.
    be = EnumerativeBackend()
    flipped = ex.and_(ex.ne(k, ex.const(5, 4)), ex.TRUE)
    dead = solve_two_step(be, ex.FALSE, flipped, classes, fallback=False)
    assert dead.status == "unsat"
    assert be.calls == 0  # constant tau short-circuits before any call


def test_solve_two_step_single_iteration_can_miss():
    # Layout l gates which secret comparison drives tau.  Step one picks
    # some concrete l; if the flip lives under the other l value only,
    # the single iteration misses it.  This pins the approximation
    # direction: two-step sat implies precise sat, never the converse.
    k = ex.var("k", 2)
    l = ex.var("l", 2)
    tau = ex.ite(ex.eq(l, ex.const(3, 2)), ex.eq(k, ex.const(1, 2)), ex.TRUE)
    classes = VarClasses(("k",), ("l",))
    precise = solve_precise(EnumerativeBackend(), tau, ex.TRUE, classes)
    assert precise.status == "sat"
    approx = solve_two_step(EnumerativeBackend(), tau, ex.TRUE, classes)
    # Step one lands on l=0 (tau constant true there), step two inherits
    # that l and finds no miss.
    assert approx.status == "unsat"


def test_two_step_contained_in_precise_on_random_formulas():
    rng = random.Random(99)
    k = ex.var("k", 3)
    j = ex.var("j", 3)
    s = ex.var("s", 3)
    classes = VarClasses(("k", "j"), ("s",))
    hits = 0
    for _ in range(60):
        consts = [ex.const(rng.randrange(8), 3) for _ in range(4)]
        atoms = [ex.eq(ex.add(k, s), consts[0]), ex.ult(j, consts[1]),
                 ex.ule(ex.xor(k, j), consts[2]), ex.ne(s, consts[3])]
        tau = rng.choice(atoms)
        for _ in range(rng.randrange(3)):
            tau = rng.choice([ex.and_, ex.or_])(tau, rng.choice(atoms))
        pcon = rng.choice([ex.TRUE, ex.ult(s, ex.const(6, 3))])
        approx = solve_two_step(EnumerativeBackend(), tau, pcon, classes)
        precise = solve_precise(EnumerativeBackend(), tau, pcon, classes)
        if approx.status == "sat":
            hits += 1
            assert precise.status == "sat"
            va, vb = verdicts(tau, approx)
            assert {va, vb} == {"hit", "miss"}
            for n in classes.shared:
                if n in approx.model_a or n in approx.model_b:
                    assert approx.model_a.get(n, 0) == approx.model_b.get(n, 0)
    assert hits > 10  # the sweep must actually exercise the sat path


def test_verdict_evaluation_defaults_missing_names():
    k = ex.var("k", 4)
    tau = ex.eq(k, ex.const(0, 4))
    from symleak.solver import DivergenceResult
    res = DivergenceResult("sat", {}, {"k": 3})
    assert verdicts(tau, res) == ("hit", "miss")
