"""Divergence queries: variable roles and the joint leak query."""

from symleak import expr as ex
from symleak.cache import CacheConfig, Geometry, hit_constraint
from symleak.detector import classify, solve_precise, verdicts
from symleak.parser import parse_program
from symleak.solver import EnumerativeBackend
from symleak.transform import unroll_loops

from conftest import load_program
from engine_runs import run_schedule


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
    duplicated = classify(p, st)
    # k is a secret input; the value read out of t is a fresh secret.
    assert "k" in duplicated
    assert any(n.startswith("ld") and "_t" in n for n in duplicated)
    # n is public and concrete, so it never becomes a variable at all;
    # the symbolic base is shared by both runs.
    assert "n" not in duplicated and "t_base" not in duplicated
    # pub has concrete contents, so its load produced no fresh variable.
    assert st.fresh_public == ()


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
    dup = ("k",)
    assert solve_precise(be, ex.TRUE, ex.TRUE, dup).status == "unsat"
    tau = ex.ult(ex.var("adv_base", 8), ex.const(3, 8))
    assert solve_precise(be, tau, ex.TRUE, dup).status == "unsat"
    assert be.calls == 0
    # Secret dependence present: the query goes to the backend.
    dep = ex.ult(ex.var("k", 8), ex.const(3, 8))
    assert solve_precise(be, dep, ex.TRUE, dup).status == "sat"
    assert be.calls == 1


def test_verdict_evaluation_defaults_missing_names():
    k = ex.var("k", 4)
    tau = ex.eq(k, ex.const(0, 4))
    from symleak.solver import DivergenceResult
    res = DivergenceResult("sat", {}, {"k": 3})
    assert verdicts(tau, res) == ("hit", "miss")
