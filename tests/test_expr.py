"""Expression layer: interning, folding and evaluation."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symleak import expr as ex
from symleak.cache import interval
from symleak.smt import substitute


def test_interning_returns_identical_objects():
    k = ex.var("k", 8)
    assert ex.var("k", 8) is k
    assert ex.add(k, ex.const(3, 8)) is ex.add(k, ex.const(3, 8))
    assert ex.const(5, 8) is ex.const(5, 8)
    assert ex.const(5, 8) is not ex.const(5, 16)


def test_commutative_arguments_keep_the_builders_order_with_constants_first():
    a = ex.var("a", 8)
    b = ex.var("b", 8)
    c = ex.const(3, 8)
    for build in (ex.add, ex.and_, ex.or_, ex.xor, ex.eq, ex.ne):
        assert build(a, b).args == (a, b)
        assert build(b, a).args == (b, a)
        assert build(a, c).args == (c, a)
        assert build(c, a).args == (c, a)
        assert build(a, b) is build(a, b)


def test_constant_masking_and_folding():
    assert ex.const(256, 8).value == 0
    assert ex.const(-1, 8).value == 255
    assert ex.add(ex.const(200, 8), ex.const(100, 8)).value == 44
    assert ex.sub(ex.const(0, 8), ex.const(1, 8)).value == 255
    assert ex.mulc(ex.const(7, 8), 40).value == 24
    one = ex.eq(ex.const(1, 8), ex.const(1, 8))
    assert ex.add(ex.const(100, 32), ex.zext(one, 32)) is ex.const(101, 32)


def test_identity_folds():
    k = ex.var("k", 8)
    zero = ex.const(0, 8)
    ones = ex.const(255, 8)
    assert ex.add(k, zero) is k
    assert ex.sub(k, zero) is k
    assert ex.sub(k, k) is zero
    assert ex.and_(k, ones) is k
    assert ex.and_(k, zero) is zero
    assert ex.or_(k, zero) is k
    assert ex.or_(k, ones) is ones
    assert ex.xor(k, zero) is k
    assert ex.xor(k, k) is zero
    assert ex.mulc(k, 1) is k
    assert ex.mulc(k, 0) is zero


def test_comparisons_have_width_one():
    # Regression: comparisons once inherited their operands' width, which
    # broke conjunction with path conditions.
    k = ex.var("k", 32)
    j = ex.var("j", 32)
    for node in (ex.eq(k, j), ex.ne(k, j), ex.ult(k, j), ex.ule(k, j)):
        assert node.width == 1
    assert ex.and_(ex.eq(k, j), ex.TRUE) is ex.eq(k, j)


def test_comparison_folds():
    k = ex.var("k", 8)
    assert ex.eq(k, k) is ex.TRUE
    assert ex.ne(k, k) is ex.FALSE
    assert ex.ult(k, k) is ex.FALSE
    assert ex.ule(k, k) is ex.TRUE
    assert ex.ult(k, ex.const(0, 8)) is ex.FALSE
    assert ex.ule(k, ex.const(255, 8)) is ex.TRUE
    assert ex.eq(ex.const(3, 8), ex.const(3, 8)) is ex.TRUE
    assert ex.eq(ex.const(3, 8), ex.const(4, 8)) is ex.FALSE


def test_shifts_saturate_at_width():
    k = ex.var("k", 8)
    assert ex.shl(k, ex.const(8, 8)) is ex.const(0, 8)
    assert ex.lshr(k, ex.const(200, 8)) is ex.const(0, 8)
    assert ex.shl(k, ex.const(0, 8)) is k
    assert ex.evaluate(ex.shl(ex.var("x", 8), ex.var("s", 8)), {"x": 1, "s": 9}) == 0


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        ex.add(ex.var("a", 8), ex.var("b", 16))
    with pytest.raises(ValueError):
        ex.eq(ex.var("a", 8), ex.const(0, 32))
    with pytest.raises(ValueError):
        ex.ite(ex.var("c", 8), ex.const(0, 8), ex.const(1, 8))


def test_ite_folding():
    c = ex.var("c", 1)
    t = ex.const(1, 8)
    f = ex.const(2, 8)
    assert ex.ite(ex.TRUE, t, f) is t
    assert ex.ite(ex.FALSE, t, f) is f
    assert ex.ite(c, t, t) is t
    assert ex.evaluate(ex.ite(c, t, f), {"c": 1}) == 1


def test_zext_and_extract():
    k = ex.var("k", 8)
    w = ex.zext(k, 32)
    assert w.width == 32
    assert ex.zext(w, 64).args[0] is k  # collapses nested widening
    assert ex.extract(w, 0, 8) is k
    assert ex.extract(ex.const(0xAB, 8), 4, 4).value == 0xA
    with pytest.raises(ValueError):
        ex.extract(k, 4, 8)
    with pytest.raises(ValueError):
        ex.zext(w, 8)


def test_conj_disj():
    k = ex.var("k", 8)
    p = ex.eq(k, ex.const(1, 8))
    assert ex.conj([]) is ex.TRUE
    assert ex.disj([]) is ex.FALSE
    assert ex.conj([p]) is p
    assert ex.conj([p, ex.FALSE]) is ex.FALSE
    assert ex.disj([p, ex.TRUE]) is ex.TRUE
    assert ex.not_(ex.TRUE) is ex.FALSE
    for k in (0, 1):
        assert ex.evaluate(ex.not_(ex.not_(p)), {"k": k}) == ex.evaluate(p, {"k": k})


def test_evaluate_matches_uint_semantics():
    k = ex.var("k", 8)
    e = ex.add(ex.mulc(k, 3), ex.const(250, 8))
    assert ex.evaluate(e, {"k": 10}) == (30 + 250) % 256
    assert ex.evaluate(ex.sub(ex.const(0, 8), k), {"k": 1}) == 255
    assert ex.evaluate(ex.ule(k, ex.const(127, 8)), {"k": 128}) == 0
    with pytest.raises(KeyError):
        ex.evaluate(e, {})


def test_evaluate_masks_oversized_env_values():
    k = ex.var("k", 8)
    assert ex.evaluate(k, {"k": 0x1FF}) == 0xFF


def test_substitute_refolds():
    k = ex.var("k", 8)
    e = ex.eq(ex.add(k, ex.const(1, 8)), ex.const(4, 8))
    assert substitute(e, {"k": ex.const(3, 8)}) is ex.TRUE
    assert substitute(e, {"k": ex.const(5, 8)}) is ex.FALSE
    j = ex.var("j", 8)
    swapped = substitute(e, {"k": j})
    assert ex.free_vars(swapped) == {"j"}
    with pytest.raises(ValueError):
        substitute(e, {"k": ex.const(0, 16)})


def test_free_vars_and_widths():
    k = ex.var("k", 8)
    b = ex.var("base", 32)
    e = ex.eq(ex.add(ex.zext(k, 32), b), ex.const(99, 32))
    assert ex.free_vars(e) == {"k", "base"}
    assert ex.var_widths(e) == {"k": 8, "base": 32}


@pytest.mark.parametrize("walk", [
    lambda e: (ex.evaluate(e, {"k": 3999}), ex.evaluate(e, {"k": 4001})) == (1, 0),
    lambda e: substitute(e, {"k": ex.const(3999, 16)}) is ex.TRUE,
    lambda e: ex.var_widths(e) == {"k": 16},
    lambda e: ex.free_vars(e) == {"k"},
    lambda e: interval(e, {}) == (0, 1),
], ids=["evaluate", "substitute", "var_widths", "free_vars", "interval"])
def test_deep_chain_walks_are_iterative(walk):
    # A disjunction of thousands of terms must not hit the recursion
    # limit in any walk built on ``expr.postorder``.
    k = ex.var("k", 16)
    e = ex.disj([ex.eq(k, ex.const(i, 16)) for i in range(4000)])
    assert walk(e)


def test_postorder_stops_at_done_nodes():
    k = ex.var("k", 8)
    inner = ex.add(k, ex.const(3, 8))
    e = ex.xor(inner, ex.var("j", 8))
    full = ex.postorder([e])
    assert full.index(inner) < full.index(e) and k in full
    # ``inner`` and every node reachable only through it are skipped.
    assert ex.postorder([e], {inner: None}) == [ex.var("j", 8), e]
    assert ex.postorder([e], full) == []
    # A node also reachable another way is still listed.
    both = ex.xor(inner, k)
    assert ex.postorder([both], {inner: None}) == [k, both]


def test_constant_chains_reassociate():
    x = ex.var("x", 32)
    c = ex.const(249, 32)
    assert ex.xor(ex.xor(x, c), c) is x
    assert ex.add(ex.add(x, ex.const(2**32 - 1, 32)), ex.const(1, 32)) is x
    assert ex.and_(ex.and_(x, ex.const(12, 32)), ex.const(3, 32)) is ex.const(0, 32)
    assert ex.or_(ex.or_(x, ex.const(0xF0F0F0F0, 32)),
                  ex.const(0x0F0F0F0F, 32)) is ex.const(2**32 - 1, 32)
    assert ex.mulc(ex.mulc(x, 2**16), 2**16) is ex.const(0, 32)
    assert ex.mulc(ex.mulc(x, 3), 5) is ex.mulc(x, 15)
    assert ex.xor(ex.const(5, 32), ex.xor(ex.const(6, 32), x)) is ex.xor(x, ex.const(3, 32))
    p = ex.eq(x, c)
    assert ex.not_(ex.not_(p)) is p


_LEAF = st.one_of(st.sampled_from([("var", "x"), ("var", "y")]),
                  st.integers(0, 2**32 - 1).map(lambda c: ("const", c)))
_RECIPES = st.recursive(
    _LEAF,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["add", "xor", "and", "or"]), sub, sub),
        st.tuples(st.just("mulc"), sub, st.integers(0, 2**33))),
    max_leaves=12)

_BUILD = {"add": ex.add, "xor": ex.xor, "and": ex.and_, "or": ex.or_}
_REFERENCE = {"add": operator.add, "xor": operator.xor,
              "and": operator.and_, "or": operator.or_}


def _build(recipe, width):
    kind = recipe[0]
    if kind == "var":
        return ex.var(recipe[1], width)
    if kind == "const":
        return ex.const(recipe[1], width)
    if kind == "mulc":
        return ex.mulc(_build(recipe[1], width), recipe[2])
    return _BUILD[kind](_build(recipe[1], width), _build(recipe[2], width))


def _reference(recipe, width, env):
    """The recipe's value with Python ints, folding nothing."""
    mask = (1 << width) - 1
    kind = recipe[0]
    if kind == "var":
        return env[recipe[1]] & mask
    if kind == "const":
        return recipe[1] & mask
    if kind == "mulc":
        return _reference(recipe[1], width, env) * recipe[2] & mask
    return _REFERENCE[kind](_reference(recipe[1], width, env),
                            _reference(recipe[2], width, env)) & mask


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_RECIPES, st.sampled_from([1, 8, 32]),
       st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_folding_agrees_with_unfolded_arithmetic(recipe, width, x, y):
    env = {"x": x, "y": y}
    e = _build(recipe, width)
    assert ex.evaluate(e, env) == _reference(recipe, width, env)
    # No reassociable pair is left: a constant operand never sits next
    # to a child of the same operator that has a constant operand too.
    stack, seen = [e], set()
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node.args)
        if node.op is ex.Op.MULC:
            assert node.args[0].op is not ex.Op.MULC
        elif node.op in (ex.Op.ADD, ex.Op.XOR, ex.Op.AND, ex.Op.OR):
            a, b = node.args
            for c, other in ((a, b), (b, a)):
                if c.is_const and other.op is node.op:
                    assert not any(arg.is_const for arg in other.args)
