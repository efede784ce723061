"""Cache geometry and the symbolic hit conditions.

The hit constraints are the analytical core, so beyond the targeted
cases there is a differential test against the concrete simulator on
random traces for several geometries.
"""

import random

import pytest

from symleak import CacheConfig, parse_program, unroll_loops
from symleak import expr as ex
import symleak.cache
from symleak.cache import (Geometry, _set_offsets, hit_constraint,
                           hit_constraint_assoc, line, may_same_line,
                           probe_window, tag)
from symleak.cli import backend_for
from symleak.explorer import explore
from symleak.oracle import empty_cache, simulate_access
from symleak.solver import EnumerativeBackend

from conftest import load_program
from engine_runs import run_schedule
from reference_eval import evaluate


def _trace(*addrs):
    return [ex.const(a, 32) if isinstance(a, int) else a for a in addrs]


def _dag_size(e):
    seen = {id(e)}
    stack = [e]
    while stack:
        for a in stack.pop().args:
            if id(a) not in seen:
                seen.add(id(a))
                stack.append(a)
    return len(seen)


def test_geometry_validation_and_derived_sizes():
    cfg = CacheConfig(cache_size=1024, line_size=64, assoc=4)
    assert cfg.num_sets == 4
    assert cfg.line_bits == 6
    assert probe_window(cfg) == 4096
    with pytest.raises(ValueError, match="powers of two"):
        CacheConfig(cache_size=1000, line_size=64, assoc=1)
    with pytest.raises(ValueError, match="smaller than one set"):
        CacheConfig(cache_size=64, line_size=64, assoc=2)


def test_tag_and_set_index():
    cfg = CacheConfig(cache_size=512, line_size=64, assoc=2)  # 4 sets
    a = ex.const(64 * 9 + 5, 32)
    assert evaluate(tag(a, cfg), {}) == 9
    assert evaluate(line(a, cfg), {}) == 1


def test_first_access_never_hits():
    cfg = CacheConfig(512, 1, 1)
    assert hit_constraint(_trace(123), 0, Geometry(cfg)) is ex.FALSE
    assert hit_constraint_assoc(_trace(123), 0, Geometry(cfg)) is ex.FALSE


def test_direct_mapped_reuse_and_eviction():
    cfg = CacheConfig(cache_size=4, line_size=1, assoc=1)  # 4 sets of 1
    # Same block reused immediately: hit.
    assert hit_constraint(_trace(7, 7), 1, Geometry(cfg)) is ex.TRUE
    # Conflicting block in between (7 and 3 share set 3): evicted.
    assert hit_constraint(_trace(7, 3, 7), 2, Geometry(cfg)) is ex.FALSE
    # Non-conflicting intermediate (set 2): still a hit.
    assert hit_constraint(_trace(7, 2, 7), 2, Geometry(cfg)) is ex.TRUE


def test_most_recent_same_block_access_dominates():
    cfg = CacheConfig(cache_size=4, line_size=1, assoc=1)
    # 7 appears twice before the probe; the eviction by 3 sits between the
    # two, so the later reload must make the probe hit.
    assert hit_constraint(_trace(7, 3, 7, 7), 3, Geometry(cfg)) is ex.TRUE


def test_scan_stops_at_literally_equal_block():
    cfg = CacheConfig(512, 1, 1)
    k = ex.zext(ex.var("k", 8), 32)
    tr = _trace(k, 100, 100)
    # The most recent predecessor of access 2 has the identical address
    # expression, so the disjunction ends there: the symbolic first access
    # contributes nothing and k does not occur in the constraint.
    tau = hit_constraint(tr, 2, Geometry(cfg))
    assert tau is ex.TRUE
    tr2 = _trace(100, k, 100)
    tau2 = hit_constraint(tr2, 2, Geometry(cfg))
    # ``k`` spans blocks 0..255 of 512 sets, so the only one of them on
    # set 100 is block 100 itself: it cannot evict 100, its link's block
    # equality is true, and the constraint folds to a hit.
    assert tau2 is ex.TRUE
    for kv in (99, 100):
        tr3 = _trace(100, kv, 100)
        assert hit_constraint(tr3, 2, Geometry(cfg)) is ex.TRUE


def test_direct_mapped_symbolic_probe():
    cfg = CacheConfig(cache_size=8, line_size=1, assoc=1)
    k = ex.zext(ex.var("k", 8), 32)
    tr = _trace(0, k, 0)
    tau = hit_constraint(tr, 2, Geometry(cfg))
    for kv in range(256):
        expect = 0 if kv % 8 == 0 and kv != 0 else 1
        assert evaluate(tau, {"k": kv}) == expect


def test_associative_reuse_distance():
    cfg = CacheConfig(cache_size=8, line_size=1, assoc=2)  # 4 sets of 2
    # Set 0 holds two of {0, 4, 8}.  After 0,4 both live; 8 evicts LRU 0.
    assert hit_constraint_assoc(_trace(0, 4, 0), 2, Geometry(cfg)) is ex.TRUE
    assert hit_constraint_assoc(_trace(0, 4, 8, 0), 3, Geometry(cfg)) is ex.FALSE
    # A repeat touch refreshes recency: 0,4,0,8 keeps 0, evicts 4.
    assert hit_constraint_assoc(_trace(0, 4, 0, 8, 0), 4, Geometry(cfg)) is ex.TRUE
    assert hit_constraint_assoc(_trace(0, 4, 0, 8, 4), 4, Geometry(cfg)) is ex.FALSE
    # Duplicate touches of one block count once against the budget.
    assert hit_constraint_assoc(_trace(0, 4, 4, 4, 0), 4, Geometry(cfg)) is ex.TRUE


def test_interval_reasoning_helpers():
    cfg = CacheConfig(cache_size=512, line_size=64, assoc=1)
    k = ex.zext(ex.var("k", 8), 32)
    low = ex.add(ex.const(0, 32), k)
    high = ex.add(ex.const(1024, 32), k)
    geo = Geometry(cfg)
    assert geo.of(low)[2] == (0, 3)
    assert geo.of(high)[2] == (16, 19)
    assert geo.of(ex.const(128, 32))[2] == (2, 2)
    # Blocks 16..19 hold none of 0..3, so a later access to ``high``
    # never hits on ``low``; block 2 may be one of them.
    assert hit_constraint(_trace(low, high), 1, geo) is ex.FALSE
    assert hit_constraint(_trace(low, 128), 1, geo) is not ex.FALSE
    # 0..3 and 16..19 wrap onto the same sets of an 8-set cache, and
    # onto different sets of a 32-set one.
    be = EnumerativeBackend()
    assert may_same_line(low, high, ex.TRUE, geo, be)
    tight = CacheConfig(cache_size=2048, line_size=64, assoc=1)
    assert not may_same_line(low, high, ex.TRUE, Geometry(tight), be)


def test_block_relation_readings_match_brute_force():
    # Every pair of block ranges inside 0..9: each reading of the
    # relation against the block pairs it summarises.
    ranges = [(lo, hi) for lo in range(10) for hi in range(lo, 10)]
    for n in (1, 2, 4, 8):
        for a in ranges:
            for b in ranges:
                diffs = {x - y for x in range(a[0], a[1] + 1)
                         for y in range(b[0], b[1] + 1)}
                lo, hi = _set_offsets(a, b, n)
                assert (lo <= hi) == any(d % n == 0 for d in diffs)
                assert (lo <= 0 <= hi) == (0 in diffs)
                assert ((lo <= hi and (lo, hi) != (0, 0))
                        == any(d and d % n == 0 for d in diffs)), (a, b, n)


def test_block_in_another_set_is_no_intermediate():
    # Blocks 0 and 3 of a 2-set cache never share a set, so the access
    # in block 0 between the two accesses to block 3 cannot evict it.
    cfg = CacheConfig(cache_size=128, line_size=64, assoc=1)
    low = ex.and_(ex.zext(ex.var("k", 8), 32), ex.const(63, 32))
    tr = _trace(192, low, 192)
    assert hit_constraint_assoc(tr, 2, Geometry(cfg)) is ex.TRUE


def test_subtracted_index_keeps_its_block_range():
    # q[k - 128] in the else arm: the base and the subtracted constant
    # fold into one, so the address is bounded without wrapping.
    p = load_program("conc_tmp_fixed.ir")
    cfg = CacheConfig(512, 1, 1)
    addr = run_schedule(p, cfg, (), (False,)).trace[0].addr
    assert Geometry(cfg).of(addr)[2] == (129, 384)


def test_tables_reduction_drops_unreachable_predecessors():
    cfg = CacheConfig(cache_size=512, line_size=64, assoc=1)
    k = ex.zext(ex.var("k", 8), 32)
    probe = ex.const(4096, 32)
    tr = _trace(k, probe)  # table in blocks 0..3, probe in block 64
    assert hit_constraint(tr, 1, Geometry(cfg)) is ex.FALSE
    assert hit_constraint_assoc(tr, 1, Geometry(cfg)) is ex.FALSE
    # The pruning is exact: the unpruned link is unsatisfiable.
    plain = ex.ite(ex.eq(line(k, cfg), line(probe, cfg)),
                   ex.eq(tag(k, cfg), tag(probe, cfg)), ex.FALSE)
    assert ex.free_vars(plain) == {"k"}
    assert EnumerativeBackend().check(plain).status == "unsat"


def test_direct_mapped_encoding_is_linear_in_the_trace():
    # Symbolic table lookups interleaved with a constant access: every
    # predecessor may share the final access's set, so none is skipped
    # and the constraint holds one if-then-else link per access.  On a
    # 4-way LRU cache every access is also an intermediate whose
    # last-occurrence indicator compares it with each later one, so
    # that constraint stays quadratic.
    cfg = CacheConfig(512, 1, 1)
    k = ex.zext(ex.var("k", 8), 32)
    addrs = []
    for i in range(64):
        low = ex.and_(ex.xor(k, ex.const(i, 32)), ex.const(15, 32))
        addrs += [ex.add(ex.const(100, 32), low), 300]
    addrs.append(ex.add(ex.const(100, 32), k))
    tr = _trace(*addrs)
    assert len(tr) == 129
    assert _dag_size(hit_constraint(tr, 128, Geometry(cfg))) <= 8 * len(tr)
    lru4 = CacheConfig(512, 1, 4)
    assert _dag_size(hit_constraint_assoc(tr, 128, Geometry(lru4))) <= len(tr) ** 2


# The sbox-rounds shape: every round looks up a uniform public table at
# an index that mixes in the value read, so the index alternates between
# two addresses.
SBOX_ROUNDS = """array sb[16] elem 1 at 100 public = 201
input k width 8 secret
scalar acc elem 1 at 1300
thread 1 {{
reg1 := k
for i in 0..{rounds} {{
load reg2, sb[reg1 & 15]
load reg3, acc
reg1 := reg1 ^ reg2
}}
store sb[reg1 & 15], reg3
}}
"""


@pytest.mark.parametrize("cfg", [CacheConfig(512, 1, 1), CacheConfig(512, 1, 4)],
                         ids=["direct", "lru4"])
def test_round_constraints_do_not_grow_with_the_rounds(cfg):
    # Constant folding keeps the round addresses at two interned nodes,
    # so the scan meets a literally equal address a few accesses back.
    encode = hit_constraint if cfg.assoc == 1 else hit_constraint_assoc
    sizes = []
    for rounds in (64, 512):
        p = unroll_loops(parse_program(SBOX_ROUNDS.format(rounds=rounds)), rounds)
        tr = [ev.addr for ev in run_schedule(p, cfg, ()).trace]
        assert len(tr) == 2 * rounds + 1
        sizes.append(_dag_size(encode(tr, len(tr) - 1, Geometry(cfg))))
    assert sizes[0] == sizes[1]


def test_may_same_line_paths():
    geo = Geometry(CacheConfig(cache_size=512, line_size=64, assoc=1))
    a, b, c = _trace(0, 64, 0)
    be = EnumerativeBackend()
    assert not may_same_line(a, b, ex.TRUE, geo, be)  # distinct concrete sets
    assert may_same_line(a, c, ex.TRUE, geo, be)      # identical address
    k = ex.zext(ex.var("k", 8), 32)
    assert may_same_line(a, k, ex.TRUE, geo, be)
    # Path conditions can rule the overlap out.
    assert not may_same_line(a, k, ex.ult(ex.const(70, 32), k), geo, be)


def test_hit_constraints_match_simulator_on_random_traces():
    rng = random.Random(31)
    geometries = [CacheConfig(16, 1, 1), CacheConfig(64, 4, 2),
                  CacheConfig(256, 16, 4), CacheConfig(32, 1, 4)]
    # Addresses spread over twice the cache seldom revisit a block that
    # was evicted in between.  A pool of assoc+1 blocks in one set makes
    # such evictions common.
    cases = [(cfg, None) for cfg in geometries]
    cases += [(cfg, [m * cfg.num_sets * cfg.line_size for m in range(cfg.assoc + 1)])
              for cfg in geometries]
    for cfg, pool in cases:
        for _ in range(60):
            n = rng.randrange(2, 12)
            if pool is None:
                addrs = [rng.randrange(0, 2 * cfg.cache_size) for _ in range(n)]
            else:
                addrs = [rng.choice(pool) for _ in range(n)]
            tr = _trace(*addrs)
            st = empty_cache()
            for i, a in enumerate(addrs):
                st, verdict = simulate_access(st, a, cfg)
                tau = hit_constraint_assoc(tr, i, Geometry(cfg))
                assert tau.is_const
                assert bool(tau.value) == (verdict == "hit"), (cfg, addrs, i)
                if cfg.assoc == 1:
                    assert hit_constraint(tr, i, Geometry(cfg)) is tau


def test_geometry_depends_on_no_earlier_configuration():
    # Build the hit constraints of one trace under several geometries,
    # alternating, each time with a new CacheConfig object that takes
    # the freed one's place (and id): every build gives the nodes of
    # building that geometry alone, and every address gets the tag and
    # set of its own geometry.
    k = ex.zext(ex.var("k", 8), 32)
    tr = _trace(0, ex.add(ex.const(64, 32), k), 300,
                ex.add(ex.const(256, 32), ex.mulc(k, 4)), 64, 0, 320)
    params = [(512, 1, 1), (256, 4, 1), (512, 1, 2), (1024, 16, 4)]

    def build(cfg):
        hc = hit_constraint if cfg.assoc == 1 else hit_constraint_assoc
        return [hc(tr, i, Geometry(cfg)) for i in range(len(tr))]

    cfgs = [CacheConfig(*g) for g in params]
    alone = {g: build(cfg) for g, cfg in zip(params, cfgs)}
    assert len({tuple(v) for v in alone.values()}) == len(params)
    del cfgs
    for _ in range(3):
        for g in params:
            cfg = CacheConfig(*g)
            assert build(cfg) == alone[g]
            geo = Geometry(cfg)
            for a in tr:
                assert geo.of(a)[:2] == (tag(a, cfg), line(a, cfg))
            del cfg, geo


def test_a_search_leaves_no_state_in_the_cache_module():
    # Every table the geometry needs belongs to one search's Geometry,
    # so nothing of it survives the search at module level.
    p = load_program("conc_tmp_fixed.ir")
    cfg = CacheConfig(512, 1, 1)
    reports, _ = explore(p, cfg, backend_for(p, cfg))
    assert reports
    held = {name: len(v) for name, v in vars(symleak.cache).items()
            if isinstance(v, dict) and v and not name.startswith("__")}
    assert held == {}
