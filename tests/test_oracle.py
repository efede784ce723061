"""Concrete cache simulation, replay and exhaustive search.

The interleaving table for the two-thread temp-buffer program is pinned
here in full: line order 6-9-13-11 leaks at k=1 and every other order
is uniform over the in-range keys.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from symleak.bruteforce import brute_force_leaks, secret_bits
from symleak.cache import CacheConfig
from symleak.errors import BruteForceCapError, ReplayError
from symleak.explorer import ExploreOptions, explore
from symleak.commands import schedule_from_lines
from symleak.oracle import empty_cache, replay, replay_trace, simulate_access
from symleak.parser import parse_program
from symleak.solver import EnumerativeBackend
from symleak.transform import unroll_loops

from conftest import CORPUS_DIR, ROOT, UNROLL_BOUND, load_program


def test_direct_mapped_eviction():
    cfg = CacheConfig(512, 1, 1)
    st = empty_cache()
    st, v = simulate_access(st, 0, cfg)
    assert v == "miss"
    st, v = simulate_access(st, 0, cfg)
    assert v == "hit"
    st, v = simulate_access(st, 512, cfg)  # same set, different block
    assert v == "miss"
    st, v = simulate_access(st, 0, cfg)
    assert v == "miss"


def test_two_ways_keep_both_blocks():
    cfg = CacheConfig(512, 1, 2)
    st = empty_cache()
    st, _ = simulate_access(st, 0, cfg)
    st, _ = simulate_access(st, 512, cfg)
    st, v = simulate_access(st, 0, cfg)
    assert v == "hit"


def test_lru_evicts_least_recently_used():
    cfg = CacheConfig(8, 1, 2)  # 4 sets, 2 ways
    st = empty_cache()
    for addr in (0, 4, 0):     # touch a, b, a: b is now the LRU way
        st, _ = simulate_access(st, addr, cfg)
    st, _ = simulate_access(st, 8, cfg)   # same set, evicts b
    st, v = simulate_access(st, 0, cfg)
    assert v == "hit"
    st, v = simulate_access(st, 4, cfg)
    assert v == "miss"


def test_lru_thrash_with_one_extra_block():
    cfg = CacheConfig(8, 1, 2)
    st = empty_cache()
    verdicts = []
    for addr in (0, 4, 8) * 3:  # three blocks of set 0 round robin
        st, v = simulate_access(st, addr, cfg)
        verdicts.append(v)
    assert verdicts == ["miss"] * 9


def test_sequential_reuse_program_behaviors(fig3_cfg):
    p = unroll_loops(load_program("seq_leaky_reuse.ir"), UNROLL_BOUND)
    for k in range(256):
        got = replay(p, {"k": k}, [1, 1, 1], fig3_cfg)
        want = ["miss", "miss", "miss" if k == 0 else "hit"]
        assert got == want, k


def test_sequential_reuse_is_uniform_with_four_ways():
    p = load_program("seq_leaky_reuse.ir")
    cfg = CacheConfig(2048, 1, 4)
    for k in range(256):
        assert replay(p, {"k": k}, [1, 1, 1], cfg) == ["miss", "miss", "hit"]


# Line orders of the temp-buffer program, then-arm rows first.  Each row
# maps to one interleaving of the adversary load (line 13) with the
# three critical accesses.  Only placing it between the victim load and
# the store leaks, and only at k=1 where p[k] shares a set with tmp.
INTERLEAVING_ROWS = [
    ((13, 6, 9, 11), range(0, 128), None),
    ((6, 13, 9, 11), range(0, 128), None),
    ((6, 9, 13, 11), range(0, 128), 1),
    ((6, 9, 11, 13), range(0, 128), None),
    ((8, 9, 11, 13), range(128, 256), None),
    ((8, 9, 13, 11), range(128, 256), None),
]


def _critical_verdicts(p, inputs, tids, cfg):
    """The critical thread's verdicts, as ``replay --critical-only`` prints them."""
    return [v for t, _, v in replay_trace(p, inputs, tids, cfg)
            if t == p.critical_tid]


@pytest.mark.parametrize("lines,keys,leaky_k", INTERLEAVING_ROWS)
def test_temp_buffer_interleaving_table(fig3_cfg, lines, keys, leaky_k):
    p = load_program("conc_tmp_fixed.ir")
    for k in keys:
        tids = schedule_from_lines(p, {"k": k}, lines, fig3_cfg)
        got = _critical_verdicts(p, {"k": k}, tids, fig3_cfg)
        want = ["miss", "miss", "miss" if k == leaky_k else "hit"]
        assert got == want, (lines, k)


def test_schedule_from_lines_resolves_threads(fig3_cfg):
    p = load_program("conc_tmp_fixed.ir")
    assert schedule_from_lines(p, {"k": 3}, (6, 9, 13, 11), fig3_cfg) == [1, 1, 2, 1]
    assert schedule_from_lines(p, {"k": 200}, (13, 8), fig3_cfg) == [2, 1]
    with pytest.raises(ReplayError, match="no pending access on line 8"):
        schedule_from_lines(p, {"k": 3}, (8,), fig3_cfg)
    with pytest.raises(ReplayError, match="pending lines are \\[6, 13\\]"):
        schedule_from_lines(p, {"k": 3}, (11,), fig3_cfg)


def test_schedule_from_lines_rejects_ambiguous_line(fig3_cfg):
    p = parse_program(
        "array a[4] elem 1 at 0\n"
        "thread 1 critical { load r, a[0] } thread 2 { load s, a[1] }")
    with pytest.raises(ReplayError, match="pending in threads \\[1, 2\\]"):
        schedule_from_lines(p, {}, (2,), fig3_cfg)


def test_replay_prefix_and_exhaustion(fig3_cfg):
    p = load_program("conc_tmp_fixed.ir")
    assert replay(p, {"k": 5}, [2], fig3_cfg) == ["miss"]
    with pytest.raises(ReplayError, match="no pending access"):
        replay(p, {"k": 5}, [2, 2], fig3_cfg)
    with pytest.raises(ReplayError, match="missing value for secret input"):
        replay(p, {}, [1], fig3_cfg)
    with pytest.raises(ReplayError, match="no thread 9"):
        replay(p, {"k": 5}, [9], fig3_cfg)


def test_replay_reads_witness_cell_names(fig3_cfg):
    src = """
    array t[4] elem 1 at 0 secret
    input i width 2 public = 1
    thread 1 critical { load r, t[i]
    store t[i], r + 1
    load r2, t[i] }
    """
    p = parse_program(src)
    # cell_<decl>_<idx> spelling, as emitted for concrete indices.
    tr = replay_trace(p, {"cell_t_1": 9}, [1, 1, 1], fig3_cfg)
    assert [v for (_, _, v) in tr] == ["miss", "hit", "hit"]
    # ld<pos>_<decl> spelling wins over the cell_<decl>_<idx> one: the
    # value read picks the block the second load touches, and only 7
    # makes the third load hit.
    p = parse_program("""
    array t[4] elem 1 at 0 secret
    array u[16] elem 1 at 64
    input i width 2 public = 1
    thread 1 critical { load r, t[i]
    load a, u[r]
    load b, u[7] }
    """)
    seq = replay(p, {"ld0_t": 7, "cell_t_1": 3}, [1, 1, 1], fig3_cfg)
    assert seq == ["miss", "miss", "hit"]
    assert replay(p, {"cell_t_1": 3}, [1, 1, 1], fig3_cfg) == ["miss"] * 3


def test_replay_requires_unrolled_loops(fig3_cfg):
    raw = parse_program((CORPUS_DIR / "sbox_rounds.ir").read_text())
    with pytest.raises(ReplayError, match="unroll before replay"):
        replay(raw, {"k": 0}, [1], CacheConfig(64, 4, 2))
    unrolled = unroll_loops(raw, UNROLL_BOUND)
    assert replay(unrolled, {"k": 0}, [1], CacheConfig(64, 4, 2)) == ["miss"]


def test_secret_bits_counts_inputs_and_cells():
    assert secret_bits(load_program("seq_leaky_reuse.ir")) == 8
    assert secret_bits(load_program("sbox16.ir")) == 16
    # 2-bit index plus a four-cell uninitialised secret array.
    assert secret_bits(load_program("sbox_feedback.ir")) == 34
    assert secret_bits(load_program("no_secret.ir")) == 0


def test_brute_force_on_sequential_program(fig3_cfg):
    p = load_program("seq_leaky_reuse.ir")
    leaks = brute_force_leaks(p, fig3_cfg)
    assert leaks == {("t1:L11:store:p", (1, 1, 1))}
    assert brute_force_leaks(load_program("seq_repaired.ir"), fig3_cfg) == set()
    assert brute_force_leaks(load_program("no_secret.ir"), fig3_cfg) == set()


def test_brute_force_on_concurrent_program(fig3_cfg):
    leaks = brute_force_leaks(load_program("conc_tmp_fixed.ir"), fig3_cfg)
    assert leaks == {("t1:L11:store:p", (1, 1, 2, 1))}


def test_brute_force_sweeps_symbolic_bases():
    src = """
    array t[16] elem 1 at 0 public = 5
    scalar probe elem 1 at symbolic
    input k width 4 secret
    thread 1 critical { load r, t[k]
    store t[k], r }
    thread 2 { load s, probe }
    """
    p = parse_program(src)
    cfg = CacheConfig(16, 4, 1)
    leaks = brute_force_leaks(p, cfg)
    # A probe wedged between load and store can evict t[k]'s line, and a
    # probe placed over t itself pre-warms the line of some keys.  Each
    # schedule ends at its leaky access.
    assert leaks == {("t1:L6:store:t", (1, 2, 1)),
                     ("t1:L5:load:t", (2, 1))}
    # Confirm one witness concretely: probe block 4 aliases set 0.
    diverge = {k: _critical_verdicts(p, {"k": k, "probe_base": 16}, [1, 2, 1], cfg)
               for k in (0, 4)}
    assert diverge[0] == ["miss", "miss"]
    assert diverge[4] == ["miss", "hit"]


def test_brute_force_follows_unbalanced_branch_arms(fig3_cfg):
    # ``k`` has 4 bits, so ``k - 5`` wraps above 2 for k < 5 and only
    # k in {5, 6} takes the arm.  The arm's t[5] is the first access, so
    # it always misses.  Line 7's t[k] then hits at k == 5 and misses at
    # k == 6; for the other keys it is the first access and misses.  So
    # the arm's group leaks at line 7 and nothing else leaks.  An oracle
    # that takes its orders from the corner keys 0 and 15 sees only the
    # one-access order, which no key in {5, 6} completes, and finds none.
    p = load_program("branch_unbalanced.ir")
    assert {s for s, _ in brute_force_leaks(p, fig3_cfg)} == {"t1:L7:load:t"}
    reports, stats = explore(p, fig3_cfg, ExploreOptions(),
                             EnumerativeBackend())
    assert stats.complete
    assert {r.site for r in reports} == {"t1:L7:load:t"}


def test_brute_force_groups_runs_by_the_branches_taken_so_far(fig3_cfg):
    # t[k] hits only at k == 3, after the load of t[3].  The branch after
    # it splits k == 3 from the other keys, but the explorer checks t[k]
    # before that branch, under a path constraint that holds for every
    # key, so the leak must show up although no two keys that agree on
    # every branch disagree on t[k].
    p = parse_program("""
    array t[16] elem 1 at 0
    input k width 4 secret
    thread 1 { load r1, t[3]
    load r2, t[k]
    if ((k - 3) < 1) { load r3, t[0] } }
    """)
    assert brute_force_leaks(p, fig3_cfg) == {("t1:L5:load:t", (1, 1))}


# Two programs where two orders reach fork states that differ in one part
# of the state only, and only the state met second leads to a leak, so a
# state key without that part would skip it.
FORK_STATES_APART = [
    # ``e`` evicts t[3].  Loading ``e`` before or after the first t[k]
    # leaves the same cursors, registers and memory, and at k == 3 a
    # different cache: after, the second t[k] misses there and hits for
    # every other key.
    ("""
    array t[16] elem 1 at 0
    scalar e elem 1 at 515
    scalar f elem 1 at 100
    input k width 4 secret
    thread 1 { load r1, e
    load r2, f }
    thread 2 critical { load r1, t[k]
    load r2, t[k] }
    """, ("t2:L9:load:t", (2, 1, 1, 2))),
    # Storing ``v`` before or after the first load of ``v`` leaves the same
    # cursors, memory and cache, and a different r1.  Only the store
    # between the two loads makes the last index 0, where t[k] left the
    # line of k == 0; every other order indexes past t's sets.
    ("""
    array t[16] elem 1 at 0
    scalar v elem 1 at 100
    scalar f elem 1 at 200
    input k width 4 secret
    thread 1 { store v, 3
    load r2, f }
    thread 2 critical { load r1, v
    load r3, v
    load r2, t[k]
    load r4, t[(r1 | (r3 ^ 3)) << 4] }
    """, ("t2:L11:load:t", (2, 1, 1, 2, 2, 2))),
]


@pytest.mark.parametrize("src,leak", FORK_STATES_APART,
                         ids=["cache", "registers"])
def test_brute_force_tells_fork_states_apart(fig3_cfg, src, leak):
    assert brute_force_leaks(parse_program(src), fig3_cfg) == {leak}


def test_brute_force_reproduces_a_bench_layout(fig3_cfg):
    # The benchmark records the oracle's sites per layout; layout 0 of
    # the one-set probe family must still give them.  The generator
    # prints the program, and the digest ties it to the recorded entry.
    text = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "gen.py"), "probe_same_set", "0"],
        capture_output=True, text=True, check=True).stdout
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    entry = expected["probe_same_set/0"]
    assert hashlib.sha256(text.encode()).hexdigest() == entry["sha256"]
    p = unroll_loops(parse_program(text), UNROLL_BOUND)
    assert sorted({s for s, _ in brute_force_leaks(p, fig3_cfg)}) == entry["sites"]


def test_brute_force_caps(fig3_cfg):
    with pytest.raises(BruteForceCapError, match="34 bits"):
        brute_force_leaks(load_program("sbox_feedback.ir"), fig3_cfg)
    with pytest.raises(BruteForceCapError, match="more than 3 schedules") as cap:
        brute_force_leaks(load_program("conc_tmp_fixed.ir"), fig3_cfg,
                          max_orders=3)
    # The site found before the cap tripped is kept.
    assert cap.value.leaks == {("t1:L11:store:p", (1, 1, 2, 1))}
    # A bound below its least value is bad input, not a search it cut.
    with pytest.raises(ValueError, match="max_orders"):
        brute_force_leaks(load_program("conc_tmp_fixed.ir"), fig3_cfg,
                          max_orders=0)
