"""Differential test: the explorer's leak sites against the brute-force
oracle on small generated programs.

Each program has up to three threads of up to three loads and stores
and a 4-bit secret ``k``, and may wrap one access of one thread in a
branch ``if ((k - c) < w)``, which the keys from ``c`` below ``c + w``
take.  The critical thread may first preload every element of ``t``
and may end by loading its first access's cell again, so that its
lookups can be must-hits, which the other threads' accesses may
evict.  Every program is analysed on a direct-mapped and on a 4-way
cache.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from symleak import parse_program, unroll_loops
from symleak.bruteforce import brute_force_leaks
from symleak.cache import CacheConfig
from symleak.explorer import ExploreOptions, explore
from symleak.ir import Program
from symleak.solver import EnumerativeBackend

CACHES = (CacheConfig(32, 1, 1), CacheConfig(16, 1, 4))

_index = st.one_of(st.just("k"), st.integers(0, 15).map(str),
                   st.integers(1, 15).map(lambda c: f"k ^ {c}"))
_cell = st.one_of(_index.map(lambda i: f"t[{i}]"),
                  st.sampled_from(["a[0]", "b[0]"]))
_access = st.tuples(st.booleans(), _cell).map(
    lambda lc: f"load r1, {lc[1]}" if lc[0] else f"store {lc[1]}, 1")
# (thread, access, c, w) of the access wrapped in a branch; indices past
# the last thread or access name the last one.
_branch = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 15),
                    st.integers(1, 8))
# (base of t, offset of a, offset of b, thread bodies, critical tid,
# branch or None, preload, repeat); a critical tid past the last thread
# names the last one.  With ``preload`` the critical thread loads
# t[0..15] first; with ``repeat`` it loads its first access's cell
# again at its end.  An example without the last two has neither.
programs = st.tuples(st.sampled_from([0, 4, 8, 16]), st.integers(0, 40),
                     st.integers(0, 40),
                     st.lists(st.lists(_access, min_size=1, max_size=3),
                              min_size=1, max_size=3),
                     st.integers(1, 3), _branch, st.booleans(), st.booleans())

# A probe of an unrelated set ahead of the conflicting one: ``b`` shares
# no set with ``t`` or ``a`` on the direct-mapped cache, ``a`` shares one
# with ``t[1]``.  The store leaks only when ``a`` runs between the load
# and the store of ``t[k]``.
FAR = (0, 1, 20, [["load r1, t[k]", "store t[k], 1"],
                  ["load r1, b[0]", "load r1, a[0]"]], 1, None)

# The critical ``t[k]`` leaks (k == 3 hits) whenever thread 1's ``t[3]``
# runs first, and its ``a`` load leaks (k == 2 evicts ``a``) only when
# thread 1's ``a`` load runs before ``t[k]`` as well.  ``b`` is
# independent of thread 1, so forking over it leaves a single class of
# orders, in which both sites leak.
LATE = (0, 2, 20, [["load r1, t[3]", "load r1, a[0]"],
                   ["load r1, b[0]", "load r1, t[k]", "load r1, a[0]"]],
        2, None)

# The critical load of ``a`` leaks (``t[k]`` at k == 2 shares its set on
# the direct-mapped cache) only in an order where ``t[k]`` has already
# leaked, so a search that ends an interleaving at its first leak never
# checks it.
SECOND = (8, 10, 0, [["load r1, t[k]", "load r1, a[0]"],
                     ["load r1, t[k]", "store a[0], 1"]], 1, None)

# The critical load of ``t[k]`` leaks on its own (it hits only when
# k == 1), and thread 2's ``b`` shares no set with thread 1 on the
# direct-mapped cache.  A search that checks a critical access only when
# another thread may touch its set reports nothing there.
ALONE = (0, 0, 20, [["load r1, t[1]", "load r1, t[k]", "store t[k], 1"],
                    ["load r1, b[0]"]], 1, None)

# Threads 2 and 3 probe ``a`` and ``b``, which share a set but no block
# with the critical ``t[k]``, so no check sees their order and they
# commute (11 interleavings become 9 on the direct-mapped cache).  The
# store still leaks when either probe lands between the load and the
# store of ``t[k]``.
UNOBSERVED = (0, 5, 5, [["load r1, t[k]", "store t[k], 1"],
                        ["load r1, a[0]"], ["load r1, b[0]"]], 1, None)

# The critical index runs past the end of ``t`` onto ``a``'s block, so
# ``a`` is observed although the critical thread never names it: the
# critical blocks must come from its addresses, not from the extents of
# the declarations it names.
OOB = (0, 5, 5, [["load r1, t[k + 64]"], ["load r1, b[0]"],
                 ["load r1, a[0]"]], 1, None)


# Thread 2's only access runs only for k in {5, 6}, so an oracle that
# takes its orders from the corner keys 0 and 15 never schedules it.
# After thread 1's store to t[5] it hits at k == 5 and misses at k == 6.
ARM = (0, 0, 0, [["store t[5], 1", "load r1, b[0]"], ["load r1, t[k]"]], 2,
       (1, 0, 5, 2))

# The same shape with the roles swapped: thread 2's store to t[5] runs
# only for k in {5, 6}, and the critical t[k] leaks when it runs after
# it.  Orders must come from every run: the key 0 alone has no thread 2.
PROBE_ARM = (0, 0, 0, [["load r1, t[k]"], ["store t[5], 1"]], 1, (1, 0, 5, 2))


# The critical lookup after the preloads hits for every k, unless
# thread 2's ``a``, on ``t[3]``'s set of the direct-mapped cache, runs
# between them: then it misses for k == 3 only.  The repeated lookup
# hits unless ``a`` runs just before it.
PRELOADED = (0, 3, 20, [["load r1, t[k]"], ["load r1, a[0]"]], 1, None,
             True, True)


def render(prog) -> str:
    base, a, b, threads, critical, branch = prog[:6]
    preload, repeat = prog[6:] or (False, False)
    critical = min(critical, len(threads))
    threads = [list(body) for body in threads]
    body = threads[critical - 1]
    if repeat:
        cell = body[0].split(", ")[1] if body[0].startswith("load") \
            else body[0].split(" ")[1].rstrip(",")
        body.append(f"load r2, {cell}")
    if preload:
        body[:0] = ["for i in 0..16 {", "load r0, t[i]", "}"]
    if branch is not None:
        ti, ai, c, w = branch
        body = threads[min(ti, len(threads) - 1)]
        ai = min(ai, len(body) - 1)
        body[ai:ai + 1] = [f"if ((k - {c}) < {w}) {{", body[ai], "}"]
    lines = [f"array t[16] elem 1 at {base}", f"array a[1] elem 1 at {64 + a}",
             f"array b[1] elem 1 at {128 + b}", "input k width 4 secret"]
    for tid, body in enumerate(threads, 1):
        lines.append(f"thread {tid}{' critical' if tid == critical else ''} {{")
        lines += body
        lines.append("}")
    return "\n".join(lines) + "\n"


def explored_sites(p: Program, cfg: CacheConfig) -> set[str]:
    reports, stats = explore(p, cfg, ExploreOptions(), EnumerativeBackend())
    assert stats.complete
    return {r.site for r in reports}


def oracle_sites(p: Program, cfg: CacheConfig) -> set[str]:
    return {site for site, _ in brute_force_leaks(p, cfg)}


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(programs)
@example(FAR)
@example(LATE)
@example(SECOND)
@example(ALONE)
@example(UNOBSERVED)
@example(OOB)
@example(ARM)
@example(PROBE_ARM)
@example(PRELOADED)
def test_explorer_agrees_with_brute_force(prog):
    p = unroll_loops(parse_program(render(prog)), 16)
    for cfg in CACHES:
        assert explored_sites(p, cfg) == oracle_sites(p, cfg), (cfg, render(prog))
