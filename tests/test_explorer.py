"""End-to-end exploration: reports, schedule classes, budgets.

Every reported witness is replayed on the concrete cache model and must
reproduce both verdicts at the reported access.  Counter values are
pinned so schedule-class deduplication and search-order changes show up.
"""

import pytest

import symleak.explorer

from symleak import parse_program, unroll_loops
from symleak.bruteforce import brute_force_leaks
from symleak.cache import CacheConfig
from symleak.cli import backend_for
from symleak.explorer import ExploreOptions, explore
from symleak.ir import SymbolicBase
from symleak.commands import schedule_from_lines
from symleak.oracle import replay_trace
from symleak.solver import DivergenceResult, EnumerativeBackend

from conftest import late_clock, load_program

DEFAULTS = ExploreOptions()


def lines_of(report):
    return [int(site.split(":")[1][1:]) for (_, site) in report.schedule]


def confirm_witness(p, cfg, report):
    """Replay both models of a report concretely; the verdicts at the
    reported access must match."""
    base_inputs = {}
    for d in p.decls:
        if isinstance(d.placement, SymbolicBase):
            base_inputs[d.placement.var] = report.adversary_addr
    for model, want in ((report.k1, report.verdict1),
                        (report.k2, report.verdict2)):
        inputs = {**base_inputs, **model}
        tids = schedule_from_lines(p, inputs, lines_of(report), cfg)
        tr = replay_trace(p, inputs, tids, cfg)
        assert tr[report.access_index][2] == want
        assert tr[report.access_index][1] == report.site


def test_sequential_program_single_interleaving(fig3_cfg):
    p = load_program("seq_leaky_reuse.ir")
    reports, stats = explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
    assert [r.site for r in reports] == ["t1:L11:store:p"]
    r = reports[0]
    assert r.access_index == 2
    assert lines_of(r) == [5, 7, 11]
    assert (r.k1, r.verdict1) == ({"k": 1}, "hit")
    assert (r.k2, r.verdict2) == ({"k": 0}, "miss")
    assert r.adversary_addr is None
    assert stats.interleavings_explored == 1
    # The loads are cold misses, settled before the search.  The store
    # leaks on the then path, searched first; on the else path its site
    # is already reported, so it is not checked again.  The run alone
    # asks the two branch checks the search repeats from the memo, and
    # one block-equality query: on the else path ``q[k - 128]`` can
    # reach no block of ``p``.
    assert stats.leak_checks == 1
    assert stats.sites_settled == 3
    assert (stats.solver_calls, stats.solver_memo_hits) == (6, 2)
    assert stats.complete and stats.indeterminate == 0
    confirm_witness(p, fig3_cfg, r)


def test_repaired_program_is_clean(fig3_cfg):
    p = load_program("seq_repaired.ir")
    reports, stats = explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
    assert reports == [] and stats.complete


def test_concurrent_program_schedule_classes(fig3_cfg):
    p = load_program("conc_tmp_fixed.ir")
    reports, stats = explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
    assert [r.site for r in reports] == ["t1:L11:store:p"]
    r = reports[0]
    assert r.access_index == 3
    assert lines_of(r) == [6, 9, 13, 11]
    assert (r.k1, r.verdict1) == ({"k": 0}, "hit")
    assert (r.k2, r.verdict2) == ({"k": 1}, "miss")
    # The loads of q and p are settled before the search: nothing loads
    # their blocks first, so they miss under every secret.  Five choice
    # sequences close.  In the then arm the probe runs after the store
    # (1, 1, 1), then between the load and the store (1, 1, 2), where
    # the store leaks, then before the load of p (1, 2), then first
    # (2,).  From there on only settled or reported sites lie ahead, and
    # (2,) closes before the sleep set that would abandon it is built.
    # In the else arm the same holds right after the branch (), before
    # any choice.  Only the store is checked, in (1, 1, 1) and (1, 1, 2).
    # The search's two branch checks repeat the settling run's, and
    # settling asks one query: whether ``q[k - 128]`` on the else path
    # can be the block of ``p[k]`` before it.
    assert stats.interleavings_explored == 5
    assert stats.leak_checks == 2
    assert stats.sites_settled == 3
    assert stats.solver_calls == 7
    assert stats.solver_memo_hits == 2
    confirm_witness(p, fig3_cfg, r)


def test_repeated_queries_are_answered_by_the_memo(fig3_cfg):
    # Schedules ask the same path-feasibility and divergence questions
    # again; the backend decides each distinct one once.
    p = load_program("conc_multi_probe.ir")
    be = backend_for(p, fig3_cfg)
    _, stats = explore(p, fig3_cfg, DEFAULTS, be)
    assert (stats.solver_memo_hits, stats.solver_calls) == (2, 7)
    assert (be.memo_hits, be.calls) == (2, 7)
    # Counters are per run, taken as differences on the backend.
    _, again = explore(p, fig3_cfg, DEFAULTS, be)
    assert (again.solver_memo_hits, again.solver_calls) == (7, 7)


@pytest.mark.parametrize("cfg,site", [
    (CacheConfig(512, 1, 1), "t1:L12:store:p"),
    (CacheConfig(65536, 64, 4), "t1:L7:load:q"),
], ids=["paper-fig3", "default-assoc4"])
def test_unrelated_probe_does_not_hide_a_later_conflict(cfg, site):
    # Thread 2 loads ``far``, which shares no set with thread 1, before
    # ``tmp``.  Forking only where two enabled accesses conflict ran all
    # of thread 1 first and never put ``tmp`` between its accesses.
    p = load_program("conc_far_probe.ir")
    brute = {s for s, _ in brute_force_leaks(p, cfg)}
    assert brute == {site}
    reports, stats = explore(p, cfg, DEFAULTS, backend_for(p, cfg))
    assert {r.site for r in reports} == brute
    assert stats.complete
    for r in reports:
        confirm_witness(p, cfg, r)


def test_dependence_is_decided_per_path(fig3_cfg):
    # Thread 2's ``a[k]`` can share ``c``'s set only on the else path
    # (k = 3), and the leak needs thread 3's load of ``c`` before it.
    # The then arm runs first and finds the two loads independent; that
    # answer, reused on the else path, would put thread 2 to sleep after
    # thread 3 there and lose the leak.
    p = load_program("conc_path_dependent_alias.ir")
    brute = {s for s, _ in brute_force_leaks(p, fig3_cfg)}
    assert brute == {"t1:L10:load:c"}
    reports, stats = explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
    assert {r.site for r in reports} == brute
    assert [tid for tid, _ in reports[0].schedule] == [3, 2, 1]
    confirm_witness(p, fig3_cfg, reports[0])


def test_symbolic_probe_placement(fig3_cfg):
    p = load_program("adv_symbolic.ir")
    reports, stats = explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
    found = {r.site: r.adversary_addr for r in reports}
    # The probe can be placed to alias the store reuse (512), p itself
    # (0), or either arm's q access (385 / 257).
    assert found == {"t1:L11:store:p": 512, "t1:L9:load:p": 0,
                     "t1:L6:load:q": 385, "t1:L8:load:q": 257}
    assert stats.interleavings_explored == 5
    assert stats.solver_calls == 9
    # The probe's symbolic base may place it on any block, so nothing is
    # settled, and settling asks nothing.
    assert stats.sites_settled == 0
    for r in reports:
        confirm_witness(p, fig3_cfg, r)


def test_two_secret_inputs_and_fresh_cells(fig3_cfg):
    p = load_program("sbox16.ir")
    reports, stats = explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
    assert [r.site for r in reports] == ["t1:L7:load:sb", "t1:L9:store:sb"]
    assert reports[0].k1 == {"klo": 4, "khi": 0}
    assert reports[0].k2 == {"klo": 0, "khi": 0}
    for r in reports:
        confirm_witness(p, fig3_cfg, r)

    p = load_program("sbox_feedback.ir")
    reports, stats = explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
    assert [r.site for r in reports] == ["t1:L9:store:key"]
    # The diverging value is one read out of secret memory, not an input.
    assert set(reports[0].k1) == {"j", "ld0_key"}
    assert stats.solver_calls == 1
    for r in reports:
        confirm_witness(p, fig3_cfg, r)


def test_interval_pruning_folds_every_check(monkeypatch):
    # On 32 sets of 64-byte lines, ``s0[k]`` covers blocks 0..3,
    # ``s1[reg1 + k]`` blocks 16..20 and ``acc`` block 9, so no two of
    # them can share a set, and the final store repeats the address of
    # ``s0[k]``.  So the loads are cold misses and the store a must-hit:
    # every site settles, and nothing is checked.
    cfg = CacheConfig(2048, 64, 1)
    p = load_program("sbox_pair.ir")
    brute = {s for s, _ in brute_force_leaks(p, cfg)}
    reports, stats = explore(p, cfg, DEFAULTS, backend_for(p, cfg))
    assert (stats.leak_checks, stats.solver_calls, stats.sites_settled) == (
        0, 0, 4)
    assert {r.site for r in reports} == brute
    # With nothing settled, interval pruning folds every hit constraint
    # to a constant, so no query reaches the solver; unpruned, three
    # would.
    monkeypatch.setattr(symleak.explorer, "_settled_sites", lambda *a: 0)
    reports, stats = explore(p, cfg, DEFAULTS, backend_for(p, cfg))
    assert (stats.leak_checks, stats.solver_calls) == (4, 0)
    assert {r.site for r in reports} == brute


def test_exploration_is_deterministic(fig3_cfg):
    p = load_program("adv_symbolic.ir")
    runs = [explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
            for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_early_termination_needs_a_dependent_fork():
    # Thread 2 is critical.  Its ``t[k]`` leaks whenever thread 1's
    # ``t[3]`` runs first, and its ``a`` load leaks only when thread 1's
    # ``a`` load runs before ``t[k]`` as well, so both leak in one order.
    # ``far`` is independent of thread 1, so the forks there leave a
    # single class of orders: an interleaving cut at its first leak, as
    # an earlier search did, would never check ``a`` in it.
    cfg = CacheConfig(32, 1, 1)
    p = load_program("conc_independent_forks.ir")
    brute = {s for s, _ in brute_force_leaks(p, cfg)}
    assert brute == {"t2:L9:load:t", "t2:L10:load:a"}
    reports, stats = explore(p, cfg, DEFAULTS, backend_for(p, cfg))
    assert {r.site for r in reports} == brute
    assert stats.complete
    for r in reports:
        confirm_witness(p, cfg, r)


def test_schedule_classes_cover_all_order_behaviors(fig3_cfg):
    # Quotient check: for each key, the set of critical behaviors over
    # every raw total order equals the set over the explored classes'
    # representative schedules plus the common non-leaky one.
    p = load_program("conc_tmp_fixed.ir")
    raw_orders = [(2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2)]
    reports, stats = explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
    leak_lines = lines_of(reports[0])
    for k in (0, 1, 64, 130):
        raw = set()
        for order in raw_orders:
            tr = replay_trace(p, {"k": k}, order, fig3_cfg)
            raw.add(tuple(v for (t, _, v) in tr if t == 1))
        tids = schedule_from_lines(p, {"k": k},
                                   leak_lines if k <= 127 else [13, 8, 9, 11],
                                   fig3_cfg)
        tr = replay_trace(p, {"k": k}, tids, fig3_cfg)
        from_class = tuple(v for (t, _, v) in tr if t == 1)
        assert raw <= {from_class, ("miss", "miss", "hit")}, k


def test_interleaving_budget_marks_incomplete(fig3_cfg):
    p = load_program("conc_tmp_fixed.ir")
    opts = ExploreOptions(max_interleavings=1)
    reports, stats = explore(p, fig3_cfg, opts, backend_for(p, fig3_cfg))
    assert not stats.complete
    assert stats.interleavings_explored <= 1


def test_unknown_solver_counts_indeterminate(fig3_cfg):
    class Inconclusive(EnumerativeBackend):
        def check_divergence(self, *a, **kw):
            self.calls += 1
            return DivergenceResult("unknown")

    p = load_program("seq_leaky_reuse.ir")
    reports, stats = explore(p, fig3_cfg, DEFAULTS, Inconclusive())
    assert reports == []
    assert stats.indeterminate > 0
    assert stats.complete  # search finished; the verdicts did not


def test_past_deadline_counts_each_undecided_check(fig3_cfg, monkeypatch):
    p = load_program("conc_tmp_fixed.ir")
    be = backend_for(p, fig3_cfg, timeout_ms=30000)
    answers = []
    divergence = be.check_divergence

    def recorded(*args):
        res = divergence(*args)
        answers.append(res.status)
        return res

    be.check_divergence = recorded
    late_clock(monkeypatch)
    reports, stats = explore(p, fig3_cfg, DEFAULTS, be)
    assert reports == [] and stats.complete
    assert answers and set(answers) == {"unknown"}
    assert stats.indeterminate == len(answers)
    monkeypatch.undo()
    reports, stats = explore(p, fig3_cfg, DEFAULTS, be)
    assert [r.site for r in reports] == ["t1:L11:store:p"]
    assert stats.indeterminate == 0


def test_interleaving_ends_with_the_critical_thread(fig3_cfg):
    # Threads 2 and 3 still run after thread 1's only access, and their
    # accesses to ``u`` are dependent.  Only critical accesses are
    # checked, so no order after thread 1's end is explored: the first
    # sequence (1,) closes there.  Thread 1's access leaks after
    # ``t[3]`` (2, 1); from then on nothing unreported lies ahead of
    # thread 1, so (2, 2), (2, 3) and (3,) close at once.  The count is
    # of closed states, not of classes of orders: a state closes before
    # its sleep set is computed, so those three count although their
    # sleep sets would have abandoned them, and five sequences stand for
    # two classes.  Running threads 2 and 3 to their ends as well gives
    # six sequences and ten forks.
    p = load_program("conc_tail.ir")
    reports, stats = explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
    assert [r.site for r in reports] == ["t1:L5:load:t"]
    assert stats.interleavings_explored == 5
    assert stats.states_forked == 4
    assert stats.leak_checks == 2
    assert stats.complete
    for r in reports:
        confirm_witness(p, fig3_cfg, r)


def explore_source(text, cfg):
    p = unroll_loops(parse_program(text), 16)
    return p, explore(p, cfg, DEFAULTS, backend_for(p, cfg))


def test_out_of_bounds_index_is_an_observer():
    # ``t[k + 64]`` runs past ``t`` onto ``a``'s block, so thread 3's
    # load of ``a`` is observed and its order against ``b`` (same set)
    # still forks.  A rule that took the critical thread's blocks from
    # the extents of the declarations it names would let ``a`` and ``b``
    # commute.  The key is public, so no site is reported and no order
    # is cut short: the count is that of every class of orders.
    cfg = CacheConfig(32, 1, 1)
    p, (reports, stats) = explore_source(
        "array t[16] elem 1 at 0\narray a[1] elem 1 at 69\n"
        "array b[1] elem 1 at 133\ninput k width 4 public = 5\n"
        "thread 1 critical {\nload r1, t[k + 64]\n}\n"
        "thread 2 {\nload r1, b[0]\n}\nthread 3 {\nload r1, a[0]\n}\n", cfg)
    assert reports == []
    assert stats.interleavings_explored == 5
    assert stats.complete


@pytest.mark.parametrize("shared,interleavings", [
    ("", 1000),
    # Threads 2 and 3 also load and store one scalar ``s``, block 10000,
    # which no critical access touches.  Neither thread then has a
    # footprint, but the critical thread still does, so the probes still
    # commute; only the orders around ``s`` add to the count.  A search
    # that built no footprint when some thread had none read 94,978.
    ("s", 1819),
], ids=["probes", "shared-scalar"])
def test_unobserved_probes_commute(fig3_cfg, shared, interleavings):
    # bench/gen.py's probe shape at three threads of three probes, every
    # probe on set 5 with its own tag.  ``p[k]`` (k == 5) lies on set 5
    # too, and ``q`` covers sets 257..511 and 0, so a probe can evict
    # ``p[k]`` between its load and its store and touches no other
    # critical block.  No check sees the order of two probes of
    # different threads, so only where each thread's three probes fall
    # against the load and the store of ``p[k]`` is ordered: C(5, 2) =
    # 10 ways per thread, 10^3 choice sequences.  With every probe of
    # the set dependent on every other, there were 45,682.  The key is
    # public, so no site is reported and no order is cut short.
    text = ("array p[256] elem 1 at 0\ninput k width 8 public = 5\n"
            "array q[256] elem 1 at 257\n")
    text += "".join(f"scalar w{i} elem 1 at {(2 + i) * 512 + 5}\n"
                    for i in range(9))
    if shared:
        text += "scalar s elem 1 at 10000\n"
    text += ("thread 1 critical { if (k <= 127) {\nload reg2, q[255 - k]\n"
             "} else {\nload reg2, q[k - 128]\n} load reg1, p[k]\n"
             "reg1 := reg1 + reg2\nstore p[k], reg1\n}\n")
    for t in range(3):
        text += f"thread {t + 2} {{\n"
        text += "".join(f"load r{j}, w{3 * t + j}\n" for j in range(3))
        if shared:
            text += ("load r9, s\n", "store s, 1\n", "")[t]
        text += "}\n"
    p, (reports, stats) = explore_source(text, fig3_cfg)
    assert reports == []
    assert stats.interleavings_explored == interleavings
    assert stats.complete


def test_stores_to_critical_memory_keep_every_order(fig3_cfg):
    # Thread 2 stores 100 into ``a``, which the critical thread loads and
    # indexes ``t`` with: running alone it touches blocks 0..15, but after
    # the store blocks 100..115, where thread 2's ``t[100]`` and thread
    # 3's ``u`` (block 612, the same set) lie.  Their order decides
    # whether ``t[r1 + k]`` hits for k == 0, so they must not commute:
    # the counts are those of a search in which no access is unobserved.
    # The key is public (k == 0), so no site is reported and no order is
    # cut short.
    p, (reports, stats) = explore_source(
        "array t[256] elem 1 at 0\narray a[1] elem 1 at 300 public = 0\n"
        "scalar u elem 1 at 612\ninput k width 4 public = 0\n"
        "thread 1 critical {\nload r1, a[0]\nload r2, t[r1 + k]\n}\n"
        "thread 2 {\nstore a[0], 100\nload r1, t[100]\n}\n"
        "thread 3 {\nload r1, u\n}\n", fig3_cfg)
    assert reports == []
    assert (stats.interleavings_explored, stats.states_forked) == (8, 12)


@pytest.mark.parametrize("body", [
    "load r0, t[0]\nif (k <= 7) {\nload r1, t[k]\n}\nload r2, w\n",
    "load r0, t[0]\nload r1, t[k]\nif (k <= 7) {\nload r2, w\n}\n",
    "load r0, t[0]\nload r1, t[k]\nif (7 < k) {\n} else {\nload r2, w\n}\n",
], ids=["after-the-arm", "in-an-arm-ahead", "in-an-else-arm-ahead"])
def test_a_state_closes_only_when_every_site_ahead_is_reported(body):
    # ``t[k]`` leaks on its own (it hits ``t[0]``'s line for k == 0) and
    # is reported in the first order.  The critical load of ``w`` leaks
    # only when thread 2's load of ``w`` runs before ``t[k]``, which
    # evicts it for k == 4; the search reaches that order later.  There
    # ``w`` lies after the arm holding ``t[k]``, or in an arm ahead of
    # it: a cut that counted only the rest of the current statement
    # list, or skipped branch arms, or counted only the then-arm, would
    # close the state and lose it.
    cfg = CacheConfig(32, 1, 1)
    p, (reports, stats) = explore_source(
        "array t[16] elem 1 at 0\nscalar w elem 1 at 36\n"
        "input k width 4 secret\nthread 1 critical {\n" + body + "}\n"
        "thread 2 {\nload r1, w\n}\n", cfg)
    brute = {s for s, _ in brute_force_leaks(p, cfg)}
    assert len(brute) == 2
    assert {r.site for r in reports} == brute
    assert stats.complete
    for r in reports:
        confirm_witness(p, cfg, r)


@pytest.mark.parametrize("name,sites,settled", [
    # Thread 2's load of p[0] is all that can warm the critical load: a
    # rule that ignored other threads would settle it.
    ("conc_probe_warms.ir", ["t1:L7:load:p"], 0),
    # The store to p[k] is warmed by the critical thread's own earlier
    # load of p[k]: a rule that ignored earlier critical accesses would
    # settle it.  The loads of p and q are cold.
    ("conc_reuse_warms.ir", ["t1:L16:store:p"], 3),
    # Thread 2 stores to ``idx``, which the critical thread indexes with:
    # running alone, the critical thread computes other addresses than
    # in the leaking order, so nothing may settle.
    ("conc_index_store.ir", ["t1:L10:load:t"], 0),
    # Thread 2 may evict a preloaded block before the lookup: a must-hit
    # rule that ignored other threads would settle it.  The preloads
    # are cold.
    ("must_evicted_by_thread.ir", ["t1:L13:load:t"], 1),
    # Each lookup is a must-hit on one path only: a rule that carried
    # one arm's cache into the other would settle one of them.
    ("must_one_arm.ir", ["t1:L23:load:t", "t1:L24:load:u"], 5),
    # The lookup's range is one block wider than the preloads: a rule
    # that accepted it would settle it.
    ("must_wider_range.ir", ["t1:L10:load:t"], 1),
], ids=["other-thread", "earlier-access", "store-to-index",
        "must-hit-other-thread", "must-hit-one-arm", "must-hit-wider-range"])
def test_settling_keeps_every_leak(fig3_cfg, name, sites, settled):
    p = load_program(name)
    assert sorted(s for s, _ in brute_force_leaks(p, fig3_cfg)) == sites
    reports, stats = explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
    assert sorted(r.site for r in reports) == sites
    assert stats.sites_settled == settled
    for r in reports:
        confirm_witness(p, fig3_cfg, r)


@pytest.mark.parametrize("assoc", [1, 4])
def test_preloaded_rounds_settle_every_site(assoc):
    # Every lookup after the preloads is a must-hit and every preload a
    # cold miss: both sites settle, and nothing is checked or asked.
    cfg = CacheConfig(512, 1, assoc)
    p = load_program("families/must_preloaded.ir")
    assert not brute_force_leaks(p, cfg)
    reports, stats = explore(p, cfg, DEFAULTS, backend_for(p, cfg))
    assert reports == [] and stats.complete
    assert (stats.sites_settled, stats.leak_checks, stats.solver_calls) == (
        2, 0, 0)


@pytest.mark.parametrize("body", [
    "load r1, p[k]\nload r2, q[k]\n",
    "if (k < 8) {\nload r1, p[k]\n}\nload r2, q[0]\n",
], ids=["two-tables", "one-arm"])
def test_one_thread_computes_no_footprint(fig3_cfg, monkeypatch, body):
    # A thread alone that accesses no declaration twice has no must-hit
    # to find, so the search runs no thread alone and asks no settling
    # query.
    calls = []
    for fn in ("_footprint", "_settled_sites"):
        real = getattr(symleak.explorer, fn)
        monkeypatch.setattr(symleak.explorer, fn,
                            lambda *a, real=real, fn=fn: calls.append(fn)
                            or real(*a))
    _, (_, stats) = explore_source(
        "array p[256] elem 1 at 0\narray q[256] elem 1 at 256\n"
        "input k width 4 secret\nthread 1 {\n" + body + "}\n", fig3_cfg)
    assert calls == [] and stats.sites_settled == 0


def test_one_thread_settles_its_repeated_accesses(fig3_cfg, monkeypatch):
    # ``sbox_rounds.ir`` loads ``sb`` and ``acc`` twice each: the thread
    # runs alone once, and every site settles.  The first lookup and the
    # first load of ``acc`` are cold, the second lookup too, after one
    # query shows that ``sb[k ^ 5]`` is never the block of ``sb[k]``,
    # and the rest repeat an address nothing in between can evict.
    calls = []
    real = symleak.explorer._footprint
    monkeypatch.setattr(symleak.explorer, "_footprint",
                        lambda *a: calls.append(a[1]) or real(*a))
    p = load_program("sbox_rounds.ir")
    reports, stats = explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
    assert reports == [] and calls == [0]
    assert (stats.sites_settled, stats.leak_checks, stats.solver_calls) == (
        3, 0, 1)


def test_no_cold_site_leaves_the_search_as_it_was(fig3_cfg):
    # The critical thread's one access, the load of ``c``, hits after
    # thread 3's load of ``c``.  Settling runs and settles nothing, and
    # the counters are those of the search without it: the critical
    # thread's run alone is the table entry the observers read anyway,
    # and equal addresses need no query.
    p = load_program("conc_path_dependent_alias.ir")
    _, stats = explore(p, fig3_cfg, DEFAULTS, backend_for(p, fig3_cfg))
    assert (stats.interleavings_explored, stats.leak_checks,
            stats.solver_calls, stats.states_forked,
            stats.sites_settled) == (5, 8, 10, 7, 0)
