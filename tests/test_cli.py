"""Command line behavior: subcommands, exit codes, report schema."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symleak.cli
import symleak.explorer
from symleak import expr as ex
from symleak.bruteforce import brute_force_leaks
from symleak.cache import CacheConfig
from symleak.cli import backend_for, confirm_report, main
from symleak.explorer import LeakReport, explore
from symleak.solver import DEFAULT_TIMEOUT_MS, DivergenceResult

from conftest import CORPUS_DIR, PROGRAMS_DIR, ROOT, load_program

SEQ = str(CORPUS_DIR / "seq_leaky_reuse.ir")
REPAIRED = str(CORPUS_DIR / "seq_repaired.ir")
CONC = str(CORPUS_DIR / "conc_tmp_fixed.ir")
SBOX = str(CORPUS_DIR / "sbox_lookup.ir")
PUBLIC_CELL = str(PROGRAMS_DIR / "public_cell.ir")
STUB = f"{sys.executable} {Path(__file__).resolve().parent / 'smtstub.py'}"
FIG3 = ["--preset", "paper-fig3"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_reports_leak_with_exit_1(capsys):
    code, out, err = run_cli(capsys, "analyze", SEQ, *FIG3)
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["program", "cache", "leaks", "stats", "complete"]
    assert doc["program"] == SEQ
    assert doc["cache"] == {"size": 512, "line": 1, "assoc": 1}
    assert doc["complete"] is True
    leak = doc["leaks"][0]
    assert list(leak) == ["site", "access_index", "schedule", "k1", "k2",
                          "verdict1", "verdict2", "replay_confirmed"]
    assert leak["site"] == "t1:L11:store:p"
    assert leak["access_index"] == 2
    assert leak["schedule"] == [[1, "t1:L5:load:p"], [1, "t1:L7:load:q"],
                                [1, "t1:L11:store:p"]]
    assert leak["k1"] == {"k": 1} and leak["verdict1"] == "hit"
    assert leak["k2"] == {"k": 0} and leak["verdict2"] == "miss"
    assert leak["replay_confirmed"] is True
    assert doc["stats"]["interleavings"] == 1
    # The run alone before the search asks two branch checks, which the
    # search repeats, and one settling query; the store asks the last.
    assert doc["stats"]["solver_calls"] == 6


def test_analyze_clean_program_exits_0(capsys):
    code, out, _ = run_cli(capsys, "analyze", REPAIRED, *FIG3)
    assert code == 0
    doc = json.loads(out)
    assert doc["leaks"] == [] and doc["complete"] is True


def test_analyze_unreadable_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "/nonexistent.ir")
    assert code == 2 and out == ""
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent.ir'\n"


def test_analyze_non_utf8_file_exits_2(capsys, tmp_path):
    src = tmp_path / "utf16.ir"
    src.write_bytes(b"\xff\xfe" + "thread 1 { }\n".encode("utf-16-le"))
    code, out, err = run_cli(capsys, "analyze", str(src), *FIG3)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not UTF-8" in err


def _recursion_crash(*args, **kwargs):
    raise RecursionError("maximum recursion depth exceeded")


def _width_mismatch(*args, **kwargs):
    # A pipeline bug: an expression builder's invariant fails.
    return ex.add(ex.var("x", 8), ex.var("y", 32))


def test_analyze_internal_error_exits_4(capsys, monkeypatch):
    # Exit 2 is for bad input only: a ValueError raised inside the
    # pipeline is a crash too, with its traceback.
    for owner, attr, fake, name in (
            (symleak.cli, "explore", _recursion_crash, "RecursionError"),
            (symleak.explorer, "hit_constraint", _width_mismatch,
             "ValueError: add: width mismatch 8 vs 32")):
        with monkeypatch.context() as m:
            m.setattr(owner, attr, fake)
            code, out, err = run_cli(capsys, "analyze", SEQ, *FIG3)
        assert code == 4 and out == ""
        assert err.startswith("Traceback") and name in err


def test_unconfirmed_witness_exits_4(capsys, monkeypatch):
    # A witness that replay does not reproduce means the analysis
    # contradicts itself; the input was fine.
    monkeypatch.setattr(symleak.cli, "confirm_report", lambda *args: False)
    code, out, err = run_cli(capsys, "analyze", SEQ, *FIG3)
    assert code == 4 and out == ""
    assert err == "error: witness at t1:L11:store:p failed replay confirmation\n"


def test_thousand_access_loop_exits_0(capsys, tmp_path):
    # The search keeps its frames on a heap stack, so trace length is not
    # bounded by the interpreter's recursion limit.  ``t[r0]``, with
    # ``r0`` read from never-written public memory, may or may not bring
    # in the block of ``acc``, so the loop's first load of ``acc`` is
    # neither a cold miss nor a must-hit: its site does not settle, and
    # every one of its 1,000 accesses is checked.  No secret decides
    # which, so nothing leaks.
    src = tmp_path / "loop.ir"
    src.write_text("scalar acc elem 1 at 0\narray t[256] elem 1 at 1\n"
                   "array q[1] elem 1 at 4096\ninput k width 8 secret\n"
                   "thread 1 { load r0, q[0] load r1, t[r0]\n"
                   "for i in 0..1000 { load reg1, acc } }\n")
    code, out, err = run_cli(capsys, "analyze", str(src))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["complete"] is True and doc["stats"]["leak_checks"] == 1000


def test_deep_address_chain_exits_1(capsys, tmp_path):
    # 1500 doublings nest the second lookup's index 1500 levels deep; the
    # interval analysis walks it without recursing per level.
    src = tmp_path / "doubling.ir"
    src.write_text("array sb[16] elem 1 at 0 public = 5\n"
                   "input k width 8 secret\n"
                   "thread 1 {\nreg1 := k\nload reg2, sb[reg1 & 15]\n"
                   "for i in 0..1500 {\nreg1 := reg1 + reg1\n}\n"
                   "load reg2, sb[reg1 & 15]\n}\n")
    code, out, err = run_cli(capsys, "analyze", str(src), *FIG3)
    assert code == 1 and err == ""
    assert {leak["site"] for leak in json.loads(out)["leaks"]} == {"t1:L9:load:sb"}


def test_analyze_budget_exhaustion_exits_3(capsys):
    # The store leaks in the second choice sequence, found before that
    # sequence would close past the budget.  Truncation outranks found
    # leaks: they are reported, but exit 3.
    code, out, _ = run_cli(capsys, "analyze", CONC, *FIG3,
                           "--max-interleavings", "1")
    assert code == 3
    doc = json.loads(out)
    assert [leak["site"] for leak in doc["leaks"]] == ["t1:L11:store:p"]
    assert doc["complete"] is False
    assert doc["stats"]["interleavings"] == 1


@pytest.mark.parametrize(
    "prog", sorted(CORPUS_DIR.glob("*.ir")) + sorted(PROGRAMS_DIR.glob("*.ir")),
    ids=lambda prog: prog.name)
def test_budget_equal_to_the_interleaving_count_completes(capsys, prog):
    # ``--max-interleavings N`` bounds the distinct choice sequences
    # whose states closed.  A run with N of them fits and reports as if
    # unbounded; one fewer stops it.  Branch arms that keep the choice
    # sequence and forks whose subtrees all sleep count nothing.
    code, out, _ = run_cli(capsys, "analyze", str(prog), *FIG3)
    doc = json.loads(out)
    assert doc["complete"] is True
    n = doc["stats"]["interleavings"]
    got, out, _ = run_cli(capsys, "analyze", str(prog), *FIG3,
                          "--max-interleavings", str(n))
    bounded = json.loads(out)
    assert (got, bounded["complete"], bounded["leaks"]) == (code, True,
                                                            doc["leaks"])
    if n > 1:
        got, out, _ = run_cli(capsys, "analyze", str(prog), *FIG3,
                              "--max-interleavings", str(n - 1))
        assert (got, json.loads(out)["complete"]) == (3, False)


def test_max_interleavings_below_one_exits_2(capsys):
    # No interleaving at all is a bad budget, not a search it bounded.
    for value in ("0", "-1"):
        code, out, err = run_cli(capsys, "analyze", CONC, *FIG3,
                                 "--max-interleavings", value)
        assert code == 2 and out == ""
        assert err == f"error: max_interleavings must be at least 1, got {value}\n"


def test_timeout_below_one_ms_exits_2(capsys):
    # The backend checks its deadline, the built-in one and an external
    # solver's alike.
    stub = Path(__file__).resolve().parent / "smtstub.py"
    for solver in ([], ["--solver", f"{sys.executable} {stub}"]):
        code, out, err = run_cli(capsys, "analyze", CONC, *FIG3,
                                 "--timeout-ms", "-5", *solver)
        assert code == 2 and out == ""
        assert err == "error: timeout_ms must be at least 1, got -5\n"


def test_library_recipe_finds_what_the_cli_finds(capsys):
    # The symbolic base must range over the aligned probe window, as
    # under ``analyze``; over all 2**32 values every query is undecided.
    prog = PROGRAMS_DIR / "adv_symbolic.ir"
    code, out, _ = run_cli(capsys, "analyze", str(prog), *FIG3)
    assert code == 1
    cli_sites = [leak["site"] for leak in json.loads(out)["leaks"]]
    assert cli_sites == ["t1:L11:store:p", "t1:L9:load:p", "t1:L6:load:q",
                         "t1:L8:load:q"]
    p, cfg = load_program("adv_symbolic.ir"), CacheConfig(512, 1, 1)
    reports, stats = explore(p, cfg, backend_for(p, cfg))
    assert [r.site for r in reports] == cli_sites
    assert stats.indeterminate == 0 and stats.complete


@pytest.mark.parametrize("assoc", ["1", "2", "4"])
def test_every_symbolic_base_replays(capsys, assoc):
    # The first base is the report's adversary_addr and the second is in
    # its shared values, so both witnesses replay.
    prog = PROGRAMS_DIR / "two_symbolic_bases.ir"
    code, out, _ = run_cli(capsys, "analyze", str(prog), *FIG3, "--assoc", assoc)
    assert code == 1
    leaks = json.loads(out)["leaks"]
    assert sorted(leak["site"] for leak in leaks) == ["t1:L6:load:p", "t1:L7:load:p"]
    assert all(set(leak["shared"]) == {"b_base"} and "adversary_addr" in leak
               for leak in leaks)


@pytest.mark.parametrize("shape, message", [
    ((3, 1, 1), "cache_size, line_size and assoc must be powers of two"),
    ((512, 1024, 1), "cache smaller than one set"),
], ids=["not-a-power-of-two", "smaller-than-a-set"])
def test_cache_shape_out_of_range_exits_2(capsys, shape, message):
    # CacheConfig raises ConfigError, a SymleakError as well as the
    # ValueError library callers catch, so main reads it as bad input.
    flags = [f"--{name}={value}" for name, value
             in zip(("cache-size", "line-size", "assoc"), shape)]
    code, out, err = run_cli(capsys, "analyze", CONC, *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_public_input_wider_than_its_width_exits_2(capsys, tmp_path):
    # Replay masks a public value to its width while the analysis would
    # read it whole, so a value that does not fit is bad input.
    src = tmp_path / "wide_public.ir"
    src.write_text("array p[256] elem 1 at 0\ninput k width 8 secret\n"
                   "input n width 4 public = 20\n"
                   "thread 1 {\nload r1, p[k]\nload r2, p[n]\n}\n")
    code, out, err = run_cli(capsys, "analyze", str(src), *FIG3)
    assert code == 2 and out == ""
    assert "input 'n' value 20 does not fit in 4 bits" in err
    src.write_text(src.read_text().replace("= 20", "= 15"))
    assert run_cli(capsys, "analyze", str(src), *FIG3)[0] == 1


@pytest.mark.parametrize("field", ["max_interleavings", "timeout_ms"])
def test_library_run_rejects_bounds_below_one(field):
    # The bounds are checked where the search takes them, so a library
    # caller cannot turn bad input into an incomplete search either,
    # through ``run`` or through ``explore`` itself.
    cfg = CacheConfig(512, 1, 1)
    with pytest.raises(ValueError, match="must be at least 1, got 0"):
        symleak.cli.run(CONC, cfg, **{field: 0})
    if field == "max_interleavings":
        p = load_program("conc_tmp_fixed.ir")
        with pytest.raises(ValueError, match="must be at least 1, got 0"):
            explore(p, cfg, backend_for(p, cfg), max_interleavings=0)


@pytest.mark.parametrize("body,want", [
    ("  load r1, t[k]\n  store t[k], r1\n", 0),
    ("  load r1, t[k]\n  store t[k], r1\n  load r2, t[3]\n", 1),
], ids=["clean", "leaky"])
def test_analyze_reads_wide_cells_as_brute_force_does(capsys, tmp_path, body,
                                                      want):
    # An 8-byte cell read before any write is a fresh value; a register
    # holds its low 32 bits, as a store and initial contents already
    # keep.  Building it at 64 bits crashed the analysis with exit 2.
    src = tmp_path / "wide.ir"
    src.write_text("array t[16] elem 8 at 0\ninput k width 8 secret\n"
                   "thread 1 critical {\n" + body + "}\n")
    code, out, err = run_cli(capsys, "analyze", str(src), *FIG3)
    assert (code, err) == (want, "")
    p, cfg = symleak.cli._load(str(src)), CacheConfig(512, 1, 1)
    brute = {site for site, _ in brute_force_leaks(p, cfg)}
    assert code == (1 if brute else 0)
    assert {l["site"] for l in json.loads(out)["leaks"]} == brute


def test_undecided_queries_are_counted_and_exit_3(capsys, monkeypatch):
    class Undecided(symleak.cli.EnumerativeBackend):
        def check_divergence(self, *args):
            return DivergenceResult("unknown")

    monkeypatch.setattr(symleak.cli, "EnumerativeBackend", Undecided)
    code, out, _ = run_cli(capsys, "analyze", SEQ, *FIG3)
    assert code == 3
    doc = json.loads(out)
    assert doc["leaks"] == [] and doc["complete"] is False
    # The loads settle as cold misses, so only the store is checked,
    # once per path.  Only the then path's check reaches the divergence
    # solver: on the else path ``q[k - 128]`` can share a set with
    # ``p[k]`` only as the same block, so the store's constraint is
    # constant.
    assert (doc["stats"]["indeterminate"], doc["stats"]["leak_checks"]) == (1, 2)


def test_analyze_has_no_mode_option(capsys):
    # One leak query, so nothing to choose.
    with pytest.raises(SystemExit) as exit_:
        main(["analyze", SEQ, "--preset", "paper-fig3", "--mode", "precise"])
    assert exit_.value.code == 2
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    assert "--mode" not in capsys.readouterr().out


def test_analyze_byte_determinism_modulo_wall_clock(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, out, _ = run_cli(capsys, "analyze", CONC, *FIG3,
                               "--out", str(path))
        assert code == 1 and out == ""  # --out silences stdout
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        assert doc["stats"].pop("wall_ms") >= 0
    assert docs[0] == docs[1]


def test_no_solver_answer_outlives_its_run(capsys, monkeypatch):
    # Each run builds its own backend, so a second analyze in the same
    # process answers from an empty memo, exactly as a fresh process.
    # The second program repeats queries within its run, so its memo
    # hits show where its answers came from.
    runs = []

    def recording_explore(p, cfg, backend, max_interleavings):
        reports, stats = explore(p, cfg, backend, max_interleavings)
        runs.append((backend, stats))
        return reports, stats

    monkeypatch.setattr(symleak.cli, "explore", recording_explore)
    multi = str(CORPUS_DIR / "conc_multi_probe.ir")
    assert run_cli(capsys, "analyze", CONC, *FIG3)[0] == 1
    code, out, _ = run_cli(capsys, "analyze", multi, *FIG3)
    alone = subprocess.run(
        [sys.executable, "-c", "import sys; from symleak.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "analyze", multi, *FIG3],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (code, alone.returncode) == (1, 1)
    docs = [json.loads(out), json.loads(alone.stdout)]
    for doc in docs:
        doc["stats"].pop("wall_ms")
    assert docs[0] == docs[1]
    (first, _), (second, stats) = runs
    assert second is not first and second.calls == stats.solver_calls
    p, cfg = load_program("conc_multi_probe.ir"), CacheConfig(512, 1, 1)
    _, fresh = explore(p, cfg, backend_for(p, cfg))
    assert stats.solver_memo_hits == fresh.solver_memo_hits == 2


def test_analyze_synthesized_adversary(capsys):
    code, out, _ = run_cli(capsys, "analyze", SBOX, *FIG3,
                           "--adversary", "synthesize")
    assert code == 1
    doc = json.loads(out)
    got = [(l["site"], l["adversary_addr"]) for l in doc["leaks"]]
    # The site set of ``brute_force_leaks`` on the synthesized program
    # (about 95 s, so not run here).  The load of ``acc`` leaks only
    # when the probe runs first, an order in which the load of ``sbox``
    # leaks before it.  The store leaks with no probe at all: its first
    # witness is the critical thread's schedule alone.
    assert {site for site, _ in got} == {
        "t1:L5:load:sbox", "t1:L6:load:acc", "t1:L7:store:sbox"}
    assert got == [("t1:L7:store:sbox", 0), ("t1:L5:load:sbox", 0),
                   ("t1:L6:load:acc", 612)]
    assert [tid for tid, _ in doc["leaks"][0]["schedule"]] == [1, 1, 1]
    assert doc["stats"] == {"interleavings": 4, "leak_checks": 6,
                            "solver_calls": 5, "solver_memo_hits": 0,
                            "states_forked": 3,
                            "indeterminate": 0, "sites_settled": 0,
                            "wall_ms": doc["stats"]["wall_ms"]}


def test_one_replayed_report_per_leak_site(capsys, monkeypatch):
    # The site leaks in several choice sequences; it is reported, and its
    # witness replayed, once.
    replays = []

    def counting_confirm(*args):
        replays.append(args[2].site)
        return confirm_report(*args)

    monkeypatch.setattr(symleak.cli, "confirm_report", counting_confirm)
    code, out, _ = run_cli(capsys, "analyze",
                           str(CORPUS_DIR / "conc_multi_probe.ir"), *FIG3)
    assert code == 1
    doc = json.loads(out)
    assert [l["site"] for l in doc["leaks"]] == ["t1:L11:store:p"]
    assert doc["stats"] == {"interleavings": 6, "leak_checks": 2,
                            "solver_calls": 7, "solver_memo_hits": 2,
                            "states_forked": 5,
                            "indeterminate": 0, "sites_settled": 3,
                            "wall_ms": doc["stats"]["wall_ms"]}
    assert replays == ["t1:L11:store:p"]


def test_enumerative_domain_cap_exits_3(capsys, tmp_path):
    # The cap bounds the built-in solver, not the input: a query too wide
    # for it is undecided, so the search is incomplete, not a bad program.
    src = tmp_path / "key4.ir"
    src.write_text(
        "array sb[256] elem 1 at 0\n"
        "input k0 width 8 secret\ninput k1 width 8 secret\n"
        "input k2 width 8 secret\ninput k3 width 8 secret\n"
        "thread 1 {\n"
        "  if (k0 & 1) { r0 := 1 }\n  if (k1 & 1) { r1 := 1 }\n"
        "  if (k2 & 1) { r2 := 1 }\n  if (k3 & 1) { r3 := 1 }\n"
        "  load reg1, sb[k0]\n  load reg2, sb[k1]\n}\n")
    code, out, err = run_cli(capsys, "analyze", str(src), *FIG3)
    assert code == 3 and err == ""
    doc = json.loads(out)
    assert doc["complete"] is False
    # The first load is a cold miss on every path and settles; each of
    # the 16 paths checks the second, whose query spans all four keys,
    # 32 bits.
    assert (doc["stats"]["indeterminate"], doc["stats"]["leak_checks"]) == (16, 16)


def test_analyze_synthesize_on_concurrent_program_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", CONC, *FIG3,
                           "--adversary", "synthesize")
    assert code == 2
    assert "already contains an adversary thread" in err


def test_analyze_adversary_none_strips_other_threads(capsys):
    code, out, _ = run_cli(capsys, "analyze", CONC, *FIG3,
                           "--adversary", "none")
    assert code == 0
    assert json.loads(out)["leaks"] == []


def test_analyze_preset_with_overrides(capsys):
    code, out, _ = run_cli(capsys, "analyze", SEQ, *FIG3,
                           "--cache-size", "2048", "--assoc", "4")
    assert code == 0  # four ways keep p and q resident together
    assert json.loads(out)["cache"] == {"size": 2048, "line": 1, "assoc": 4}


def test_analyze_with_external_solver(capsys):
    stub = Path(__file__).resolve().parent / "smtstub.py"
    code, out, _ = run_cli(capsys, "analyze", SEQ, *FIG3,
                           "--solver", f"{sys.executable} {stub}")
    assert code == 1
    doc = json.loads(out)
    assert doc["leaks"][0]["site"] == "t1:L11:store:p"


@pytest.mark.parametrize("solver", [None, STUB], ids=["builtin", "external"])
def test_witness_carries_uninitialised_public_memory(capsys, solver):
    # t[k + 200] hits the block t[q[0]] loaded for k = 0 only when the
    # never-written public cell q[0] holds 200.  Both runs share that
    # value, so the witness lists it apart from k1 and k2, and replay
    # confirmation reads it instead of zero.
    flags = ["--solver", solver] if solver else []
    code, out, err = run_cli(capsys, "analyze", PUBLIC_CELL, *FIG3, *flags)
    assert (code, err) == (1, "")
    leak, = json.loads(out)["leaks"]
    assert list(leak) == ["site", "access_index", "schedule", "k1", "k2",
                          "shared", "verdict1", "verdict2", "replay_confirmed"]
    assert leak["site"] == "t1:L7:load:t"
    assert leak["shared"] == {"cell_q_0": 200}
    assert leak["replay_confirmed"] is True
    p, cfg = load_program("public_cell.ir"), CacheConfig(512, 1, 1)
    report, = explore(p, cfg, backend_for(p, cfg, solver))[0]
    assert report.shared == {"cell_q_0": 200}
    assert confirm_report(p, cfg, report)
    # Without the shared value, replay reads 0 there and the hit is gone.
    unshared = LeakReport(report.site, report.access_index, report.schedule,
                          report.k1, report.k2, report.adversary_addr,
                          report.verdict1, report.verdict2)
    assert not confirm_report(p, cfg, unshared)


@pytest.mark.parametrize("solver", [None, STUB], ids=["builtin", "external"])
def test_input_named_like_a_shared_query_node(capsys, solver):
    # ``e0`` is an input and ``e0 + 1`` a shared node of the queries;
    # the external solver's script must name them apart, or it prunes
    # the feasible arm ``e0 == 15`` and misses the leak.
    prog = PROGRAMS_DIR / "smt_name_clash.ir"
    flags = ["--solver", solver] if solver else []
    code, out, err = run_cli(capsys, "analyze", str(prog), *FIG3, *flags)
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert [leak["site"] for leak in doc["leaks"]] == ["t1:L9:load:p"]
    # The thread's run alone asks the four branch checks the search
    # repeats, and whether ``p[k]`` can be ``p[0]``'s block; the leak
    # query is the tenth.
    assert doc["stats"]["solver_calls"] == 10
    p = load_program(prog.name)
    assert {s for s, _ in brute_force_leaks(p, CacheConfig(512, 1, 1))} == {
        "t1:L9:load:p"}


@pytest.mark.parametrize("solver", [None, STUB], ids=["builtin", "external"])
def test_backend_for_defaults_to_the_cli_deadline(solver):
    # The README recipe builds the backend ``analyze`` builds.
    p, cfg = load_program("seq_leaky_reuse.ir"), CacheConfig(512, 1, 1)
    assert backend_for(p, cfg, solver=solver).timeout_ms == DEFAULT_TIMEOUT_MS


def test_replay_prints_one_line_per_access(capsys):
    code, out, _ = run_cli(capsys, "replay", CONC, *FIG3,
                           "--schedule", "6-9-13-11", "--input", "k=0x01")
    assert code == 0
    assert out == ("t1:L6:load:q miss\n"
                   "t1:L9:load:p miss\n"
                   "t2:L13:load:tmp miss\n"
                   "t1:L11:store:p miss\n")
    code, out, _ = run_cli(capsys, "replay", CONC, *FIG3,
                           "--schedule", "6,9,13,11", "--input", "k=0",
                           "--critical-only")
    assert code == 0
    assert out == ("t1:L6:load:q miss\n"
                   "t1:L9:load:p miss\n"
                   "t1:L11:store:p hit\n")


def test_replay_infeasible_schedule_exits_2(capsys):
    code, _, err = run_cli(capsys, "replay", CONC, *FIG3,
                           "--schedule", "8-9-13-11", "--input", "k=1")
    assert code == 2
    assert "no pending access on line 8" in err


def test_replay_bad_input_syntax_exits_2(capsys):
    code, _, err = run_cli(capsys, "replay", CONC, *FIG3,
                           "--schedule", "6", "--input", "k")
    assert code == 2 and "bad --input" in err
    code, _, err = run_cli(capsys, "replay", CONC, *FIG3,
                           "--schedule", "six", "--input", "k=1")
    assert code == 2 and "bad schedule" in err


def test_replay_takes_a_secret_input_that_fits(capsys):
    code, out, err = run_cli(capsys, "replay", SEQ, *FIG3,
                             "--schedule", "5-7-11", "--input", "k=1")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "t1:L11:store:p hit"


@pytest.mark.parametrize("value", ["257", "-1"])
def test_replay_rejects_a_secret_value_past_its_width(capsys, value):
    # Masked to 8 bits, k=257 would replay the verdicts of k=1.
    code, out, err = run_cli(capsys, "replay", SEQ, *FIG3,
                             "--schedule", "5-7-11", "--input", f"k={value}")
    assert (code, out) == (2, "")
    assert err == f"error: --input k={value} does not fit in 8 bits\n"


def test_replay_rejects_names_the_run_would_ignore(capsys, tmp_path):
    src = tmp_path / "public.ir"
    src.write_text("array t[4] elem 1 at 0\ninput k width 2 secret\n"
                   "input n width 2 public = 1\n"
                   "thread 1 {\nload r, t[k + n]\n}\n")
    # A misspelt name, a public input (the program fixes its value) and
    # the base of a declaration placed at a fixed address.
    for prog, name in ((SEQ, "kk"), (str(src), "n"), (SEQ, "p_base")):
        code, out, err = run_cli(capsys, "replay", prog, *FIG3, "--schedule",
                                 "5", "--input", "k=1", "--input", f"{name}=3")
        assert (code, out) == (2, "")
        assert err == (f"error: --input {name!r} names no secret input, "
                       "symbolic base or memory variable\n")


@pytest.mark.parametrize("prog,sched,inputs", [
    (str(PROGRAMS_DIR / "adv_symbolic.ir"), "6-9-13-11", ["k=1", "tmp_base=512"]),
    (PUBLIC_CELL, "5-6-7", ["k=0", "cell_q_0=200"]),
    (PUBLIC_CELL, "5-6-7", ["k=0", "ld0_q=200"]),
], ids=["symbolic-base", "cell", "load"])
def test_replay_takes_every_witness_name(capsys, prog, sched, inputs):
    # The names a report's k1, k2, shared and adversary_addr stand for.
    code, out, err = run_cli(capsys, "replay", prog, *FIG3, "--schedule", sched,
                             *(a for i in inputs for a in ("--input", i)))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith(" hit")


@pytest.mark.parametrize("name,pos", [("ld99_q", 99), ("ld1_q", 1)],
                         ids=["past-the-end", "another-load"])
def test_replay_rejects_a_load_name_at_no_load_of_its_declaration(
        capsys, name, pos):
    # Position 99 is past the three accesses, and the access at 1 loads
    # ``t``: no load reads the value, so the run would ignore it.
    code, out, err = run_cli(capsys, "replay", PUBLIC_CELL, *FIG3, "--schedule",
                             "5-6-7", "--input", "k=0", "--input", f"{name}=200")
    assert (code, out) == (2, "")
    assert err == (f"error: --input {name!r}: schedule position {pos} is no "
                   "load of 'q'\n")


def test_brute_force_finds_the_leaky_schedule(capsys):
    code, out, _ = run_cli(capsys, "brute-force", CONC, *FIG3)
    assert code == 1
    assert out == "t1:L11:store:p schedule=1,1,2,1\n"
    code, out, _ = run_cli(capsys, "brute-force", REPAIRED, *FIG3)
    assert code == 0 and out == ""


@pytest.mark.parametrize("program,flags,found,bound", [
    ("sbox_feedback.ir", [], "", "secret space is 34 bits, over the 16-bit cap"),
    ("conc_tmp_fixed.ir", ["--key-bits", "4"], "",
     "secret space is 8 bits, over the 4-bit cap"),
    ("conc_tmp_fixed.ir", ["--max-orders", "1"],
     "t1:L11:store:p schedule=1,1,2,1\n", "more than 1 schedules"),
], ids=["secret-cap", "narrow-key", "order-cap"])
def test_brute_force_bound_exits_3(capsys, program, flags, found, bound):
    # Hitting a bound is an incomplete search, not bad input.  The sites
    # found before it are still printed.
    code, out, err = run_cli(capsys, "brute-force", str(CORPUS_DIR / program),
                             *FIG3, *flags)
    assert (code, out) == (3, found)
    assert err == f"incomplete: {bound}\n"


@pytest.mark.parametrize("flag,value,least", [
    ("--max-orders", "0", "max_orders must be at least 1"),
    ("--key-bits", "-1", "key_bits must be at least 0"),
], ids=["max-orders", "key-bits"])
def test_brute_force_bound_below_its_least_exits_2(capsys, flag, value, least):
    # Such a bound leaves nothing to search: bad input, not a bounded search.
    code, out, err = run_cli(capsys, "brute-force", CONC, *FIG3, flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {least}, got {value}\n"


def test_brute_force_on_an_unsupported_program_exits_2(capsys):
    # Two symbolic bases are beyond the enumeration, not a bound it hit.
    code, out, err = run_cli(capsys, "brute-force",
                             str(PROGRAMS_DIR / "two_symbolic_bases.ir"), *FIG3)
    assert (code, out) == (2, "")
    assert err == "error: at most one symbolic-base declaration supported\n"


def test_brute_force_runs_a_thousand_accesses(capsys, tmp_path):
    # One thread, so one order: enumerating it must neither recurse per
    # access nor restart a run per prefix.
    src = tmp_path / "loop.ir"
    src.write_text("scalar acc elem 1 at 0\ninput k width 4 secret\n"
                   "thread 1 {\nfor i in 0..1000 { load reg1, acc }\n}\n")
    code, out, err = run_cli(capsys, "brute-force", str(src), "--key-bits", "4")
    assert (code, out, err) == (0, "", "")


def test_print_ir_round_trips(capsys):
    code, out, _ = run_cli(capsys, "print-ir",
                           str(CORPUS_DIR / "sbox_rounds.ir"))
    assert code == 0
    assert "for" not in out  # loops unrolled
    from symleak.parser import parse_program
    from symleak.printer import pretty
    assert pretty(parse_program(out)) == out


REPORT = "{report}"  # replaced by a fresh report path per spelling


def _help_names(command):
    return ["FILE"] + [flag for flag, *_ in symleak.cli._COMMANDS[command][2]]


@pytest.mark.parametrize("spellings, code, names", [
    pytest.param(
        [["analyze", SEQ, *FIG3, "--out", REPORT],
         ["analyze", "--assoc=4", f"--out={REPORT}", "--preset=paper-fig3",
          "--assoc", "1", SEQ]],
        1, ['"site": "t1:L11:store:p"'], id="analyze"),
    pytest.param(
        [["replay", PUBLIC_CELL, *FIG3, "--schedule", "5-6-7",
          "--input", "k=0", "--input", "ld0_q=200"],
         ["replay", "--input=k=0", "--schedule=5,6,7", "--input=ld0_q=200",
          "--preset=paper-fig3", PUBLIC_CELL]],
        0, ["t1:L7:load:t hit"], id="replay-two-inputs"),
    pytest.param(
        [["replay", CONC, *FIG3, "--schedule", "6-9-13-11", "--input", "k=0",
          "--critical-only"],
         ["replay", "--critical-only", "--input=k=0", "--schedule",
          "6-9-13-11", *FIG3, CONC]],
        0, ["t1:L9:load:p miss\nt1:L11:store:p hit\n"],
        id="replay-critical-only"),
    pytest.param(
        [["brute-force", CONC, *FIG3, "--max-orders", "1"],
         ["brute-force", "--max-orders=1", "--preset=paper-fig3", CONC]],
        3, ["t1:L11:store:p schedule=1,1,2,1"], id="brute-force"),
    pytest.param([[]], 2, ["command"], id="no-command"),
    pytest.param([["analyse", SEQ]], 2, ["'analyse'"], id="unknown-command"),
    pytest.param([["replay", CONC, "--schedule", "6", "--out", "r.json"]],
                 2, ["--out"], id="unknown-option"),
    pytest.param([["analyze", SEQ, "--max-inter", "5"]], 2, ["--max-inter"],
                 id="prefix"),
    pytest.param([["brute-force", CONC, "--assoc"]], 2, ["--assoc"],
                 id="no-value"),
    pytest.param([["analyze", SEQ, "--assoc", "x"]], 2, ["--assoc", "'x'"],
                 id="not-an-integer"),
    pytest.param([["replay", CONC, "--schedule", "6", "--preset", "nope"]],
                 2, ["--preset", "'nope'"], id="preset-choice"),
    pytest.param([["analyze", "--adversary=nope", SEQ]],
                 2, ["--adversary", "'nope'"], id="adversary-choice"),
    pytest.param([["print-ir"]], 2, ["FILE"], id="no-file"),
    pytest.param([["print-ir", SEQ, CONC]], 2, [CONC], id="two-files"),
    pytest.param([["replay", CONC, "--input", "k=1"]], 2, ["--schedule"],
                 id="no-schedule"),
    pytest.param([["--help"], ["-h", "analyze"]], 0, list(symleak.cli._COMMANDS),
                 id="help"),
    *(pytest.param([[command, "--help"], [command, SEQ, "-h"]], 0,
                   _help_names(command), id=f"{command}-help")
      for command in symleak.cli._COMMANDS),
])
def test_command_line_usage(capsys, tmp_path, spellings, code, names):
    # Every spelling of a run has the same outcome: ``--name value`` or
    # ``--name=value``, options before or after the file, the last value
    # of a repeated option, every value of a repeated ``--input``.  A
    # usage error exits 2 with the usage and an ``error:`` line naming
    # what is wrong; help exits 0 and names every command, or the file
    # and every option of its command.
    outcomes = []
    for n, argv in enumerate(spellings):
        report = tmp_path / f"{n}.json"
        try:
            got = main([word.replace(REPORT, str(report)) for word in argv])
        except SystemExit as exit_:
            got = exit_.code
        out, err = capsys.readouterr()
        if report.exists():
            doc = json.loads(report.read_text())
            doc["stats"]["wall_ms"] = 0
            out = json.dumps(doc, indent=2)
        outcomes.append((got, out, err))
    assert outcomes == [outcomes[0]] * len(outcomes)
    got, out, err = outcomes[0]
    assert got == code
    if code == 2:
        assert out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: symleak")
        assert error.startswith("symleak: error: ")
        out = error
    for name in names:
        assert name in out


def test_confirm_report_rejects_doctored_witness():
    cfg = CacheConfig(512, 1, 1)
    from symleak.cli import _load
    p = _load(SEQ)
    good = LeakReport(
        site="t1:L11:store:p", access_index=2,
        schedule=((1, "t1:L5:load:p"), (1, "t1:L7:load:q"),
                  (1, "t1:L11:store:p")),
        k1={"k": 1}, k2={"k": 0}, adversary_addr=None,
        verdict1="hit", verdict2="miss")
    assert confirm_report(p, cfg, good)
    swapped = LeakReport(
        site=good.site, access_index=2, schedule=good.schedule,
        k1=good.k2, k2=good.k1, adversary_addr=None,
        verdict1="hit", verdict2="miss")
    assert not confirm_report(p, cfg, swapped)
    same = LeakReport(
        site=good.site, access_index=2, schedule=good.schedule,
        k1=good.k1, k2=good.k1, adversary_addr=None,
        verdict1="hit", verdict2="hit")
    assert not confirm_report(p, cfg, same)


@pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect",
                                    "argparse", "gettext", "locale"])
def test_cli_import_loads_no(module):
    # The package has no runtime dependencies, its records are plain
    # slotted classes and its command line is read from its own table:
    # importing the command line in a fresh interpreter loads neither
    # numpy nor the dataclass machinery nor argparse, nor what they import.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, symleak.cli; "
         f"print(sorted(m for m in sys.modules if m.split('.')[0] == {module!r}))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_IMPORT_CHECK = """
import enum, sys, symleak.cli
mods = {m: v for m, v in sys.modules.items() if m.split('.')[0] == 'symleak'}
print(sorted(mods))
# The namespace of each module and of each class it defines, by
# qualified name, and the Enum classes among those.
scopes, enums = {}, []
for m, v in mods.items():
    scopes[m] = vars(v)
    for k, c in vars(v).items():
        if isinstance(c, type) and c.__module__ == m:
            scopes[m + '.' + k] = vars(c)
            if issubclass(c, enum.Enum):
                enums.append(m + '.' + k)
# A held name ``outer.name`` counts only in scopes whose qualified name
# ends in ``.outer``, a bare one in every scope.
print(sorted(s + '.' + n for outer, _, n in (h.rpartition('.') for h in sys.argv[1:])
             for s, ns in scopes.items()
             if n in ns and (not outer or s.endswith('.' + outer))))
print(sorted(enums))
"""


def test_cli_import_compiles_only_the_analysis():
    # ``analyze`` runs no brute force, SMT-LIB, printing or adversary
    # synthesis, replays only a witness, scans for a divergence only
    # when a site is checked, prints help only when asked and runs no
    # other command, so importing the command line loads none of the
    # modules that hold them, and no module it loads, nor a class there,
    # defines them.  Nor does it define what only the tests run (the
    # scalar reference evaluator, whose one-lane stand-in is
    # ``solver.evaluate``), or a record of settings: ``run`` and
    # ``explore`` take theirs as arguments.  Operator and sensitivity
    # tags are plain strings, so no ``Enum`` class is built.
    held = ("brute_force_leaks", "SmtProcessBackend", "emit_query", "pretty",
            "replay", "replay_trace", "schedule_from_lines", "_Run",
            "help_text", "_DivergenceScan", "_Block", "_renamed",
            "run_schedule", "_check_inputs", "_check_load_positions",
            "_parse_inputs", "_parse_schedule", "_cmd_replay",
            "ExploreOptions", "RunConfig", "synthesize_adversary",
            "expr.evaluate", "_eval_node", "_divergence",
            "SymbolicState.finished")
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHECK, *held],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    loaded, defined, enums = proc.stdout.splitlines()
    assert loaded == repr(sorted(
        ["symleak"] + [f"symleak.{m}" for m in (
            "cache", "cli", "engine", "errors", "explorer", "expr", "ir",
            "parser", "records", "solver", "transform")]))
    assert defined == "[]"
    assert enums == "[]"


_ON_DEMAND = """
import contextlib, io, json, sys
from symleak.cli import main

def analyze(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", *args, "--preset", "paper-fig3"])
    return (code, json.loads(out.getvalue()),
            [m in sys.modules for m in ("symleak.oracle", "symleak.scan",
                                        "symleak.adversary")])

print(json.dumps([analyze(args) for args in json.loads(sys.argv[1])]))
"""


def _analyze_fresh(*runs):
    """``analyze --preset paper-fig3`` of each run in turn, in one fresh
    interpreter: the exit code, the report, and whether ``symleak.oracle``,
    ``symleak.scan`` and ``symleak.adversary`` are loaded after it.  A
    run is a path, or a list of a path and further options."""
    runs = [[run] if isinstance(run, str) else run for run in runs]
    proc = subprocess.run(
        [sys.executable, "-c", _ON_DEMAND, json.dumps(runs)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_analyze_loads_the_oracle_on_the_first_witness():
    # A leak-free run replays nothing and leaves the concrete oracle
    # unloaded; the first witness loads it for replay.
    (code, report, (oracle, _, _)), leaky = _analyze_fresh(REPAIRED, SEQ)
    assert (code, report["leaks"], oracle) == (0, [], False)
    code, report, (oracle, _, _) = leaky
    assert (code, oracle) == (1, True)
    assert [leak["replay_confirmed"] for leak in report["leaks"]] == [True]


def test_analyze_loads_the_scan_at_its_first_divergence_query():
    # Both leak-free programs settle every site before the search, so
    # they check none and load neither the divergence scan nor the
    # oracle.  The concurrent one checks two sites, which loads the scan,
    # and replays its witness, which loads the oracle; its report is the
    # one the scan gave inside ``symleak.solver``.
    preloaded = str(PROGRAMS_DIR / "families" / "must_preloaded.ir")
    *clean, conc = _analyze_fresh(preloaded, REPAIRED, CONC)
    for code, report, loaded in clean:
        assert (code, report["stats"]["leak_checks"], loaded) == (
            0, 0, [False, False, False])
    code, report, loaded = conc
    assert (code, loaded) == (1, [True, True, False])
    del report["stats"]["wall_ms"]
    assert report == {
        "program": CONC,
        "cache": {"size": 512, "line": 1, "assoc": 1},
        "leaks": [{
            "site": "t1:L11:store:p",
            "access_index": 3,
            "schedule": [[1, "t1:L6:load:q"], [1, "t1:L9:load:p"],
                         [2, "t2:L13:load:tmp"], [1, "t1:L11:store:p"]],
            "k1": {"k": 0},
            "k2": {"k": 1},
            "verdict1": "hit",
            "verdict2": "miss",
            "replay_confirmed": True,
        }],
        "stats": {"interleavings": 5, "leak_checks": 2, "solver_calls": 7,
                  "solver_memo_hits": 2, "states_forked": 4,
                  "indeterminate": 0, "sites_settled": 3},
        "complete": True,
    }


def test_analyze_loads_the_adversary_only_to_synthesize():
    # The fixed adversary leaves ``symleak.adversary`` unloaded; the
    # first run that synthesizes a probe thread loads it.
    fixed, synthesized = _analyze_fresh(SEQ, [SEQ, "--adversary", "synthesize"])
    assert (fixed[0], fixed[2][2]) == (1, False)
    code, report, (_, _, adversary) = synthesized
    assert (code, adversary) == (1, True)
    assert report["leaks"][0]["site"] == fixed[1]["leaks"][0]["site"]


@pytest.mark.parametrize("module", ["commands", "scan", "smt", "oracle",
                                    "bruteforce", "printer", "usage",
                                    "adversary"])
def test_on_demand_module_imports_first(module):
    # Each module that loads on demand also loads first in a fresh
    # interpreter, so no import cycle (``commands`` imports ``cli``,
    # ``scan`` imports ``solver``) needs the other side loaded before it.
    proc = subprocess.run(
        [sys.executable, "-c", f"import symleak.{module}"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr


_LAZY_EXPORTS = """
import symleak
names = set(symleak.__all__)
assert names <= set(dir(symleak)), names - set(dir(symleak))
star = {}
exec("from symleak import *", star)
assert names <= set(star), names - set(star)
from symleak import adversary, bruteforce, oracle, printer, smt
for name in names:
    assert getattr(symleak, name) is star[name], name
assert symleak.brute_force_leaks is bruteforce.brute_force_leaks
assert symleak.SmtProcessBackend is smt.SmtProcessBackend
assert symleak.pretty is printer.pretty
assert symleak.synthesize_adversary is adversary.synthesize_adversary
for name in ("replay", "empty_cache", "simulate_access", "ConcreteCacheState"):
    assert getattr(symleak, name) is getattr(oracle, name), name
try:
    symleak.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("symleak.no_such_name resolved")
"""


def test_package_exports_resolve_lazily():
    # A fresh interpreter, so that the names loaded on first access are
    # first accessed here: by dir(), by a star import, and once the
    # modules behind them are imported.
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_EXPORTS],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr


def test_console_script_entry_point(tmp_path):
    # Check the command this tree declares, not whatever `symleak` happens to
    # be installed: write the console-script launcher that an install would
    # make for the `[project.scripts]` entry, put it first on PATH and run
    # it by name against the package in `src/`.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    module, attr = project["scripts"]["symleak"].split(":")
    launcher = tmp_path / "symleak"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n")
    launcher.chmod(0o755)
    env = dict(os.environ)
    for var, first in (("PATH", tmp_path), ("PYTHONPATH", ROOT / "src")):
        env[var] = os.pathsep.join(filter(None, [str(first), env.get(var)]))
    proc = subprocess.run(["symleak", "analyze", SEQ, "--preset", "paper-fig3"],
                          capture_output=True, text=True, env=env)
    assert proc.stderr == ""
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["leaks"]


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Turn the cyclic collector on or off for the test, as a caller of
    ``main`` may have it; restore the state found afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv, code", [
    (["analyze", REPAIRED, *FIG3], 0),
    (["analyze", SEQ, *FIG3], 1),
    (["analyze", "/nonexistent.ir"], 2),
    (["analyze", SEQ, *FIG3], 4),
    (["analyze"], None),
], ids=["exit-0", "exit-1", "exit-2", "exit-4", "usage-error"])
def test_main_runs_without_the_collector_and_restores_it(
        capsys, monkeypatch, collector, argv, code):
    # ``main`` runs its command with the collector off and hands the
    # caller back the state it had, on every exit path, a usage error's
    # ``SystemExit`` included.  Exit 4 is a crash inside ``explore``.
    during = []
    real_explore = symleak.cli.explore

    def recording_explore(*args, **kwargs):
        during.append(gc.isenabled())
        if code == 4:
            raise RuntimeError("crash")
        return real_explore(*args, **kwargs)
    monkeypatch.setattr(symleak.cli, "explore", recording_explore)
    if code is None:
        with pytest.raises(SystemExit):
            main(argv)
    else:
        assert main(argv) == code
    capsys.readouterr()
    assert gc.isenabled() is collector
    assert during == ([False] if code in (0, 1, 4) else [])


def test_library_explore_leaves_the_collector_alone(collector):
    p = load_program("conc_tmp_fixed.ir")
    cfg = CacheConfig(512, 1, 1)
    frozen = gc.get_freeze_count()
    reports, _ = explore(p, cfg, backend_for(p, cfg))
    assert reports
    assert gc.isenabled() is collector
    assert gc.get_freeze_count() == frozen


def _defined_in_symleak(obj) -> bool:
    module = getattr(obj, "__module__", None) if callable(obj) else None
    if not isinstance(module, str):
        module = type(obj).__module__
    return module.split(".")[0] == "symleak"


def test_analyze_leaves_no_cyclic_garbage_of_its_own(capsys):
    # ``main`` may run with the collector off only because everything
    # the pipeline builds is freed by reference counting.  Collecting
    # after each run keeps its garbage in ``gc.garbage`` before the next
    # run's ``gc.freeze`` could hide it.  The only cyclic garbage
    # expected is the closures of ``json``'s indenting encoder, 33
    # objects a run.
    programs = sorted(CORPUS_DIR.glob("*.ir")) + sorted(PROGRAMS_DIR.glob("*.ir"))
    was, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.disable()
    try:
        for path in programs:
            for geometry in ([], FIG3):
                main(["analyze", str(path), *geometry])
                capsys.readouterr()
                gc.collect()
        ours = sorted({type(o).__name__ for o in gc.garbage
                       if _defined_in_symleak(o)})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was:
            gc.enable()
    assert ours == []
