"""Command line behavior: subcommands, exit codes, report schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symleak.cli
from symleak.cache import CacheConfig, ReduceOptions
from symleak.cli import RunConfig, confirm_report, main
from symleak.detector import LeakReport
from symleak.explorer import ExploreOptions, explore

from conftest import CORPUS_DIR, ROOT, load_program, make_backend

SEQ = str(CORPUS_DIR / "seq_leaky_reuse.ir")
REPAIRED = str(CORPUS_DIR / "seq_repaired.ir")
CONC = str(CORPUS_DIR / "conc_tmp_fixed.ir")
SBOX = str(CORPUS_DIR / "sbox_lookup.ir")
FIG3 = ["--preset", "paper-fig3"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_reports_leak_with_exit_1(capsys):
    code, out, err = run_cli(capsys, "analyze", SEQ, *FIG3)
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["program", "cache", "mode", "leaks", "stats", "complete"]
    assert doc["program"] == SEQ
    assert doc["cache"] == {"size": 512, "line": 1, "assoc": 1}
    assert doc["mode"] == "precise"
    assert doc["complete"] is True
    leak = doc["leaks"][0]
    assert list(leak) == ["site", "access_index", "schedule", "k1", "k2",
                          "verdict1", "verdict2", "replay_confirmed",
                          "leaky_schedules"]
    assert leak["site"] == "t1:L11:store:p"
    assert leak["access_index"] == 2
    assert leak["schedule"] == [[1, "t1:L5:load:p"], [1, "t1:L7:load:q"],
                                [1, "t1:L11:store:p"]]
    assert leak["k1"] == {"k": 1} and leak["verdict1"] == "hit"
    assert leak["k2"] == {"k": 0} and leak["verdict2"] == "miss"
    assert leak["replay_confirmed"] is True
    assert leak["leaky_schedules"] == 1
    assert doc["stats"]["interleavings"] == 1
    assert doc["stats"]["solver_calls"] == 5


def test_analyze_clean_program_exits_0(capsys):
    code, out, _ = run_cli(capsys, "analyze", REPAIRED, *FIG3)
    assert code == 0
    doc = json.loads(out)
    assert doc["leaks"] == [] and doc["complete"] is True


def test_analyze_unreadable_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "/nonexistent.ir")
    assert code == 2 and out == ""
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent.ir'\n"


def test_analyze_internal_error_exits_4(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(symleak.cli, "explore", crash)
    code, out, err = run_cli(capsys, "analyze", SEQ, *FIG3)
    assert code == 4 and out == ""
    assert "RecursionError" in err


def test_unconfirmed_witness_exits_4(capsys, monkeypatch):
    # A witness that replay does not reproduce means the analysis
    # contradicts itself; the input was fine.
    monkeypatch.setattr(symleak.cli, "confirm_report", lambda *args: False)
    code, out, err = run_cli(capsys, "analyze", SEQ, *FIG3)
    assert code == 4 and out == ""
    assert err == "error: witness at t1:L11:store:p failed replay confirmation\n"


def test_thousand_access_loop_exits_0(capsys, tmp_path):
    # The search keeps its frames on a heap stack, so trace length is not
    # bounded by the interpreter's recursion limit.
    src = tmp_path / "loop.ir"
    src.write_text("scalar acc elem 1 at 0\ninput k width 8 secret\n"
                   "thread 1 { for i in 0..1000 { load reg1, acc } }\n")
    code, out, err = run_cli(capsys, "analyze", str(src))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["complete"] is True and doc["stats"]["leak_checks"] == 1000


def test_library_and_cli_share_one_reductions_default():
    assert ExploreOptions().reductions == RunConfig("p").reductions == ReduceOptions()


def test_analyze_budget_exhaustion_exits_3(capsys):
    code, out, _ = run_cli(capsys, "analyze", CONC, *FIG3,
                           "--max-interleavings", "1")
    assert code == 3
    doc = json.loads(out)
    assert doc["leaks"] == [] and doc["complete"] is False
    # Truncation outranks found leaks: they are reported, but exit 3.
    code, out, _ = run_cli(capsys, "analyze", CONC, *FIG3,
                           "--max-interleavings", "2")
    assert code == 3
    doc = json.loads(out)
    assert doc["leaks"] and doc["complete"] is False


def test_analyze_two_step_mode_field(capsys):
    code, out, _ = run_cli(capsys, "analyze", CONC, *FIG3, "--mode", "two-step")
    assert code == 1
    assert json.loads(out)["mode"] == "two-step"


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
    runs = []

    def recording_explore(p, cfg, opts, backend):
        reports, stats = explore(p, cfg, opts, backend)
        runs.append((backend, stats))
        return reports, stats

    monkeypatch.setattr(symleak.cli, "explore", recording_explore)
    multi = str(CORPUS_DIR / "conc_multi_probe.ir")
    assert run_cli(capsys, "analyze", multi, *FIG3)[0] == 1
    code, out, _ = run_cli(capsys, "analyze", CONC, *FIG3)
    alone = subprocess.run(
        [sys.executable, "-c", "import sys; from symleak.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "analyze", CONC, *FIG3],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (code, alone.returncode) == (1, 1)
    docs = [json.loads(out), json.loads(alone.stdout)]
    for doc in docs:
        doc["stats"].pop("wall_ms")
    assert docs[0] == docs[1]
    (first, _), (second, stats) = runs
    assert second is not first and second.calls == stats.solver_calls
    p, cfg = load_program("conc_tmp_fixed.ir"), CacheConfig(512, 1, 1)
    _, fresh = explore(p, cfg, ExploreOptions(), make_backend(p, cfg))
    assert stats.solver_memo_hits == fresh.solver_memo_hits == 5


def test_analyze_synthesized_adversary(capsys):
    code, out, _ = run_cli(capsys, "analyze", SBOX, *FIG3,
                           "--adversary", "synthesize")
    assert code == 1
    doc = json.loads(out)
    got = [(l["site"], l["adversary_addr"], l["leaky_schedules"])
           for l in doc["leaks"]]
    assert got == [("t1:L7:store:sbox", 0, 2), ("t1:L5:load:sbox", 0, 1)]
    assert doc["stats"] == {"interleavings": 4, "leak_checks": 4,
                            "solver_calls": 10,
                            "wall_ms": doc["stats"]["wall_ms"]}


def test_one_replayed_report_per_leak_site(capsys, monkeypatch):
    # The site leaks in ten choice sequences; it is reported, and its
    # witness replayed, once, while the search itself does as much work.
    replays = []

    def counting_confirm(*args):
        replays.append(args[2].site)
        return confirm_report(*args)

    monkeypatch.setattr(symleak.cli, "confirm_report", counting_confirm)
    code, out, _ = run_cli(capsys, "analyze",
                           str(CORPUS_DIR / "conc_multi_probe.ir"), *FIG3)
    assert code == 1
    doc = json.loads(out)
    assert [(l["site"], l["leaky_schedules"]) for l in doc["leaks"]] == [
        ("t1:L11:store:p", 10)]
    assert doc["stats"] == {"interleavings": 15, "leak_checks": 18,
                            "solver_calls": 56,
                            "wall_ms": doc["stats"]["wall_ms"]}
    assert replays == ["t1:L11:store:p"]


def test_enumerative_domain_cap_exits_3(capsys, tmp_path):
    # The cap bounds the built-in solver, not the input: hitting it is an
    # incomplete search, not a bad program.
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
    assert code == 3 and out == ""
    assert err == ("error: query spans 32 domain bits over "
                   "['k0', 'k1', 'k2', 'k3'], cap is 24\n")


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


def test_brute_force_finds_the_leaky_schedule(capsys):
    code, out, _ = run_cli(capsys, "brute-force", CONC, *FIG3)
    assert code == 1
    assert out == "t1:L11:store:p schedule=1,1,2,1\n"
    code, out, _ = run_cli(capsys, "brute-force", REPAIRED, *FIG3)
    assert code == 0 and out == ""


def test_brute_force_cap_exits_2(capsys):
    code, _, err = run_cli(capsys, "brute-force",
                           str(CORPUS_DIR / "sbox_feedback.ir"), *FIG3)
    assert code == 2 and "34 bits" in err


def test_print_ir_round_trips(capsys):
    code, out, _ = run_cli(capsys, "print-ir",
                           str(CORPUS_DIR / "sbox_rounds.ir"))
    assert code == 0
    assert "for" not in out  # loops unrolled
    from symleak.parser import parse_program
    from symleak.ir import pretty
    assert pretty(parse_program(out)) == out


def test_confirm_report_rejects_doctored_witness():
    cfg = CacheConfig(512, 1, 1)
    from symleak.cli import _load
    p = _load(SEQ)
    good = LeakReport(
        site="t1:L11:store:p", access_index=2,
        schedule=((1, "t1:L5:load:p"), (1, "t1:L7:load:q"),
                  (1, "t1:L11:store:p")),
        k1={"k": 1}, k2={"k": 0}, adversary_addr=None,
        verdict1="hit", verdict2="miss", mode="precise")
    assert confirm_report(p, cfg, good)
    swapped = LeakReport(
        site=good.site, access_index=2, schedule=good.schedule,
        k1=good.k2, k2=good.k1, adversary_addr=None,
        verdict1="hit", verdict2="miss", mode="precise")
    assert not confirm_report(p, cfg, swapped)
    same = LeakReport(
        site=good.site, access_index=2, schedule=good.schedule,
        k1=good.k1, k2=good.k1, adversary_addr=None,
        verdict1="hit", verdict2="hit", mode="precise")
    assert not confirm_report(p, cfg, same)


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
