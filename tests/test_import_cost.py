"""Smoke test of ``scripts/import_cost.py``."""

import subprocess
import sys

from conftest import ROOT


def test_import_cost_reports_every_loaded_module_and_the_pairs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "import_cost.py"), "--runs", "2",
         "--against", str(ROOT)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["module", "lines", "tokens", "compile_ms", "exec_ms"]
    rows = [line.split() for line in lines[1:13]]
    assert [r[0] for r in rows] == ["symleak"] + [f"symleak.{m}" for m in (
        "cache", "cli", "engine", "errors", "explorer", "expr", "ir",
        "parser", "records", "solver", "transform")]
    solver = (ROOT / "src" / "symleak" / "solver.py").read_text()
    assert int(rows[10][1]) == len(solver.splitlines())
    assert all(float(r[3]) > 0 and float(r[4]) >= 0 for r in rows)
    total = lines[13].split()
    assert total[:3] == ["total,", "12", "modules"]
    assert int(total[3]) == sum(int(r[1]) for r in rows)
    assert int(total[4]) == sum(int(r[2]) for r in rows)
    assert lines[14].startswith("import symleak.cli: median ")
    assert lines[15].startswith("this ") and lines[16].startswith("against ")
    assert lines[17].endswith(" of 2 pairs")
    assert len(lines) == 18
