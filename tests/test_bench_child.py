"""Smoke test of the benchmark's traced child process.

``bench/child.py --trace 1`` wraps pipeline functions by the names their
callers look up (``adversarial_access``, ``_has_dependent_pair``,
``divergent_cache_behavior``, ...).  Running it here makes a rename of
one of them fail this suite, not only the benchmark's own tests.
"""

import json
import os
import subprocess
import sys

from conftest import CORPUS_DIR, ROOT


def test_traced_bench_child_runs(tmp_path):
    timing = tmp_path / "timing.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(timing), "1",
         "--", "analyze", str(CORPUS_DIR / "conc_tmp_fixed.ir"),
         "--preset", "paper-fig3"],
        capture_output=True, text=True, env=env, timeout=120)
    # A crash also exits 1, but writes no timing file.
    assert timing.exists(), proc.stderr
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(timing.read_text())
    assert doc["exit"] == 1
    layers = doc["layers"]
    assert layers["explorer.leak_checks"] == doc["spans"]["explorer.divergence"]
    assert layers["explorer.fork_dep_calls"] > 0
    # The explorer's ``solve_two_step`` binding is only looked up: no
    # call, so every divergence call counted is a precise query.
    assert "detector.solve_two_step" not in doc["spans"]
    assert layers["detector.divergence_calls"] == doc["spans"]["detector.solve_precise"]
