"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import gen
import oracle
import run

SMALLEST = {
    "seq_rounds": (lambda s: gen.seq_rounds(s, 1), ("--preset", "paper-fig3")),
    "seq_rounds_lru4": (lambda s: gen.seq_rounds(s, 1),
                        ("--preset", "paper-fig3", "--assoc", "4")),
    "probe_same_set": (lambda s: gen.probes(s, "probe_same_set", 1, 2, True),
                       ("--preset", "paper-fig3")),
    "probe_distinct_sets":
        (lambda s: gen.probes(s, "probe_distinct_sets", 2, 1, False),
         ("--preset", "paper-fig3")),
}


@pytest.fixture
def work():
    gen.WORK.mkdir(exist_ok=True)
    before = set(gen.WORK.iterdir())
    yield gen.WORK
    for f in set(gen.WORK.iterdir()) - before:
        f.unlink()
    if not before:
        gen.WORK.rmdir()


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_and_varies_only_constants(name):
    w = gen.WORKLOADS[name]
    out = subprocess.run([sys.executable, "bench/gen.py", name, "11"],
                         cwd=gen.ROOT, capture_output=True, text=True, check=True)
    assert out.stdout == w.program(11) == w.program(11 + gen.LAYOUTS)
    texts = {w.program(s) for s in range(gen.LAYOUTS)}
    assert len(texts) == gen.LAYOUTS
    assert len({re.sub(r"\d+", "N", t) for t in texts}) == 1


def test_expected_covers_every_layout():
    expected = json.loads(gen.EXPECTED.read_text())
    for name, w in gen.WORKLOADS.items():
        for layout in range(gen.LAYOUTS):
            exp = expected[gen.instance_key(name, layout)]
            assert exp["sha256"] == gen.digest(w.program(layout))


def test_metric_names_match_benchmark_json(work):
    spec = json.loads((gen.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    make, flags = SMALLEST["probe_same_set"]
    w = gen.Workload("probe_same_set", "", flags, make)
    text = make(0)
    exp = oracle.verdict(text, w.cache_flags, "small")
    prog = work / "small.ir"
    prog.write_text(text)
    s = run.run_once(w, prog, exp, traced=True)
    assert not s.failures
    names = set(s.layers) | {"cli.reports", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == names
    for m in spec["per_layer"]:
        assert m["unit"] == run._unit(m["name"])


@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_analyze_agrees_with_oracle_and_spans_match_counters(name, work):
    """run_once fails a sample whose exit code or sites differ from the
    oracle's, or whose solver, divergence and replay span counts differ
    from the report's solver_calls, leak_checks and leak count."""
    make, flags = SMALLEST[name]
    w = gen.Workload(name, "", flags, make)
    for seed in range(2):
        text = make(seed)
        exp = oracle.verdict(text, flags, f"{name}-{seed}")
        prog = work / f"{name}.ir"
        prog.write_text(text)
        for traced in (False, True):
            s = run.run_once(w, prog, exp, traced)
            assert s.failures == [], (seed, traced)


def test_wrong_oracle_verdict_fails_the_sample(work):
    make, flags = SMALLEST["probe_same_set"]
    w = gen.Workload("probe_same_set", "", flags, make)
    text = make(0)
    exp = oracle.verdict(text, flags, "small")
    assert exp["exit"] == 1 and exp["sites"]
    prog = work / "small.ir"
    prog.write_text(text)
    s = run.run_once(w, prog, {**exp, "exit": 0, "sites": []}, False)
    assert len(s.failures) == 2


def test_setup_and_the_rest_scale_by_their_own_reference():
    s = run.Sample(2.0, setup_s=0.5, setup_speed=0.5, speed=2.0)
    assert s.scaled() == (0.25 + 1.5 * 2.0, 0.25)
