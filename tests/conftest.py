"""Shared fixtures: corpus loading, the cache geometry of the examples
and a solver clock past every deadline."""

from __future__ import annotations

import itertools
from pathlib import Path
from types import SimpleNamespace

import pytest

import symleak.solver
from symleak import CacheConfig, parse_program, unroll_loops
from symleak.ir import Program

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "corpus"
PROGRAMS_DIR = Path(__file__).resolve().parent / "programs"

UNROLL_BOUND = 4096

# Canonical geometry per corpus program: (file, (cache_size, line_size, assoc)).
# The two trailing rows re-analyze the running examples on a scaled 4-way
# cache where the conflict disappears.
CORPUS_GEOMETRY = [
    ("seq_leaky_reuse.ir", (512, 1, 1)),
    ("seq_repaired.ir", (512, 1, 1)),
    ("conc_tmp_fixed.ir", (512, 1, 1)),
    ("conc_multi_probe.ir", (2048, 1, 4)),
    ("sbox_lookup.ir", (512, 1, 1)),
    ("sbox_pair.ir", (2048, 64, 1)),
    ("sbox_branch.ir", (512, 1, 1)),
    ("sbox16.ir", (512, 1, 1)),
    ("sbox_rounds.ir", (64, 4, 2)),
    ("sbox_feedback.ir", (512, 1, 1)),
    ("no_secret.ir", (512, 1, 1)),
    ("conc_unrelated_thread.ir", (512, 1, 1)),
    ("seq_leaky_reuse.ir", (2048, 1, 4)),
    ("conc_tmp_fixed.ir", (2048, 1, 4)),
]


def load_program(name: str) -> Program:
    path = CORPUS_DIR / name
    if not path.exists():
        path = PROGRAMS_DIR / name
    return unroll_loops(parse_program(path.read_text()), UNROLL_BOUND)


def late_clock(monkeypatch) -> None:
    """Read the solver's clock an hour later on every call, so each query
    is past its deadline by its first block."""
    ticks = itertools.count(0, 3600)
    monkeypatch.setattr(symleak.solver, "time",
                        SimpleNamespace(monotonic=lambda: next(ticks)))


@pytest.fixture
def fig3_cfg() -> CacheConfig:
    # 512 bytes, byte-sized lines, direct mapped: the small geometry every
    # hand-checked example in this suite uses.
    return CacheConfig(cache_size=512, line_size=1, assoc=1)


# One visible verdict line per end-to-end check in test_acceptance.py,
# printed in execution order after the run.
_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _ACCEPTANCE_RESULTS.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance checks")
    for name, outcome in _ACCEPTANCE_RESULTS:
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{word} {name}")
