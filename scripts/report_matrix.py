"""Summarise ``symleak analyze`` over every committed program, one line a run.

Usage: python3 scripts/report_matrix.py [SRC]

Runs ``analyze`` in a fresh process on each ``corpus/*.ir`` and
``tests/programs/*.ir`` file at ``--preset paper-fig3`` with ``--assoc``
1, 2, 4 and 8 and ``--adversary`` fixed and synthesize, and once more at
``--assoc 1`` with the fixed adversary through the external-solver path,
``--solver`` running ``tests/smtstub.py`` (an exhaustive SMT-LIB stand-in
that answers each query in well under the 30 s per-query deadline, so
those lines do not depend on the machine's speed).  SRC is the
``src`` directory of the checkout to run (default: this checkout's), so
one checkout's script can summarise another's code on the same programs.
Each line names the run, then gives the exit code, the leak-site set,
every ``stats`` field except ``wall_ms`` and the sha256 of the
witnesses: for each entry of the report's ``leaks`` array, the fields
named in ``WITNESS_FIELDS``.  A run with no report gives its first line
of stderr instead.  Two checkouts' outputs differ only where their
reports do, so ``diff`` of the two outputs is the gate for a change that
must keep reports identical.  Hashing named fields, not whole entries,
keeps that diff clean across a change that adds or drops a report key.

After the program lines comes one line for each ``bench/expected.json``
layout: its program from ``bench/gen.py``, run with its workload's cache
flags, ending in ``oracle=ok`` when the exit code and leak sites are the
brute-force oracle's recorded ones for that very program, else
``oracle=MISMATCH``.

Exits 1, with the counts on stderr, when any layout reads
``oracle=MISMATCH`` or any run exits 4 (an unconfirmed witness), else 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("corpus", "tests/programs")
ASSOCS = (1, 2, 4, 8)
ADVERSARIES = ("fixed", "synthesize")
STUB_SOLVER = shlex.join([sys.executable, str(ROOT / "tests" / "smtstub.py")])
TIMEOUT_S = 300
WITNESS_FIELDS = ("site", "access_index", "schedule", "k1", "k2",
                  "verdict1", "verdict2", "adversary_addr",
                  "replay_confirmed")


def summarise(src: Path, name: str, prog: Path, flags: list[str]
              ) -> tuple[str, int, list[str] | None]:
    """Run ``analyze`` on ``prog`` with ``flags``; return the run's line,
    its exit code and its sorted leak sites (None without a report)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "symleak.cli", "analyze", str(prog), *flags],
        capture_output=True, text=True, env=env, timeout=TIMEOUT_S)
    head = f"{name} exit={proc.returncode}"
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        err = proc.stderr.strip().splitlines()
        return f"{head} stderr={err[0] if err else ''!r}", proc.returncode, None
    stats = {k: v for k, v in doc["stats"].items() if k != "wall_ms"}
    sites = sorted(leak["site"] for leak in doc["leaks"])
    witnesses = json.dumps([[leak.get(k) for k in WITNESS_FIELDS]
                            for leak in doc["leaks"]]).encode()
    fields = " ".join(f"{k}={v}" for k, v in stats.items())
    return (f"{head} sites=[{','.join(sites)}] {fields} "
            f"complete={doc['complete']} "
            f"witness_sha256={hashlib.sha256(witnesses).hexdigest()}",
            proc.returncode, sites)


def layouts(src: Path) -> tuple[int, int]:
    """Print one line per oracle-checked benchmark layout; return the
    number of mismatches and of runs that exited 4."""
    mismatches = crashes = 0
    sys.path.insert(0, str(ROOT / "bench"))
    import gen
    expected = json.loads(gen.EXPECTED.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for key, exp in expected.items():
            workload, layout = key.split("/")
            w = gen.WORKLOADS[workload]
            text = w.program(int(layout))
            prog = Path(tmp) / f"{workload}-{layout}.ir"
            prog.write_text(text)
            line, code, sites = summarise(src, key, prog, list(w.cache_flags))
            ok = (gen.digest(text) == exp["sha256"] and code == exp["exit"]
                  and sites == exp["sites"])
            print(f"{line} oracle={'ok' if ok else 'MISMATCH'}", flush=True)
            mismatches += not ok
            crashes += code == 4
    return mismatches, crashes


def program_runs():
    """(name, program, flags) of each run over the committed programs."""
    for d in PROGRAM_DIRS:
        for prog in sorted((ROOT / d).glob("*.ir")):
            for assoc in ASSOCS:
                for adversary in ADVERSARIES:
                    name = (f"{prog.relative_to(ROOT)} assoc={assoc} "
                            f"adversary={adversary}")
                    yield name, prog, ["--preset", "paper-fig3", "--assoc",
                                       str(assoc), "--adversary", adversary]
            name = f"{prog.relative_to(ROOT)} assoc=1 adversary=fixed solver=smtstub"
            yield name, prog, ["--preset", "paper-fig3", "--assoc", "1",
                               "--adversary", "fixed", "--solver", STUB_SOLVER]


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    if not (src / "symleak" / "cli.py").is_file():
        print(f"no symleak sources under {src}", file=sys.stderr)
        return 2
    crashes = 0
    for name, prog, flags in program_runs():
        line, code, _ = summarise(src, name, prog, flags)
        print(line, flush=True)
        crashes += code == 4
    mismatches, layout_crashes = layouts(src)
    crashes += layout_crashes
    if mismatches or crashes:
        print(f"{mismatches} layouts read oracle=MISMATCH, "
              f"{crashes} runs exited 4", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
