"""Record the brute-force oracle's verdict on every workload layout.

For each workload and each of its ``gen.LAYOUTS`` layouts, runs
``symleak brute-force`` (every secret, every interleaving) once and
writes the expected leak-site set and analyze exit code, keyed by
layout and pinned to the program's SHA-256, to ``bench/expected.json``.
The benchmark compares every timed ``analyze`` run against this file;
it never takes expected results from ``analyze`` itself.  The probe
layouts take one to six minutes each.

Usage: python3 bench/oracle.py [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import gen

MAX_ORDERS = 100000
# One brute-force run per core of a 2-core machine.
JOBS = 2


def verdict(text: str, cache_flags, name: str) -> dict:
    """The oracle's leak sites for one program, and the analyze exit code
    they imply."""
    path = gen.WORK / f"oracle-{name}.ir"
    path.write_text(text)
    cmd = [sys.executable, "-m", "symleak.cli", "brute-force", str(path),
           *cache_flags, "--max-orders", str(MAX_ORDERS)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=gen.symleak_env(), capture_output=True,
                              text=True)
    finally:
        path.unlink()
    elapsed = time.perf_counter() - t0
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{name}: brute-force exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    sites = sorted({ln.split()[0] for ln in proc.stdout.splitlines() if ln})
    return {
        "sha256": gen.digest(text),
        "exit": 1 if sites else 0,
        "sites": sites,
        "leaky_schedules": len(proc.stdout.splitlines()),
        "oracle_s": round(elapsed, 1),
    }


def layout_verdict(workload: str, layout: int) -> tuple[str, dict]:
    w = gen.WORKLOADS[workload]
    key = gen.instance_key(workload, layout)
    return key, verdict(w.program(layout), w.cache_flags,
                        key.replace("/", "-"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(gen.WORKLOADS))
    args = ap.parse_args(argv)
    gen.WORK.mkdir(exist_ok=True)
    doc = json.loads(gen.EXPECTED.read_text()) if gen.EXPECTED.exists() else {}
    jobs = [(w, layout) for w in args.workloads for layout in range(gen.LAYOUTS)]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for key, v in pool.map(lambda j: layout_verdict(*j), jobs):
            print(key, v, flush=True)
            doc[key] = v
            gen.EXPECTED.write_text(
                json.dumps(dict(sorted(doc.items())), indent=1) + "\n")
    gen.WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
