"""Seeded generator for the benchmark's program families and workloads.

Each family has a fixed shape: the same threads, the same statements on
the same source lines, the same loop bounds.  The seed picks only layout
constants (table base, scalar and probe placement, the public fill
value), from ranges that keep the shape: which accesses can share a
cache set, and so which schedules, solver queries and leak sites exist,
is the same for every seed.  The same seed always gives byte-identical
IR.

The brute-force oracle needs minutes per probe instance, too long to run
inside a timed run, so each family has ``LAYOUTS`` layouts and the seed
picks one (``seed % LAYOUTS``).  ``bench/oracle.py`` runs the oracle on
every layout once and records the verdicts in ``bench/expected.json``.

Usage: python3 bench/gen.py WORKLOAD SEED     (IR on stdout)
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

LAYOUTS = 8

# Every family is laid out against the paper-fig3 cache: 512 one-byte
# lines, direct-mapped.  The 4-way variant of the same 512 bytes has 128
# sets, so placements that must avoid a set avoid it modulo 128 as well.
CACHE_BYTES = 512
LRU4_SETS = 128


def _rng(family: str, seed: int) -> random.Random:
    return random.Random(f"{family}:{seed % LAYOUTS}")


def seq_rounds(seed: int, rounds: int) -> str:
    """The ``sbox_rounds`` shape: one thread, ``rounds`` unrolled lookups
    into a 16-entry public table indexed by a secret, then a store.  With
    no other thread every access is checked; none leaks."""
    rng = _rng("seq_rounds", seed)
    base = rng.randrange(0, CACHE_BYTES - 16)
    # The scalar's set lies outside the table's sets in both geometries,
    # so it never evicts a table line.  Its tag is 2 or 3: a scalar within
    # one cache size of the table lets the table reduction skip half of
    # the divergence queries, which would change the workload's cost.
    table_sets = {(base + i) % LRU4_SETS for i in range(16)}
    free = [s for s in range(CACHE_BYTES) if s % LRU4_SETS not in table_sets]
    acc = CACHE_BYTES * rng.randrange(2, 4) + rng.choice(free)
    # A fill with a zero low nibble would make every lookup the same cell.
    fill = rng.randrange(16) << 4 | rng.randrange(1, 16)
    return (f"array sb[16] elem 1 at {base} public = {fill}\n"
            "input k width 8 secret\n"
            f"scalar acc elem 1 at {acc}\n"
            "thread 1 {\n"
            "reg1 := k\n"
            f"for i in 0..{rounds} {{\n"
            "load reg2, sb[reg1 & 15]\n"
            "load reg3, acc\n"
            "reg1 := reg1 ^ reg2\n"
            "}\n"
            "store sb[reg1 & 15], reg3\n"
            "}\n")


_CRITICAL = ("thread 1 critical { if (k <= 127) {\n"
             "load reg2, q[255 - k]\n"
             "} else {\n"
             "load reg2, q[k - 128]\n"
             "} load reg1, p[k]\n"
             "reg1 := reg1 + reg2\n"
             "store p[k], reg1\n"
             "}\n")


def probes(seed: int, family: str, threads: int, per_thread: int,
           same_set: bool) -> str:
    """The ``conc_multi_probe`` shape: the critical thread loads ``p[k]``
    and stores it back; ``threads`` adversary threads each load
    ``per_thread`` scalars.  ``p`` covers cache sets 0..255 and ``q``
    sets 257..511 and 0, so a probe on a set in 1..255 can evict ``p[k]``
    for exactly one k, between its load and its store, and nothing else
    of the critical thread.  Probes share one set, or have pairwise
    distinct sets."""
    rng = _rng(family, seed)
    n = threads * per_thread
    # Under ``k <= 127`` the critical thread touches p's sets 0..127, and
    # sets 128..255 otherwise, so which half a probe's set lies in decides
    # on which branch arm it conflicts.  Shared probes take the lower
    # half, distinct ones the upper half, as in the instances the ROADMAP
    # baselines were measured on.
    sets = ([rng.randrange(1, 128)] * n if same_set
            else rng.sample(range(128, 256), n))
    # Distinct tags of 2 and up: no probe shares a block with another
    # probe, nor with p or q, whose blocks have tags 0 and 1.
    tags = rng.sample(range(2, 2 + 4 * n), n)
    text = ("array p[256] elem 1 at 0\n"
            "input k width 8 secret\n"
            "array q[256] elem 1 at 257\n")
    for i in range(n):
        text += f"scalar w{i} elem 1 at {tags[i] * CACHE_BYTES + sets[i]}\n"
    text += _CRITICAL
    for t in range(threads):
        text += f"thread {t + 2} {{\n"
        for j in range(per_thread):
            text += f"load r{j}, w{t * per_thread + j}\n"
        text += "}\n"
    return text


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cache_flags: tuple[str, ...]
    program: Callable[[int], str]  # seed -> IR text


WORKLOADS = {w.name: w for w in (
    Workload("seq_rounds",
             "64 rounds, 1 schedule, 127 distinct divergence queries: "
             "direct-mapped hit encoding, no memoization, DPOR or replay",
             ("--preset", "paper-fig3"), lambda s: seq_rounds(s, 64)),
    Workload("seq_rounds_lru4",
             "32 rounds on a 4-way LRU cache, the largest under its 64-access "
             "window: the only workload of the W-way hit encoding",
             ("--preset", "paper-fig3", "--assoc", "4"),
             lambda s: seq_rounds(s, 32)),
    Workload("probe_same_set",
             "3 threads, 9 accesses on one set: thousands of repeated queries "
             "and replays, nothing commutes, so DPOR saves nothing",
             ("--preset", "paper-fig3"),
             lambda s: probes(s, "probe_same_set", 2, 3, True)),
    Workload("probe_distinct_sets",
             "4 threads, probes on distinct sets: commuting accesses that "
             "sleep sets and DPOR can skip",
             ("--preset", "paper-fig3"),
             lambda s: probes(s, "probe_distinct_sets", 3, 2, False)),
)}


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space for generated programs and reports, inside the checkout.
WORK = ROOT / ".bench_work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def instance_key(workload: str, seed: int) -> str:
    return f"{workload}/{seed % LAYOUTS}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def symleak_env() -> dict[str, str]:
    """Environment for a child that imports symleak from this checkout."""
    if not (SRC / "symleak" / "cli.py").is_file():
        raise FileNotFoundError(f"no symleak sources under {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in WORKLOADS:
        print(f"usage: gen.py {{{','.join(WORKLOADS)}}} SEED", file=sys.stderr)
        return 2
    sys.stdout.write(WORKLOADS[argv[0]].program(int(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
