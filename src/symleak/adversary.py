"""Adversary synthesis: a probing thread whose address the solver picks.

``symleak.cli`` imports this module only under ``--adversary
synthesize``, and the package exports ``synthesize_adversary`` on first
access, so no other run compiles it.
"""

from __future__ import annotations

from .cache import CacheConfig
from .errors import AdversaryError
from .ir import (Declaration, Load, Num, Program, Sensitivity, SymbolicBase,
                 Thread)

# Name of the register the synthesized adversary loads into.
ADV_REG = "adv_r"


def synthesize_adversary(p: Program, cfg: CacheConfig) -> Program:
    """Add a one-load adversary thread whose address is left symbolic.

    The new scalar's base is a fresh 32-bit variable, so the analysis
    searches over adversary placements instead of requiring the caller
    to pick one.  Refuses when the program already has a thread besides
    the critical one: that thread is the adversary, given, not made.
    """
    if any(t.tid != p.critical_tid for t in p.threads):
        raise AdversaryError("program already contains an adversary thread")
    taken = {d.name for d in p.decls} | {s.name for s in p.secret_inputs} \
        | {q.name for q in p.public_inputs}
    name = "adv"
    n = 1
    while name in taken or f"{name}_base" in taken:
        n += 1
        name = f"adv{n}"
    decl = Declaration(name, "scalar", cfg.line_size, 1, SymbolicBase(f"{name}_base"),
                       Sensitivity.PUBLIC, (0,))
    tid = max(t.tid for t in p.threads) + 1
    thread = Thread(tid, (Load(ADV_REG, name, Num(0), 0),))
    return Program(p.decls + (decl,), p.secret_inputs, p.public_inputs,
                   p.threads + (thread,), p.critical_tid)
