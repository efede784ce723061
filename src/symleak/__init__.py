"""Adversarial symbolic execution for cache-timing leaks.

The pipeline: parse a small concurrent IR, unroll loops, symbolically
execute every path and every relevant thread interleaving, build a
cache-hit constraint per memory access, and ask a solver for two secret
valuations that schedule the same accesses but disagree on a hit.  A
concrete LRU oracle replays every witness before it is reported.
"""

from .cache import CacheConfig, Site, hit_constraint, hit_constraint_assoc
from .detector import LeakReport
from .errors import (AdversaryError, BruteForceCapError, ParseError,
                     ReplayError, SolverProcessError, SymleakError, UnrollError)
from .explorer import ExploreOptions, ExploreStats, explore
from .ir import Program, pretty
from .oracle import (ConcreteCacheState, brute_force_leaks, empty_cache,
                     replay, simulate_access)
from .parser import parse_program
from .solver import EnumerativeBackend, SmtProcessBackend, SolverBackend
from .transform import synthesize_adversary, unroll_loops

__version__ = "0.1.0"

__all__ = [
    "AdversaryError",
    "BruteForceCapError",
    "CacheConfig",
    "ConcreteCacheState",
    "EnumerativeBackend",
    "ExploreOptions",
    "ExploreStats",
    "LeakReport",
    "ParseError",
    "Program",
    "ReplayError",
    "Site",
    "SmtProcessBackend",
    "SolverBackend",
    "SolverProcessError",
    "SymleakError",
    "UnrollError",
    "brute_force_leaks",
    "empty_cache",
    "explore",
    "hit_constraint",
    "hit_constraint_assoc",
    "parse_program",
    "pretty",
    "replay",
    "simulate_access",
    "synthesize_adversary",
    "unroll_loops",
    "__version__",
]
