"""Adversarial symbolic execution for cache-timing leaks.

The pipeline: parse a small concurrent IR, unroll loops, symbolically
execute every path and every relevant thread interleaving, build a
cache-hit constraint per memory access, and ask a solver for two secret
valuations that schedule the same accesses but disagree on a hit.  A
concrete LRU oracle replays every witness before it is reported.

``brute_force_leaks``, ``SmtProcessBackend``, ``pretty`` and the
concrete oracle's ``replay``, ``empty_cache``, ``simulate_access`` and
``ConcreteCacheState`` load their modules on first use (PEP 562).  The
built-in solver loads its divergence scan (``symleak.scan``) at the
first divergence query it enumerates, and the command line loads the
``replay``, ``brute-force`` and ``print-ir`` handlers
(``symleak.commands``) only for those commands.  So importing the
package or its command line compiles only the analysis pipeline.
"""

from .cache import CacheConfig, Site, hit_constraint, hit_constraint_assoc
from .detector import LeakReport
from .errors import (AdversaryError, BruteForceCapError, ConfigError,
                     ParseError, ReplayError, SolverProcessError, SymleakError,
                     UnrollError)
from .explorer import ExploreOptions, ExploreStats, explore
from .ir import Program
from .parser import parse_program
from .solver import EnumerativeBackend, SolverBackend
from .transform import synthesize_adversary, unroll_loops

__version__ = "0.1.0"

__all__ = [
    "AdversaryError",
    "BruteForceCapError",
    "CacheConfig",
    "ConcreteCacheState",
    "ConfigError",
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

# The module of each name that loads on first access.
_LAZY = {
    "brute_force_leaks": "bruteforce",
    "SmtProcessBackend": "smt",
    "pretty": "printer",
    "replay": "oracle",
    "empty_cache": "oracle",
    "simulate_access": "oracle",
    "ConcreteCacheState": "oracle",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
