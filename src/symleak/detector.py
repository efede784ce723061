"""Leak queries over a hit constraint.

A leak at an access means: two runs that share the memory layout and the
thread schedule, but differ in secret data, disagree on whether the
access hits the cache.  One query asks the backend that question
directly with two copies of the secret variables.

Variable roles: secret inputs and values read out of secret-typed
memory are duplicated per run and at least one must differ.  Every other
variable (adversary base addresses, values read out of non-secret
memory) describes the shared environment, so both runs see one copy.
"""

from __future__ import annotations

from . import expr as ex
from .engine import SymbolicState
from .expr import Expr
from .ir import Program
from .records import Frozen, Value, set_field
from .solver import DivergenceResult, SolverBackend


class LeakReport(Value, Frozen):
    """One confirmed divergence: at ``site``, under ``schedule``, secret
    valuation ``k1`` behaves as ``verdict1`` and ``k2`` as ``verdict2``.
    The schedule lists (tid, site) per executed access, the reported
    access last.  ``adversary_addr`` is the chosen value of the first
    symbolic base when the program places something symbolically.
    ``shared`` holds the values of the other symbolic bases and those
    both runs read from never-written public memory (the state's
    ``fresh_public`` variables the model names)."""

    __slots__ = ("site", "access_index", "schedule", "k1", "k2",
                 "adversary_addr", "verdict1", "verdict2", "shared")

    def __init__(self, site: str, access_index: int,
                 schedule: tuple[tuple[int, str], ...], k1: dict[str, int],
                 k2: dict[str, int], adversary_addr: int | None,
                 verdict1: str, verdict2: str,
                 shared: dict[str, int] | None = None) -> None:
        set_field(self, "site", site)
        set_field(self, "access_index", access_index)
        set_field(self, "schedule", schedule)
        set_field(self, "k1", k1)
        set_field(self, "k2", k2)
        set_field(self, "adversary_addr", adversary_addr)
        set_field(self, "verdict1", verdict1)
        set_field(self, "verdict2", verdict2)
        set_field(self, "shared", {} if shared is None else shared)


def classify(p: Program, st: SymbolicState) -> tuple[str, ...]:
    """The duplicated variables of ``st``: one copy per compared run,
    and the pair must differ."""
    return tuple(s.name for s in p.secret_inputs) + st.fresh_secret


def verdicts(tau: Expr, result: DivergenceResult) -> tuple[str, str]:
    """Hit/miss verdict of each model of a sat divergence result; a
    variable of tau that a model leaves out reads 0."""
    names = ex.free_vars(tau)
    a, b = (ex.evaluate(tau, {n: m.get(n, 0) for n in names})
            for m in (result.model_a, result.model_b))
    return ("hit" if a else "miss", "hit" if b else "miss")


def solve_precise(backend: SolverBackend, tau: Expr, pcon: Expr,
                  duplicated: tuple[str, ...]) -> DivergenceResult:
    """Joint query: pcon holds for both runs, the duplicated variables
    differ, and tau disagrees.  Skipped without a solver call when tau
    cannot depend on any duplicated variable."""
    if not _may_diverge(tau, duplicated):
        return DivergenceResult("unsat")
    return backend.check_divergence(tau, pcon, duplicated, duplicated)


def _may_diverge(tau: Expr, duplicated: tuple[str, ...]) -> bool:
    if tau.is_const:
        return False
    return bool(ex.free_vars(tau) & set(duplicated))
