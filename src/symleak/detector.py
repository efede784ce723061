"""Leak queries over a hit constraint.

A leak at an access means: two runs that share the memory layout and the
thread schedule, but differ in secret data, disagree on whether the
access hits the cache.  The precise mode asks the backend that question
directly with two copies of the secret variables.  The two-step mode
first pins down one run concretely, then searches for a second run that
flips the verdict; it can miss leaks, never invent them, and is not
meaningfully cheaper: on the benchmark workloads it issued 1.2-2x the
solver calls of the precise mode and took 0.95-1.45x its time.

Variable roles: secret inputs and values read out of secret-typed
memory are duplicated per run and at least one must differ.  Adversary
base addresses and values read out of non-secret memory describe the
shared environment, so both runs see one copy.
"""

from __future__ import annotations

from . import expr as ex
from .engine import SymbolicState
from .expr import Expr
from .ir import Program, SymbolicBase
from .records import Frozen, Value, set_field
from .solver import DivergenceResult, SolverBackend


class VarClasses(Frozen):
    __slots__ = ("duplicated", "shared")

    def __init__(self, duplicated: tuple[str, ...],
                 shared: tuple[str, ...]) -> None:
        # One copy per compared run; the pair must differ.
        set_field(self, "duplicated", duplicated)
        # The environment: layout bases, public memory.
        set_field(self, "shared", shared)


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


def classify(p: Program, st: SymbolicState) -> VarClasses:
    dup = tuple(s.name for s in p.secret_inputs) + st.fresh_secret
    shared = tuple(d.placement.var for d in p.decls
                   if isinstance(d.placement, SymbolicBase)) + st.fresh_public
    return VarClasses(dup, shared)


def verdicts(tau: Expr, result: DivergenceResult) -> tuple[str, str]:
    """Hit/miss verdict of each model of a sat divergence result; a
    variable of tau that a model leaves out reads 0."""
    names = ex.free_vars(tau)
    a, b = (ex.evaluate(tau, {n: m.get(n, 0) for n in names})
            for m in (result.model_a, result.model_b))
    return ("hit" if a else "miss", "hit" if b else "miss")


def solve_precise(backend: SolverBackend, tau: Expr, pcon: Expr,
                  classes: VarClasses) -> DivergenceResult:
    """Joint query: pcon holds for both runs, the duplicated variables
    differ, and tau disagrees.  Skipped without a solver call when tau
    cannot depend on any duplicated variable."""
    if not _may_diverge(tau, classes):
        return DivergenceResult("unsat")
    return backend.check_divergence(tau, pcon, classes.duplicated, classes.duplicated)


def solve_two_step(backend: SolverBackend, tau: Expr, pcon: Expr,
                   classes: VarClasses, fallback: bool = True) -> DivergenceResult:
    """Approximate query: solve for one concrete run first, then for a
    second run flipping tau under the first run's environment.

    Step one prefers the hit side of tau; with ``fallback`` it retries
    the miss side when no hit exists.  Step two keeps the first run's
    shared variables as constants, so both runs inhabit one layout.
    """
    if not _may_diverge(tau, classes):
        return DivergenceResult("unsat")
    first = backend.check(ex.and_(pcon, tau))
    first_is_hit = True
    if first.status == "unsat" and fallback:
        first = backend.check(ex.and_(pcon, ex.not_(tau)))
        first_is_hit = False
    if first.status != "sat":
        return DivergenceResult(first.status)

    model1 = dict(first.model or {})
    pin = {name: model1.get(name, 0) for name in classes.shared}
    tau2 = _pin(tau, pin)
    pcon2 = _pin(pcon, pin)
    goal = ex.not_(tau2) if first_is_hit else tau2
    dup_present = sorted(set(classes.duplicated)
                         & (ex.free_vars(tau) | ex.free_vars(pcon)))
    differ = ex.disj([ex.ne(ex.var(n, _width_of(n, tau, pcon)),
                            ex.const(model1.get(n, 0), _width_of(n, tau, pcon)))
                      for n in dup_present])
    second = backend.check(ex.conj([pcon2, goal, differ]))
    if second.status != "sat":
        return DivergenceResult(second.status)
    model2 = dict(second.model or {})
    model2.update(pin)
    if first_is_hit:
        return DivergenceResult("sat", model1, model2)
    return DivergenceResult("sat", model2, model1)


def _may_diverge(tau: Expr, classes: VarClasses) -> bool:
    if tau.is_const:
        return False
    return bool(ex.free_vars(tau) & set(classes.duplicated))


def _pin(e: Expr, values: dict[str, int]) -> Expr:
    widths = ex.var_widths(e)
    sub = {n: ex.const(v, widths[n]) for n, v in values.items() if n in widths}
    return ex.substitute(e, sub) if sub else e


def _width_of(name: str, *exprs: Expr) -> int:
    for e in exprs:
        w = ex.var_widths(e).get(name)
        if w is not None:
            return w
    return 32
