"""Leak queries over a hit constraint.

A leak at an access means: two runs that share the memory layout and the
thread schedule, but differ in secret data, disagree on whether the
access hits the cache.  The precise mode asks the backend that question
directly with two copies of the secret variables.  The two-step mode
first pins down one run concretely, then searches for a second run that
flips the verdict; it can miss leaks, never invent them, and is not
cheaper: it issues more solver calls than the precise mode and measured
1.3-1.6x slower on every benchmark workload.

Variable roles: secret inputs and values read out of secret-typed
memory are duplicated per run and at least one must differ.  Adversary
base addresses and values read out of non-secret memory describe the
shared environment, so both runs see one copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .engine import SymbolicState
from .expr import Expr
from .ir import Program, SymbolicBase
from .solver import DivergenceResult, SolverBackend


@dataclass(frozen=True)
class VarClasses:
    duplicated: tuple[str, ...]  # one copy per compared run; pair must differ
    shared: tuple[str, ...]      # environment: layout bases, public memory


@dataclass(frozen=True)
class LeakReport:
    """One confirmed divergence: at ``site``, under ``schedule``, secret
    valuation ``k1`` behaves as ``verdict1`` and ``k2`` as ``verdict2``.
    The schedule lists (tid, site) per executed access, the reported
    access last.  ``adversary_addr`` is the chosen probe base when the
    program places something symbolically.  ``leaky_schedules`` counts
    the distinct thread-choice sequences in which the site leaked; this
    witness is the first of them the search found."""

    site: str
    access_index: int
    schedule: tuple[tuple[int, str], ...]
    k1: dict[str, int]
    k2: dict[str, int]
    adversary_addr: int | None
    verdict1: str
    verdict2: str
    mode: str
    leaky_schedules: int = 1


def classify(p: Program, st: SymbolicState) -> VarClasses:
    dup = tuple(s.name for s in p.secret_inputs) + st.fresh_secret
    shared = tuple(d.placement.var for d in p.decls
                   if isinstance(d.placement, SymbolicBase)) + st.fresh_public
    return VarClasses(dup, shared)


def _full_env(model: dict[str, int], *exprs: Expr) -> dict[str, int]:
    env = {}
    for e in exprs:
        for name in ex.free_vars(e):
            env[name] = model.get(name, 0)
    return env


def verdicts(tau: Expr, pcon: Expr, result: DivergenceResult) -> tuple[str, str]:
    """Hit/miss verdict of each model of a sat divergence result."""
    a = ex.evaluate(tau, _full_env(result.model_a, tau, pcon))
    b = ex.evaluate(tau, _full_env(result.model_b, tau, pcon))
    return ("hit" if a else "miss", "hit" if b else "miss")


def solve_precise(backend: SolverBackend, tau: Expr, pcon: Expr,
                  classes: VarClasses,
                  timeout_ms: int | None = None) -> DivergenceResult:
    """Joint query: pcon holds for both runs, the duplicated variables
    differ, and tau disagrees.  Skipped without a solver call when tau
    cannot depend on any duplicated variable."""
    if not _may_diverge(tau, classes):
        return DivergenceResult("unsat")
    return backend.check_divergence(tau, pcon, classes.duplicated,
                                    classes.duplicated, timeout_ms=timeout_ms)


def solve_two_step(backend: SolverBackend, tau: Expr, pcon: Expr,
                   classes: VarClasses, timeout_ms: int | None = None,
                   fallback: bool = True) -> DivergenceResult:
    """Approximate query: solve for one concrete run first, then for a
    second run flipping tau under the first run's environment.

    Step one prefers the hit side of tau; with ``fallback`` it retries
    the miss side when no hit exists.  Step two keeps the first run's
    shared variables as constants, so both runs inhabit one layout.
    """
    if not _may_diverge(tau, classes):
        return DivergenceResult("unsat")
    first = backend.check(ex.and_(pcon, tau), timeout_ms=timeout_ms)
    first_is_hit = True
    if first.status == "unsat" and fallback:
        first = backend.check(ex.and_(pcon, ex.not_(tau)), timeout_ms=timeout_ms)
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
    second = backend.check(ex.conj([pcon2, goal, differ]), timeout_ms=timeout_ms)
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
