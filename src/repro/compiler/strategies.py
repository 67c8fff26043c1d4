"""Vtree strategies behind the :class:`repro.compiler.Compiler` facade.

A strategy turns a circuit into a :class:`VtreeChoice` — a vtree plus the
provenance the facade reports (decomposition width when a tree decomposition
was involved, the strategy name, and optionally a pre-compiled trial result
the apply backend can reuse).

Registered strategies:

- ``lemma1`` — the paper's Lemma-1 extraction (circuit → nice tree
  decomposition → vtree); picks the exact treewidth DP for tiny circuits and
  the min-degree/min-fill heuristics otherwise.  ``lemma1-exact`` and
  ``lemma1-heuristic`` pin the choice.
- ``natural`` — right-linear vtree over the numerically-sorted variable
  order (``x2`` before ``x10``).  For chain/ladder-shaped circuits this is
  the order the gates are wired in, and the apply fold stays tiny.
- ``balanced`` — balanced vtree over the same natural order.
- ``best-of`` — races a list of candidate strategies, trial-compiling each
  with an :class:`~repro.sdd.manager.SddManager` under a node budget and
  keeping the smallest decomposition.  A candidate that compiles to linear
  size ends the race early, and a candidate that blows up (e.g. a
  right-linear order that puts one rail of a ladder wholly before the
  other, whose SDD grows exponentially) is abandoned at its budget — see
  :class:`BestOfStrategy` for the exact rules.
- ``dynamic`` — seeds with another strategy (``best-of`` by default), then
  runs in-place dynamic vtree minimization
  (:meth:`~repro.sdd.manager.SddManager.minimize`) on the live SDD: the
  returned vtree is the *minimized* one and the minimized trial travels to
  the apply backend, so the search cost is local moves, never a recompile.

Racing is two-dimensional since the ``ddnnf`` backend landed: ``best-of``
races *vtrees* under one backend, while the ``race`` backend
(:class:`~repro.compiler.backends.RaceBackend`, or the facade's
``Compiler(backend=("apply", "ddnnf"))`` sugar) races *backends* under one
vtree choice.  They compose: ``Compiler(backend=("apply", "ddnnf"),
strategy="best-of")`` hands the winning vtree (and its apply trial, which
only the apply candidate may consume) to the backend race.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..circuits.circuit import Circuit
from ..core.vtree import Vtree
from ..sdd.manager import CompilationBudgetExceeded, SddManager

__all__ = [
    "VtreeChoice",
    "VtreeStrategy",
    "Lemma1Strategy",
    "NaturalStrategy",
    "BalancedStrategy",
    "BestOfStrategy",
    "DynamicStrategy",
    "natural_variable_order",
    "register_strategy",
    "get_strategy",
    "available_strategies",
]


@dataclass
class VtreeChoice:
    """A strategy's output: the vtree plus provenance.

    ``trial`` optionally carries ``(manager, root)`` from a strategy that
    already compiled the circuit while deciding (the ``best-of`` race); the
    apply backend reuses it instead of compiling again.
    """

    vtree: Vtree
    decomposition_width: int | None = None
    strategy: str = ""
    trial: tuple[SddManager, int] | None = field(default=None, repr=False)


# Callable protocol: a strategy maps a circuit to a VtreeChoice.
VtreeStrategy = Callable[[Circuit], VtreeChoice]

_SPLIT_DIGITS = re.compile(r"(\d+)")


def _natural_key(name: str) -> tuple:
    """Sort key: numeric components first (in order of appearance), then the
    name itself as a tiebreaker.

    Number-first ordering interleaves same-index variables from different
    groups — ``a1, b1, a2, b2, ...`` for :func:`~repro.circuits.build.ladder`
    — which is the order the gates are wired in.  A plain alphanumeric sort
    (``a1..a50, b1..b50``) separates the ladder's rails and makes the
    right-linear compilation exponential.
    """
    numbers = tuple(int(t) for t in _SPLIT_DIGITS.findall(name))
    return (numbers, name)


def natural_variable_order(circuit: Circuit) -> list[str]:
    """The circuit's variables in numeric-aware, number-first sorted order
    (``x2`` before ``x10``; ``a1, b1`` before ``a2``) — for generator-built
    families this recovers the wiring order."""
    return sorted(map(str, circuit.variables), key=_natural_key)


def _require_variables(circuit: Circuit) -> None:
    if not circuit.variables:
        raise ValueError("circuit has no variables; constants need no vtree")


class Lemma1Strategy:
    """The paper's pipeline: tree decomposition → nice form → vtree.

    ``exact=None`` auto-selects (exact DP for ≤ 12 gates); ``True``/``False``
    pin the exact DP or the elimination heuristics.
    """

    def __init__(self, exact: bool | None = None, prune_dummies: bool = True):
        self.exact = exact
        self.prune_dummies = prune_dummies
        suffix = {None: "", True: "-exact", False: "-heuristic"}[exact]
        self.name = f"lemma1{suffix}"

    def __call__(self, circuit: Circuit) -> VtreeChoice:
        from ..core.pipeline import vtree_from_circuit

        vtree, width = vtree_from_circuit(
            circuit, exact=self.exact, prune_dummies=self.prune_dummies
        )
        return VtreeChoice(vtree, decomposition_width=width, strategy=self.name)


class NaturalStrategy:
    """Right-linear vtree over the natural variable order."""

    name = "natural"

    def __call__(self, circuit: Circuit) -> VtreeChoice:
        _require_variables(circuit)
        return VtreeChoice(
            Vtree.right_linear(natural_variable_order(circuit)), strategy=self.name
        )


class BalancedStrategy:
    """Balanced vtree over the natural variable order."""

    name = "balanced"

    def __call__(self, circuit: Circuit) -> VtreeChoice:
        _require_variables(circuit)
        return VtreeChoice(
            Vtree.balanced(natural_variable_order(circuit)), strategy=self.name
        )


class BestOfStrategy:
    """Race candidate strategies; keep the smallest compiled decomposition.

    Candidates are trial-compiled in order on a fresh
    :class:`~repro.sdd.manager.SddManager`.  Two mechanisms keep the race
    cheap:

    - **Early exit.**  Result 1's regime is *linear* SDD size for bounded
      decomposition width, so once a candidate compiles to at most
      ``early_exit × n_vars`` elements the remaining candidates can only
      shave a constant — they are skipped outright.  On ``chain(100)`` the
      natural order compiles to 392 elements, the size oriented Lemma-1
      reaches too, so the race ends before the Lemma-1 candidate pays for
      its tree decomposition: ``best-of`` runs 4-7× faster there than
      plain heuristic ``lemma1`` with imports warm.
    - **Node budget.**  Until a candidate succeeds, trials run under an
      absolute budget of ``max(floor, initial_per_var × n_vars)`` manager
      nodes, so one pathological candidate cannot hang the race; after the
      first success the budget tightens to ``max(slack × best_nodes,
      floor)``.  A candidate over budget is abandoned, not failed.  If
      *every* candidate aborts, the first candidate is recompiled without a
      budget (the race then costs what that strategy alone would have).

    Ranking is by compiled SDD size, then manager node count.  The winner's
    manager travels in ``VtreeChoice.trial`` so the apply backend never
    compiles twice.

    The race's cost model *is* the apply backend: trials are
    :class:`~repro.sdd.manager.SddManager` folds, and only that backend can
    reuse the winning trial.  With ``backend="canonical"`` or
    ``backend="obdd"`` the winning *vtree* still transfers (SDD size under
    a vtree is a reasonable proxy for either), but the trial work is paid
    and discarded — prefer a direct strategy (``natural``, ``lemma1``)
    there unless the vtree choice genuinely matters more than the race's
    overhead.
    """

    def __init__(
        self,
        candidates: Sequence[str] = ("natural", "balanced", "lemma1-heuristic"),
        *,
        slack: int = 2,
        floor: int = 4096,
        early_exit: int = 8,
        initial_per_var: int = 512,
    ):
        self.candidates = tuple(candidates)
        self.slack = slack
        self.floor = floor
        self.early_exit = early_exit
        self.initial_per_var = initial_per_var
        self.name = "best-of"

    def __call__(self, circuit: Circuit) -> VtreeChoice:
        _require_variables(circuit)
        n_vars = len(circuit.variables)
        linear_size = self.early_exit * n_vars
        best: VtreeChoice | None = None
        best_rank: tuple[int, int] | None = None
        budget = max(self.floor, self.initial_per_var * n_vars)
        for cand_name in self.candidates:
            # Trial ownership: exactly one trial manager survives the race
            # — the current best's, carried in ``best.trial``.  Losers (a
            # candidate that ranks worse, or a dethroned previous best) are
            # dropped before the next trial starts, so the race never holds
            # more than two managers at once and hands exactly one to the
            # apply backend (which pins its root and owns it from then on).
            mgr = None
            try:
                choice = get_strategy(cand_name)(circuit)
                mgr = SddManager(choice.vtree)
                root = mgr.compile_circuit(circuit, node_budget=budget)
            except CompilationBudgetExceeded:
                mgr = None  # abandoned trial: free its tables eagerly
                continue
            rank = (mgr.size(root), mgr.live_node_count)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = VtreeChoice(  # dethrones (and frees) the old best
                    choice.vtree,
                    decomposition_width=choice.decomposition_width,
                    strategy=f"{self.name}:{cand_name}",
                    trial=(mgr, root),
                )
            mgr = None  # loser (or now owned by best.trial): drop our ref
            if best_rank[0] <= linear_size:
                break
            budget = max(self.slack * best_rank[1], self.floor)
        if best is None:
            # Every candidate blew the initial budget; fall back to the
            # first one without a budget so the race always returns.
            choice = get_strategy(self.candidates[0])(circuit)
            mgr = SddManager(choice.vtree)
            root = mgr.compile_circuit(circuit)
            best = VtreeChoice(
                choice.vtree,
                decomposition_width=choice.decomposition_width,
                strategy=f"{self.name}:{self.candidates[0]}",
                trial=(mgr, root),
            )
        return best


class DynamicStrategy:
    """Seed a compilation with another strategy, then minimize in place.

    The seed (``best-of`` by default) picks and trial-compiles a starting
    vtree; :meth:`~repro.sdd.manager.SddManager.minimize` then sifts the
    live SDD with in-manager rotations/swaps — no per-candidate
    recompilation.  The :class:`VtreeChoice` carries the *minimized* vtree
    and the minimized ``(manager, root)`` trial, so the apply backend pays
    nothing extra; other backends still benefit from the better vtree but
    discard the trial (same caveat as ``best-of``).
    """

    def __init__(
        self,
        seed: str = "best-of",
        *,
        rounds: int = 2,
        budget: int | None = None,
        max_growth: float = 1.5,
    ):
        self.seed = seed
        self.rounds = rounds
        self.budget = budget
        self.max_growth = max_growth
        self.name = "dynamic"

    def __call__(self, circuit: Circuit) -> VtreeChoice:
        _require_variables(circuit)
        choice = get_strategy(self.seed)(circuit)
        if choice.trial is not None:
            mgr, root = choice.trial
        else:
            mgr = SddManager(choice.vtree)
            root = mgr.compile_circuit(circuit)
        # Pin across the search (its collections sweep the unpinned), then
        # hand the root back unpinned — exactly the state a best-of trial
        # is in when the apply backend takes ownership and pins it.
        mgr.pin(root)
        mapping = mgr.minimize(
            budget=self.budget, max_growth=self.max_growth, rounds=self.rounds
        )
        root = mapping.get(root, root)
        mgr.release(root)
        return VtreeChoice(
            mgr.vtree,
            decomposition_width=choice.decomposition_width,
            strategy=f"{self.name}:{choice.strategy or self.seed}",
            trial=(mgr, root),
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_STRATEGIES: dict[str, Callable[[], VtreeStrategy]] = {}


def register_strategy(name: str, factory: Callable[[], VtreeStrategy]) -> None:
    """Register a strategy factory under ``name`` (overwrites silently)."""
    _STRATEGIES[name] = factory


def get_strategy(name: str) -> VtreeStrategy:
    try:
        factory = _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown vtree strategy {name!r}; registered: {available_strategies()}"
        ) from None
    return factory()


def available_strategies() -> list[str]:
    return sorted(_STRATEGIES)


register_strategy("lemma1", Lemma1Strategy)
register_strategy("lemma1-exact", lambda: Lemma1Strategy(exact=True))
register_strategy("lemma1-heuristic", lambda: Lemma1Strategy(exact=False))
register_strategy("natural", NaturalStrategy)
register_strategy("balanced", BalancedStrategy)
register_strategy("best-of", BestOfStrategy)
register_strategy("dynamic", DynamicStrategy)
