"""Compilation backends behind the :class:`repro.compiler.Compiler` facade.

The Result-1 pipeline is one algorithm with several realizations.  Each
realization is a :class:`CompilationBackend`: it takes a circuit and a vtree
(or a :class:`~repro.compiler.strategies.VtreeChoice` carrying one) and
returns a :class:`Compiled` — a uniform handle exposing ``size``, ``width``,
``model_count()``, ``probability()``, ``evaluate()`` and ``stats()`` with no
cross-backend branching or bare asserts.

Registered backends:

- ``canonical`` — the paper-faithful ``S_{F,T}`` truth-table construction
  (Section 3.2.2); eager, limited to ~20 variables, but also yields the
  canonical deterministic structured NNF and the exact function.
- ``apply`` — bottom-up :class:`~repro.sdd.manager.SddManager` compilation
  over the same vtree; no truth table, scales to hundreds of variables.
- ``obdd`` — :class:`~repro.obdd.obdd.ObddManager` compilation under the
  vtree's left-to-right leaf order (OBDDs are the canonical SDDs of
  right-linear vtrees, so for linear vtrees this is the same object in the
  paper's sense).
- ``ddnnf`` — bag-by-bag d-DNNF compilation straight from a friendly tree
  decomposition of the circuit (:mod:`repro.dnnf`, arXiv 1811.02944 §5.1);
  no apply calls, no :class:`SddManager` — the only backend whose cost is
  a single ``O(2^{O(w)}·n)`` pass instead of an apply cascade.
- ``race`` — compiles several candidate backends on the same vtree choice
  and keeps the best result (:class:`RaceBackend`); the backend-level
  counterpart of the ``best-of`` *vtree* race.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Mapping, Protocol, Sequence, runtime_checkable

from ..circuits.circuit import Circuit
from ..core.vtree import Vtree
from ..obdd.obdd import ObddManager
from ..sdd.manager import SddManager
from ..sdd.wmc import exact_weights

__all__ = [
    "Compiled",
    "CompilationBackend",
    "CanonicalBackend",
    "ApplyBackend",
    "ObddBackend",
    "DdnnfBackend",
    "DdnnfCompiled",
    "RaceBackend",
    "RacedCompiled",
    "register_backend",
    "get_backend",
    "available_backends",
]


def _fill_extra(
    prob: Mapping[str, float], extra: frozenset[str] | set[str]
) -> Mapping[str, float]:
    """Weights for vtree variables the circuit does not depend on: any pair
    summing to 1 marginalizes them out (``Fraction(1, 2)`` stays exact in
    both rings)."""
    missing = set(extra) - set(prob)
    if not missing:
        return prob
    return {**prob, **{v: Fraction(1, 2) for v in missing}}


@runtime_checkable
class Compiled(Protocol):
    """What every backend's compilation result exposes.

    Attributes
    ----------
    backend:
        Registry name of the backend that produced this result.
    circuit:
        The compiled circuit.
    vtree:
        The vtree the compilation respects.
    decomposition_width:
        Width of the tree decomposition the vtree came from, or ``None``
        when the vtree was supplied directly (no decomposition involved).
    strategy:
        Name of the vtree strategy used (``""`` for explicit vtrees).
    """

    backend: str
    circuit: Circuit
    vtree: Vtree
    decomposition_width: int | None
    strategy: str

    @property
    def size(self) -> int: ...

    @property
    def width(self) -> int: ...

    def model_count(self) -> int: ...

    def probability(
        self, prob: Mapping[str, float], *, exact: bool = False
    ) -> float | Fraction: ...

    def evaluate(self, assignment: Mapping[str, int]) -> bool: ...

    def stats(self) -> dict[str, int]: ...

    def save(self, path) -> None: ...


class CompilationBackend(Protocol):
    """A realization of the pipeline: ``compile(circuit, vtree) -> Compiled``."""

    name: str

    def compile(
        self,
        circuit: Circuit,
        vtree: Vtree,
        *,
        decomposition_width: int | None = None,
        strategy: str = "",
        trial: tuple[SddManager, int] | None = None,
        node_budget: int | None = None,
    ) -> Compiled: ...


class _CompiledBase:
    """Shared bookkeeping for the concrete ``Compiled`` implementations."""

    backend = ""

    def __init__(
        self,
        circuit: Circuit,
        vtree: Vtree,
        decomposition_width: int | None,
        strategy: str,
    ):
        self.circuit = circuit
        self.vtree = vtree
        self.decomposition_width = decomposition_width
        self.strategy = strategy

    @property
    def circuit_variables(self) -> set[str]:
        return set(map(str, self.circuit.variables))

    @property
    def extra_variables(self) -> set[str]:
        """Vtree variables beyond the circuit's own (e.g. unpruned Lemma-1
        dummies); the compiled function never depends on them."""
        return set(self.vtree.variables) - self.circuit_variables

    def save(self, path) -> None:
        """Save this result as a flat artifact file (node tables + meta +
        circuit); reload with :meth:`repro.compiler.Compiler.load` — the
        loaded handle answers every uniform accessor without recompiling,
        float probabilities bit-identical."""
        from ..artifact.format import save_compiled

        save_compiled(self, path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} backend={self.backend!r} "
            f"vars={len(self.circuit_variables)} size={self.size}>"
        )


class CanonicalCompiled(_CompiledBase):
    """Result of the ``S_{F,T}`` construction (plus the canonical NNF).

    Beyond the uniform interface this exposes ``function`` (the exact
    :class:`~repro.core.boolfunc.BooleanFunction`), ``sdd`` (the
    :class:`~repro.core.sdd_compile.CompiledSDD`) and ``nnf``.
    """

    backend = "canonical"

    def __init__(self, circuit, vtree, decomposition_width, strategy, *, function, sdd, nnf):
        super().__init__(circuit, vtree, decomposition_width, strategy)
        self.function = function
        self.sdd = sdd
        self.nnf = nnf
        self._manager_root: tuple[SddManager, int] | None = None

    @property
    def size(self) -> int:
        return self.sdd.size

    @property
    def width(self) -> int:
        return self.sdd.sdw

    def model_count(self) -> int:
        return self.function.count_models()

    def _reuse_as_manager_sdd(self) -> tuple[SddManager, int]:
        """Load the *already-compiled* canonical SDD into a manager (once),
        for exact WMC — the circuit itself is never recompiled."""
        if self._manager_root is None:
            mgr = SddManager(self.vtree)
            self._manager_root = (mgr, mgr.compile_nnf(self.sdd.root))
        return self._manager_root

    def probability(self, prob, *, exact: bool = False):
        if exact:
            mgr, root = self._reuse_as_manager_sdd()
            weights = exact_weights(_fill_extra(prob, self.vtree.variables))
            return Fraction(mgr.weighted_count(root, weights))
        return self.function.probability(prob)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return bool(self.function(dict(assignment)))

    def stats(self) -> dict[str, int]:
        out = {
            "sdd_gates": self.sdd.size,
            "nnf_gates": self.nnf.size,
            "truth_table_rows": 1 << len(self.function.variables),
        }
        if self._manager_root is not None:
            out.update(self._manager_root[0].stats())
        return out


class ApplyCompiled(_CompiledBase):
    """Result of bottom-up :class:`SddManager` compilation; also exposes
    ``manager`` and ``root`` for callers that want the raw handles.

    The result owns its root: the backend pins it in the manager, so
    callers that run :meth:`SddManager.gc` can never collect a
    compilation result out from under a live ``Compiled``.  Call
    :meth:`release` to hand the root back to the collector when done."""

    backend = "apply"

    def __init__(self, circuit, vtree, decomposition_width, strategy, *, manager, root):
        super().__init__(circuit, vtree, decomposition_width, strategy)
        self.manager = manager
        self.root = manager.pin(root)

    def release(self) -> None:
        """Unpin the root; the manager's next gc may collect it.  Using
        this ``Compiled`` after a post-release collection is undefined
        (the root id may be recycled — see :meth:`SddManager.pin`)."""
        self.manager.release(self.root)

    @property
    def size(self) -> int:
        return self.manager.size(self.root)

    @property
    def width(self) -> int:
        return self.manager.width(self.root)

    def model_count(self) -> int:
        base = self.manager.count_models(self.root, self.circuit.variables)
        # The WMC sweep counts over all vtree variables; the circuit does
        # not depend on the extras, so each contributes an exact factor of 2.
        extra = self.manager.vtree.variables - self.circuit_variables
        return base >> len(extra)

    def probability(self, prob, *, exact: bool = False):
        full = _fill_extra(prob, self.manager.vtree.variables)
        return self.manager.probability(self.root, full, exact=exact)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return self.manager.evaluate(self.root, assignment)

    def stats(self) -> dict[str, int]:
        return self.manager.stats()


class ObddCompiled(_CompiledBase):
    """Result of OBDD compilation under the vtree's leaf order; exposes
    ``manager`` (an :class:`ObddManager`) and ``root``."""

    backend = "obdd"

    def __init__(self, circuit, vtree, decomposition_width, strategy, *, manager, root):
        super().__init__(circuit, vtree, decomposition_width, strategy)
        self.manager = manager
        self.root = root

    @property
    def size(self) -> int:
        return self.manager.size(self.root)

    @property
    def width(self) -> int:
        return self.manager.width(self.root)

    def model_count(self) -> int:
        base = self.manager.count_models(self.root)
        extra = set(self.manager.order) - self.circuit_variables
        return base >> len(extra)

    def probability(self, prob, *, exact: bool = False):
        full = _fill_extra(prob, set(self.manager.order))
        return self.manager.probability(self.root, full, exact=exact)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        # A reduced OBDD of the circuit never tests variables the circuit
        # does not depend on, so the circuit's assignment suffices.
        return self.manager.evaluate(self.root, assignment)

    def stats(self) -> dict[str, int]:
        return self.manager.stats()


class DdnnfCompiled(_CompiledBase):
    """Result of the bag-by-bag d-DNNF compilation; exposes ``dag``,
    ``root`` and ``result`` (the :class:`~repro.dnnf.builder.DdnnfResult`)
    for callers that want the raw handles.

    The ``vtree`` attribute is the strategy's choice, kept for protocol
    compliance only — this backend compiles from its *own* friendly tree
    decomposition of the circuit's gate graph, never from the vtree.
    """

    backend = "ddnnf"

    def __init__(self, circuit, vtree, decomposition_width, strategy, *, result):
        super().__init__(circuit, vtree, decomposition_width, strategy)
        self.result = result
        self.dag = result.dag
        self.root = result.root

    @property
    def size(self) -> int:
        return self.result.size

    @property
    def width(self) -> int:
        return self.result.width

    def model_count(self) -> int:
        # Smoothness makes the root mention exactly the circuit's
        # variables, so no extras shifting is needed (the scope argument
        # covers degenerate circuits whose output ignores some variable
        # gate — those still count free, matching the other backends).
        return self.dag.count_models(self.root, self.circuit.variables)

    def probability(self, prob, *, exact: bool = False):
        # Variables beyond the root's scope marginalize out for free; no
        # _fill_extra needed.
        return self.dag.probability(self.root, prob, exact=exact)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return self.dag.evaluate(self.root, assignment)

    def stats(self) -> dict[str, int]:
        return self.result.stats()


class RacedCompiled(_CompiledBase):
    """The winner of a backend race, plus the race log.

    Every uniform accessor delegates to the winning backend's ``Compiled``
    (available as ``winner``); :meth:`stats` merges the winner's counters
    with per-candidate ``race_size_*`` / ``race_us_*`` / ``race_won_*``
    entries so best-of race logs stay comparable across backends — all
    plain ints, per the public-stats convention.
    """

    backend = "race"

    def __init__(self, winner: Compiled, race_log: dict[str, int]):
        super().__init__(
            winner.circuit, winner.vtree, winner.decomposition_width, winner.strategy
        )
        self.winner = winner
        self.race_log = race_log

    @property
    def size(self) -> int:
        return self.winner.size

    @property
    def width(self) -> int:
        return self.winner.width

    def model_count(self) -> int:
        return self.winner.model_count()

    def probability(self, prob, *, exact: bool = False):
        return self.winner.probability(prob, exact=exact)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return self.winner.evaluate(assignment)

    def stats(self) -> dict[str, int]:
        out = self.winner.stats()
        out.update(self.race_log)
        return out


# ----------------------------------------------------------------------
# concrete backends
# ----------------------------------------------------------------------
class CanonicalBackend:
    name = "canonical"

    # node_budget is accepted for signature uniformity but not enforced:
    # the truth-table construction has no between-gates safepoint to
    # check it at (it is already limited to ~20 variables).
    def compile(self, circuit, vtree, *, decomposition_width=None, strategy="",
                trial=None, node_budget=None):
        from ..core.nnf_compile import compile_canonical_nnf
        from ..core.sdd_compile import compile_canonical_sdd

        f = circuit.function()
        return CanonicalCompiled(
            circuit,
            vtree,
            decomposition_width,
            strategy,
            function=f,
            sdd=compile_canonical_sdd(f, vtree),
            nnf=compile_canonical_nnf(f, vtree),
        )


class ApplyBackend:
    name = "apply"

    def compile(self, circuit, vtree, *, decomposition_width=None, strategy="",
                trial=None, node_budget=None):
        if trial is not None:
            # Ownership handoff: the best-of race already compiled the
            # winning candidate and its VtreeChoice carries the (manager,
            # root) pair of the single surviving trial (losers were dropped
            # eagerly by the strategy).  Reusing it here transfers
            # ownership to the ApplyCompiled — which pins the root — so
            # the race's work is never repeated and never duplicated.
            manager, root = trial
            if manager.vtree is vtree or manager.vtree == vtree:
                return ApplyCompiled(
                    circuit, vtree, decomposition_width, strategy,
                    manager=manager, root=root,
                )
        manager = SddManager(vtree)
        root = manager.compile_circuit(circuit, node_budget=node_budget)
        return ApplyCompiled(
            circuit, vtree, decomposition_width, strategy, manager=manager, root=root
        )


class ObddBackend:
    name = "obdd"

    # node_budget accepted for signature uniformity; the OBDD compiler has
    # no budget hook yet, so a race over this backend never abandons it.
    def compile(self, circuit, vtree, *, decomposition_width=None, strategy="",
                trial=None, node_budget=None):
        manager = ObddManager(vtree.leaf_order())
        root = manager.compile_circuit(circuit)
        return ObddCompiled(
            circuit, vtree, decomposition_width, strategy, manager=manager, root=root
        )


class DdnnfBackend:
    """Backend four: compile the circuit's gate graph bag by bag.

    Ignores the supplied vtree for compilation (it is recorded on the
    result for protocol compliance only) — the d-DNNF construction works
    on a friendly tree decomposition computed here with the same selection
    rule as the Lemma-1 pipeline (exact treewidth DP for tiny graphs,
    elimination heuristics otherwise).
    """

    name = "ddnnf"

    def compile(self, circuit, vtree, *, decomposition_width=None, strategy="",
                trial=None, node_budget=None):
        from ..dnnf.builder import build_ddnnf

        result = build_ddnnf(circuit, node_budget=node_budget)
        return DdnnfCompiled(
            circuit, vtree, decomposition_width, strategy, result=result
        )


class RaceBackend:
    """Race candidate *backends* on one vtree choice; keep the best result.

    The backend-level sibling of :class:`~repro.compiler.strategies.
    BestOfStrategy`: where best-of races vtrees under one backend, this
    races backends under one vtree.  The two compose —
    ``Compiler(backend=("apply", "ddnnf"), strategy="best-of")`` first
    races vtrees (apply-costed), then races the winning vtree across
    backends.

    Ranking is by compiled size, then wall-clock.  A losing ``apply``
    result releases its pinned root so the losing manager stays
    collectable.  The ``best-of`` trial, if any, is offered to the
    ``apply`` candidate only — exactly one owner, as in the vtree race's
    handoff rules.

    **Budgeted early abandon** (``abandon=True``, the default): once a
    front-runner has fully compiled, each later candidate runs under a
    node budget of ``max(budget_slack × best_size, budget_floor)`` — a
    candidate that blows far past the current best size cannot win on the
    (size, time) ranking, so it is cut off mid-compilation via the
    backends' ``node_budget`` hook instead of being run to completion.
    The apply backend checks that budget at every new SDD node, so
    its loser stops inside the apply that crosses the cutoff, however
    large that one apply is; the d-DNNF builder checks it per bag.
    The slack is deliberately generous and the floor high: live node
    counts *during* apply compilation include intermediate gate results
    and literals far above the final compiled size, so a tight budget
    would abandon eventual winners.  An abandoned candidate logs
    ``race_abandoned_<cand> = 1`` (and its elapsed time) but no size.
    Backends without a budget hook (canonical, obdd) simply never
    abandon.
    """

    name = "race"

    def __init__(
        self,
        candidates: Sequence[str] = ("apply", "ddnnf"),
        *,
        abandon: bool = True,
        budget_slack: float = 4.0,
        budget_floor: int = 1024,
    ):
        if not candidates:
            raise ValueError("race needs at least one candidate backend")
        if budget_slack < 1.0:
            raise ValueError("budget_slack must be >= 1 (the winner must fit)")
        if budget_floor <= 0:
            raise ValueError("budget_floor must be positive")
        self.candidates = tuple(candidates)
        self.abandon = abandon
        self.budget_slack = budget_slack
        self.budget_floor = budget_floor
        for cand in self.candidates:
            if cand == self.name:
                raise ValueError("race cannot race itself")

    def compile(self, circuit, vtree, *, decomposition_width=None, strategy="",
                trial=None, node_budget=None):
        from ..sdd.manager import CompilationBudgetExceeded

        results: list[tuple[tuple[int, int], str, Compiled]] = []
        race_log: dict[str, int] = {}
        best_size: int | None = None
        for cand in self.candidates:
            backend = get_backend(cand)
            budget = node_budget
            if self.abandon and best_size is not None:
                cutoff = max(int(self.budget_slack * best_size), self.budget_floor)
                budget = cutoff if budget is None else min(budget, cutoff)
            start = time.perf_counter()
            try:
                compiled = backend.compile(
                    circuit,
                    vtree,
                    decomposition_width=decomposition_width,
                    strategy=strategy,
                    trial=trial if cand == "apply" else None,
                    node_budget=budget,
                )
            except CompilationBudgetExceeded:
                race_log[f"race_us_{cand}"] = int(
                    (time.perf_counter() - start) * 1e6
                )
                race_log[f"race_abandoned_{cand}"] = 1
                race_log[f"race_won_{cand}"] = 0
                continue
            elapsed_us = int((time.perf_counter() - start) * 1e6)
            race_log[f"race_size_{cand}"] = compiled.size
            race_log[f"race_us_{cand}"] = elapsed_us
            race_log[f"race_abandoned_{cand}"] = 0
            results.append(((compiled.size, elapsed_us), cand, compiled))
            if best_size is None or compiled.size < best_size:
                best_size = compiled.size
        if not results:
            # Every candidate hit the caller's node_budget (self-imposed
            # cutoffs always leave the front-runner standing): surface the
            # budget breach rather than inventing a winner.
            raise CompilationBudgetExceeded(
                f"all race candidates exceeded the node budget {node_budget}"
            )
        results.sort(key=lambda r: r[0])
        _, winner_name, winner = results[0]
        for _, cand, loser in results[1:]:
            race_log[f"race_won_{cand}"] = 0
            release = getattr(loser, "release", None)
            if release is not None:
                release()
        race_log[f"race_won_{winner_name}"] = 1
        return RacedCompiled(winner, race_log)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_BACKENDS: dict[str, Callable[[], CompilationBackend]] = {}


def register_backend(name: str, factory: Callable[[], CompilationBackend]) -> None:
    """Register a backend factory under ``name`` (overwrites silently so
    downstream code can swap implementations)."""
    _BACKENDS[name] = factory


def get_backend(name: str) -> CompilationBackend:
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {available_backends()}"
        ) from None
    return factory()


def available_backends() -> list[str]:
    return sorted(_BACKENDS)


register_backend("canonical", CanonicalBackend)
register_backend("apply", ApplyBackend)
register_backend("obdd", ObddBackend)
register_backend("ddnnf", DdnnfBackend)
register_backend("race", RaceBackend)
