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
from functools import cached_property
from typing import Callable, Mapping, Protocol, Sequence, runtime_checkable

from ..circuits.circuit import Circuit
from ..core.vtree import Vtree
from ..obdd.obdd import ObddManager
from ..sdd.manager import SddManager

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
    """Shared bookkeeping for the concrete ``Compiled`` implementations.

    A result answers from one node table through its ``(table, root)``
    pair, and the table may be live (a manager or DAG fresh from the
    backend) or frozen (a store over a loaded artifact): the same class
    serves both, so a loaded result answers exactly as the live one it
    was saved from.
    """

    backend = ""
    # Stores that keep no vtree of their own (OBDD, d-DNNF) record the
    # result's vtree in the artifact's meta.
    _vtree_in_meta = False

    def __init__(
        self,
        circuit: Circuit,
        vtree: Vtree,
        decomposition_width: int | None,
        strategy: str,
        *,
        table,
        root: int,
    ):
        self.circuit = circuit
        self.vtree = vtree
        self.decomposition_width = decomposition_width
        self.strategy = strategy
        self.table = table
        self.root = root

    @property
    def circuit_variables(self) -> set[str]:
        return set(map(str, self.circuit.variables))

    @property
    def size(self) -> int:
        return self.table.size(self.root)

    @property
    def width(self) -> int:
        return self.table.width(self.root)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return self.table.evaluate(self.root, assignment)

    def stats(self) -> dict[str, int]:
        return self.table.stats()

    def save(self, path) -> None:
        """Save this result as a flat artifact file (the table's frozen
        sections + meta + circuit); reload with
        :meth:`repro.compiler.Compiler.load`, which returns this class
        again — answers equal, float probabilities bit-identical, and
        re-saving writes the same bytes."""
        from ..artifact.format import write_compiled

        meta = {
            "backend": self.backend,
            "strategy": self.strategy,
            "decomposition_width": self.decomposition_width,
            "size": self.size,
            "width": self.width,
        }
        if self._vtree_in_meta:
            meta["vtree_postfix"] = self.vtree.to_postfix()
        write_compiled(path, self.table.freeze([self.root], meta=meta), self.circuit)

    @classmethod
    def _from_store(cls, store, circuit, **extra):
        """The result a ``save`` wrote, over its loaded frozen ``store``."""
        meta = store.meta
        postfix = meta.get("vtree_postfix")
        return cls(
            circuit,
            store.vtree() if postfix is None else Vtree.from_postfix(postfix),
            meta.get("decomposition_width"),
            meta.get("strategy", ""),
            table=store,
            root=store.roots[0],
            **extra,
        )

    def close(self) -> None:
        """Unmap a loaded result's artifact (a live table holds none)."""
        close = getattr(self.table, "close", None)
        if close is not None:
            close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} backend={self.backend!r} "
            f"vars={len(self.circuit_variables)} size={self.size}>"
        )


class _DiagramCompiled(_CompiledBase):
    """A result over an SDD or OBDD node table, live or frozen, whose
    ``variables`` (the vtree's, or the variable order's) may include
    some the circuit does not depend on."""

    def model_count(self) -> int:
        base = self.table.count_models(self.root, self.circuit.variables)
        # The count runs over all the table's variables; the circuit does
        # not depend on the extras, so each contributes an exact factor of 2.
        extra = self.table.variables - self.circuit_variables
        return base >> len(extra)

    def probability(self, prob, *, exact: bool = False):
        full = _fill_extra(prob, self.table.variables)
        return self.table.probability(self.root, full, exact=exact)


class CanonicalCompiled(_DiagramCompiled):
    """Result of the ``S_{F,T}`` construction (Section 3.2.2).

    Answers from the manager SDD the canonical ``S_{F,T}`` loads into
    over the same vtree (the ``(table, root)`` pair); ``size`` and
    ``width`` stay ``S_{F,T}``'s own counts, which the manager's
    compression and trimming would shrink.  Beyond the uniform interface
    this exposes ``function`` (the exact
    :class:`~repro.core.boolfunc.BooleanFunction`), ``sdd`` (the
    :class:`~repro.core.sdd_compile.CompiledSDD`) and ``nnf``, each built
    on first access from the circuit and vtree.
    """

    backend = "canonical"

    def __init__(self, circuit, vtree, decomposition_width, strategy, *, table, root,
                 size, width):
        super().__init__(
            circuit, vtree, decomposition_width, strategy, table=table, root=root
        )
        self._size = size
        self._width = width

    @property
    def size(self) -> int:
        return self._size

    @property
    def width(self) -> int:
        return self._width

    @cached_property
    def function(self):
        return self.circuit.function()

    @cached_property
    def sdd(self):
        from ..core.sdd_compile import compile_canonical_sdd

        return compile_canonical_sdd(self.function, self.vtree)

    @cached_property
    def nnf(self):
        from ..core.nnf_compile import compile_canonical_nnf

        return compile_canonical_nnf(self.function, self.vtree)

    @classmethod
    def _from_store(cls, store, circuit):
        return super()._from_store(
            store, circuit, size=store.meta["size"], width=store.meta["width"]
        )


class ApplyCompiled(_DiagramCompiled):
    """Result of bottom-up :class:`SddManager` compilation; also exposes
    ``manager`` (the table) and ``root`` for callers that want the raw
    handles.

    A live result owns its root: the backend pins it in the manager, so
    callers that run :meth:`SddManager.gc` can never collect a
    compilation result out from under a live ``Compiled``.  Call
    :meth:`release` to hand the root back to the collector when done."""

    backend = "apply"

    @property
    def manager(self):
        return self.table

    def release(self) -> None:
        """Unpin the root; the manager's next gc may collect it.  Using
        this ``Compiled`` after a post-release collection is undefined
        (the root id may be recycled — see :meth:`SddManager.pin`).  A
        loaded result's ids never die, so it has nothing to release."""
        if isinstance(self.table, SddManager):
            self.table.release(self.root)


class ObddCompiled(_DiagramCompiled):
    """Result of OBDD compilation under the vtree's leaf order; exposes
    ``manager`` (the table: an :class:`ObddManager` or a frozen store)
    and ``root``.  A reduced OBDD of the circuit never tests variables
    the circuit does not depend on, so :meth:`evaluate` needs only the
    circuit's assignment."""

    backend = "obdd"
    _vtree_in_meta = True

    @property
    def manager(self):
        return self.table


class DdnnfCompiled(_CompiledBase):
    """Result of the bag-by-bag d-DNNF compilation; exposes ``dag`` (the
    table), ``root`` and ``result`` (the
    :class:`~repro.dnnf.builder.DdnnfResult` of a live build, whose bag
    and state-walk counters :meth:`stats` reports; ``None`` when loaded).

    The ``vtree`` attribute is the strategy's choice, kept for protocol
    compliance only — this backend compiles from its *own* friendly tree
    decomposition of the circuit's gate graph, never from the vtree.
    """

    backend = "ddnnf"
    _vtree_in_meta = True

    def __init__(self, circuit, vtree, decomposition_width, strategy, *, table, root,
                 result=None):
        super().__init__(
            circuit, vtree, decomposition_width, strategy, table=table, root=root
        )
        self.result = result

    @property
    def dag(self):
        return self.table

    def model_count(self) -> int:
        # Smoothness makes the root mention exactly the circuit's
        # variables, so no extras shifting is needed (the scope argument
        # covers degenerate circuits whose output ignores some variable
        # gate — those still count free, matching the other backends).
        return self.table.count_models(self.root, self.circuit.variables)

    def probability(self, prob, *, exact: bool = False):
        # Variables beyond the root's scope marginalize out for free; no
        # _fill_extra needed.
        return self.table.probability(self.root, prob, exact=exact)

    def stats(self) -> dict[str, int]:
        return self.table.stats() if self.result is None else self.result.stats()


class RacedCompiled(_CompiledBase):
    """The winner of a backend race, plus the race log.

    Every uniform accessor delegates to the winning backend's ``Compiled``
    (available as ``winner``); :meth:`stats` merges the winner's counters
    with per-candidate ``race_size_*`` / ``race_us_*`` / ``race_won_*``
    entries so best-of race logs stay comparable across backends — all
    plain ints, per the public-stats convention.  :meth:`save` saves the
    winner, so loading the file returns the winner's class.
    """

    backend = "race"

    def __init__(self, winner: Compiled, race_log: dict[str, int]):
        super().__init__(
            winner.circuit, winner.vtree, winner.decomposition_width, winner.strategy,
            table=winner.table, root=winner.root,
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

    def save(self, path) -> None:
        self.winner.save(path)


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
        from ..core.sdd_compile import compile_canonical_sdd

        f = circuit.function()
        sdd = compile_canonical_sdd(f, vtree)
        # The circuit itself is never recompiled: the S_{F,T} just built is
        # loaded into a manager over the same vtree.
        manager = SddManager(vtree)
        compiled = CanonicalCompiled(
            circuit, vtree, decomposition_width, strategy,
            table=manager, root=manager.compile_nnf(sdd.root),
            size=sdd.size, width=sdd.sdw,
        )
        compiled.function, compiled.sdd = f, sdd  # already built: seed the lazy ones
        return compiled


class ApplyBackend:
    name = "apply"

    def compile(self, circuit, vtree, *, decomposition_width=None, strategy="",
                trial=None, node_budget=None):
        if trial is not None:
            # Ownership handoff: the best-of race already compiled the
            # winning candidate and its VtreeChoice carries the (manager,
            # root) pair of the single surviving trial (losers were dropped
            # eagerly by the strategy).  Reusing it here transfers
            # ownership to the ApplyCompiled, whose root is pinned, so
            # the race's work is never repeated and never duplicated.
            manager, root = trial
            if manager.vtree is not vtree and manager.vtree != vtree:
                trial = None
        if trial is None:
            manager = SddManager(vtree)
            root = manager.compile_circuit(circuit, node_budget=node_budget)
        return ApplyCompiled(
            circuit, vtree, decomposition_width, strategy,
            table=manager, root=manager.pin(root),
        )


class ObddBackend:
    name = "obdd"

    def compile(self, circuit, vtree, *, decomposition_width=None, strategy="",
                trial=None, node_budget=None):
        manager = ObddManager(vtree.leaf_order())
        root = manager.compile_circuit(circuit, node_budget=node_budget)
        return ObddCompiled(
            circuit, vtree, decomposition_width, strategy, table=manager, root=root
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
            circuit, vtree, decomposition_width, strategy,
            table=result.dag, root=result.root, result=result,
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
    The apply and obdd backends check that budget at every new node, so
    their loser stops inside the apply that crosses the cutoff, however
    large that one apply is; the d-DNNF builder checks it per bag.
    The slack is deliberately generous and the floor high: live node
    counts *during* apply compilation include intermediate gate results
    and literals far above the final compiled size, so a tight budget
    would abandon eventual winners.  An abandoned candidate logs
    ``race_abandoned_<cand> = 1`` (and its elapsed time) but no size.
    The canonical backend has no budget hook, so it never abandons.
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
