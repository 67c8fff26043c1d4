"""A query-evaluation session: one database, one vtree, one manager.

:class:`QueryEngine` is the stateful front door for probabilistic query
evaluation.  It owns its sharing for its whole lifetime:

- **one vtree** — built from the first query's hierarchy order and covering
  *every* tuple variable of the database, so any later query against the
  same database fits;
- **one** :class:`~repro.sdd.manager.SddManager` — hash-cons tables and
  apply caches accumulate across queries, so a sub-lineage two queries
  share is compiled once, whenever the queries arrive;
- **one WMC memo per weight ring** — the
  :class:`~repro.sdd.wmc.SddWmcEvaluator` memo is keyed by node id, so
  shared SDD nodes are counted once across the session;
- **a compiled-query cache** — asking for the same query twice is a
  dictionary hit.

The engine is also the *policy home* for the manager's garbage collector:
every compiled root is pinned, :meth:`forget` releases one, and a
``max_nodes`` session budget evicts compiled queries and collects whenever
the manager outgrows it — so a session can serve an unbounded stream of
queries in bounded memory.  Victims are picked size-aware (exclusive node
footprint × staleness, so one huge cold lineage goes before five small
warm ones).

The session vtree is never re-shaped once chosen (an insert only hangs a
new leaf above it): every query compiles against the hierarchy-order
vtree of the first query, or the one supplied.

Example::

    engine = QueryEngine(db, max_nodes=50_000)
    engine.probability(parse_ucq("R(x),S(x,y)"))
    engine.probability(parse_ucq("S(x,y)"), exact=True)
    batch = engine.evaluate(queries, exact=True)
    engine.forget(old_query)           # release one pinned lineage
    engine.gc()                        # collect everything unpinned now
    engine.stats()                     # public counters, no private pokes
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from typing import Iterable, Sequence

from .compile import compile_lineage_sdd, lineage_vtree
from .database import ProbabilisticDatabase, UpdateDelta
from .lineage import (
    has_inequality_only_variable,
    lineage_circuit,
    lineage_delta,
    lineage_terms,  # unused here; perfbench/tracing.py patches this binding
    unifies,
)
from .syntax import UCQ
from ..core.vtree import Vtree
from ..sdd.manager import SddManager
from ..sdd.wmc import SddWmcEvaluator, exact_weights, float_weights

__all__ = ["QueryEngine"]


class QueryEngine:
    """Exact probabilistic query evaluation with session-wide sharing.

    ``vtree`` may be supplied to pin the decomposition shape (e.g. a
    balanced vtree from :func:`~repro.queries.compile.lineage_vtree`);
    otherwise the engine derives a right-linear vtree over the hierarchy
    order of the first query it sees.

    ``max_nodes`` bounds the session: after each compilation, if the
    manager's live node count exceeds it, compiled queries are forgotten
    (their roots released) and the manager collected until the budget
    holds again — the query just asked for is never evicted.  ``None``
    (the default) keeps every query forever, the pre-GC behaviour.
    Victims are scored by exclusive node footprint × staleness, the
    most-expensive-least-recent first (see :meth:`_eviction_order`).

    The engine serves SDDs only.  The bag-by-bag d-DNNF of arXiv
    1811.02944 §5.1 stays available as a one-shot reference,
    :func:`~repro.queries.evaluate.probability_via_ddnnf`, and as
    ``Compiler(backend="ddnnf")`` for circuits.

    ``frozen`` preloads a compiled artifact base (a
    :class:`~repro.artifact.store.FrozenSdd` or a path to one written by
    :meth:`save_artifact`): queries whose normalized text matches a
    stored root are answered straight off the mmap-ed node tables — no
    manager, no compilation, bit-identical probabilities — and count as
    ``frozen_hits`` rather than cache misses.  When no
    explicit ``vtree`` is given the frozen base's vtree becomes the
    session vtree, so queries *outside* the base compile against the same
    decomposition.  The artifact's stamped database fingerprint must
    match ``db`` (a mismatched file raises, never silently answers for
    the wrong database).  A base opened from a path is closed when an
    insert or delete drops it; a passed-in store stays open.

    :meth:`apply_update` keeps the cached roots current under live
    weight, insert and delete deltas without recompiling: it patches each
    SDD root from the factorized lineage (an insert disjoins the part of
    the lineage that uses the new tuple, a delete conditions the tuple's
    variable out) and never grounds the DNF.  The only state it needs
    beyond the roots is the active domain they were compiled against.
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        *,
        vtree: Vtree | None = None,
        max_nodes: int | None = None,
        frozen=None,
    ):
        if max_nodes is not None and max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        # A path is mmap-ed in place (children of a spawn pool all map the
        # same file, so the OS shares the pages) and closed by this engine
        # when an update drops it; a passed-in store belongs to the caller
        # (the threads pool shares one across its engines).
        self._owns_frozen = frozen is not None and not hasattr(frozen, "root_named")
        if self._owns_frozen:
            from ..artifact.store import FrozenSdd

            frozen = FrozenSdd.load(frozen)
        if frozen is not None:
            frozen_fp = frozen.meta.get("db_fingerprint")
            if frozen_fp is not None and frozen_fp != db.fingerprint():
                if self._owns_frozen:
                    frozen.close()
                raise ValueError(
                    "frozen artifact was compiled for a different database "
                    f"(artifact {frozen_fp!r} vs session {db.fingerprint()!r})"
                )
            if vtree is None:
                vtree = frozen.vtree()
        self._frozen = frozen
        self._frozen_wmc: dict[bool, SddWmcEvaluator] = {}
        # Frozen root id -> its size; the store never changes, so entries
        # live until the base is dropped.
        self._frozen_sizes: dict[int, int] = {}
        self._frozen_hits = 0
        self.db = db
        self.max_nodes = max_nodes
        self._manager: SddManager | None = SddManager(vtree) if vtree is not None else None
        self._roots: OrderedDict[UCQ, int] = OrderedDict()
        # Query -> size of its cached root, filled on the first ask.  A
        # pinned root is never collected and the session vtree never moves,
        # so the size holds until :meth:`forget` drops the root or
        # :meth:`_patch_roots` replaces it.
        self._sizes: dict[UCQ, int] = {}
        self._evaluators: dict[bool, SddWmcEvaluator] = {}
        # The active domain every cached root was compiled against (set
        # when a compile fills an empty cache, kept current by structural
        # updates): a query with an inequality-only variable recompiles
        # when an update changes it.
        self._domain: frozenset | None = None
        self._evicted = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._deadline_exceeded = 0
        self._updates_applied = 0
        self._memo_invalidations = 0
        self._delta_patched = 0
        self._update_recompiles = 0

    # ------------------------------------------------------------------
    # session resources
    # ------------------------------------------------------------------
    @property
    def vtree(self) -> Vtree | None:
        """The session vtree (``None`` until the first query arrives)."""
        return None if self._manager is None else self._manager.vtree

    @property
    def manager(self) -> SddManager | None:
        """The shared manager (``None`` until the first query arrives)."""
        return self._manager

    def _ensure_manager(self, query: UCQ) -> SddManager:
        if self._manager is None:
            self._manager = SddManager(lineage_vtree(query, self.db))
        return self._manager

    def _session_weights(self, variables, exact: bool) -> dict[str, tuple]:
        """Weight pairs for every vtree variable: the database's tuple
        probabilities, and for vtree variables without one (possible with
        a hand-built vtree) pairs summing to 1, which marginalize them out
        of every query."""
        prob = self.db.probability_map()
        weights = exact_weights(prob) if exact else float_weights(prob)
        missing = variables - set(weights)
        if missing:
            half = Fraction(1, 2) if exact else 0.5
            weights.update({v: (half, half) for v in missing})
        return weights

    def _evaluator(self, exact: bool) -> SddWmcEvaluator:
        assert self._manager is not None, "compile a query first"
        ev = self._evaluators.get(exact)
        if ev is None:
            mgr = self._manager
            ev = SddWmcEvaluator(mgr, self._session_weights(mgr.variables, exact))
            self._evaluators[exact] = ev
        return ev

    # ------------------------------------------------------------------
    # frozen artifact base
    # ------------------------------------------------------------------
    @property
    def frozen(self):
        """The preloaded :class:`~repro.artifact.store.FrozenSdd` base
        (``None`` when the session compiles everything live)."""
        return self._frozen

    def close(self) -> None:
        """Drop the frozen base, closing it if this engine loaded it from
        a path (a :class:`~repro.artifact.store.FrozenSdd` passed in stays
        the caller's to close).  The engine stays usable and compiles
        everything live from then on.  Idempotent."""
        self._drop_frozen()

    def _drop_frozen(self) -> None:
        if self._frozen is None:
            return
        self._frozen_wmc = {}
        self._frozen_sizes = {}
        if self._owns_frozen:
            self._frozen.close()
        self._frozen = None

    def _frozen_root(self, query: UCQ) -> int | None:
        """The frozen base's root for ``query`` (matched on normalized
        query text), ``None`` when absent or no base is loaded."""
        if self._frozen is None or self._frozen.root_names is None:
            return None
        try:
            return self._frozen.root_named(query.normalized())
        except (KeyError, ValueError):
            return None

    def _frozen_evaluator(self, exact: bool) -> SddWmcEvaluator:
        """The same :class:`~repro.sdd.wmc.SddWmcEvaluator` as
        :meth:`_evaluator`, run over the frozen base's node tables with
        weights from the same helper, so frozen answers are bit-identical
        to live ones."""
        ev = self._frozen_wmc.get(exact)
        if ev is None:
            frozen = self._frozen
            ev = SddWmcEvaluator(frozen, self._session_weights(frozen.variables, exact))
            self._frozen_wmc[exact] = ev
        return ev

    def save_artifact(self, path, *, meta: dict | None = None):
        """Freeze every currently cached query into one artifact file.

        Roots are named by :meth:`~repro.queries.syntax.UCQ.normalized`
        query text and the database fingerprint is stamped into the
        metadata, so a later session (or a spawn worker) can open the file
        with ``QueryEngine(db, frozen=path)`` and answer those queries
        without compiling anything.  Returns the written
        :class:`~repro.artifact.store.FrozenSdd`."""
        if not self._roots or self._manager is None:
            raise ValueError("no compiled queries to save")
        full_meta = {"db_fingerprint": self.db.fingerprint()}
        if meta:
            full_meta.update(meta)
        frozen = self._manager.freeze(
            list(self._roots.values()),
            names=[q.normalized() for q in self._roots],
            meta=full_meta,
        )
        frozen.write(path)
        return frozen

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_deadline(timeout: float | None, deadline):
        """One cancellation token from the two spellings: ``timeout``
        (seconds from now) or ``deadline`` (a pre-built
        :class:`~repro.service.errors.Deadline`, e.g. the remaining
        budget a pool computed after queue time)."""
        if timeout is None:
            return deadline
        if deadline is not None:
            raise ValueError("pass timeout= or deadline=, not both")
        from ..service.errors import Deadline

        return Deadline(timeout)

    def compile(self, query: UCQ, *, timeout: float | None = None, deadline=None) -> int:
        """Compile ``query``'s lineage (cached and pinned against
        collection); returns its root node id in the shared manager.

        ``timeout``/``deadline`` bound the compilation wall-clock,
        enforced cooperatively at the per-gate safepoints; expiry raises
        the typed :class:`~repro.service.errors.DeadlineExceeded` and
        leaves the session consistent (nothing is cached for the query,
        and the partial manager garbage is unpinned, so the next
        collection reclaims it)."""
        deadline = self._resolve_deadline(timeout, deadline)
        root = self._roots.get(query)
        if root is not None:
            self._roots.move_to_end(query)
            self._cache_hits += 1
            return root
        self._cache_misses += 1
        mgr = self._ensure_manager(query)
        from ..service.errors import DeadlineExceeded

        try:
            _, root = compile_lineage_sdd(query, self.db, manager=mgr, deadline=deadline)
        except DeadlineExceeded:
            self._deadline_exceeded += 1
            raise
        mgr.pin(root)
        if not self._roots:
            self._domain = frozenset(self.db.active_domain())
        self._roots[query] = root
        self._collect_over_budget(keep=query)
        return root

    def cached_root(self, query: UCQ) -> int | None:
        """The root id of ``query`` if it is currently compiled, ``None``
        if it was never asked for or has been evicted/forgotten.  Never
        compiles — the read-only counterpart of :meth:`compile`."""
        root = self._roots.get(query)
        if root is None:
            return self._frozen_root(query)
        return root

    def probability(
        self,
        query: UCQ,
        *,
        exact: bool = False,
        timeout: float | None = None,
        deadline=None,
    ) -> float | Fraction:
        """Exact probability of ``query`` under the tuple-independence
        semantics; ``exact=True`` stays in :class:`~fractions.Fraction`.

        ``timeout``/``deadline`` bound the compilation (the dominant
        cost; the linear WMC sweep is not interrupted) — see
        :meth:`compile` for the cooperative-cancellation contract."""
        deadline = self._resolve_deadline(timeout, deadline)
        froot = self._frozen_root(query)
        if froot is not None and query not in self._roots:
            # Served straight off the mmap-ed artifact: no compilation, no
            # manager, and not a cache miss — the answer was precompiled.
            # (apply_update drops the frozen base on insert/delete, so a
            # hit here is never stale.)
            self._frozen_hits += 1
            value = self._frozen_evaluator(exact).value(froot)
            return Fraction(value) if exact else float(value)
        root = self.compile(query, deadline=deadline)
        value = self._evaluator(exact).value(root)
        # Constant roots short-circuit to int 0/1; normalize the ring.
        return Fraction(value) if exact else float(value)

    def compiled_size(self, query: UCQ) -> int | None:
        """Compiled size of ``query`` if it is currently cached, ``None``
        otherwise.  Never compiles and never touches the hit/miss
        counters — the sibling of :meth:`cached_root` used by the worker
        pool to report sizes without inflating the cache statistics.  Each
        root is walked once; the size is kept until the root is forgotten,
        evicted or patched."""
        if query in self._roots:
            return self._root_size(query)
        froot = self._frozen_root(query)
        return None if froot is None else self._frozen_size(froot)

    def _root_size(self, query: UCQ) -> int:
        """Size of ``query``'s cached root, walked once per root."""
        size = self._sizes.get(query)
        if size is None:
            assert self._manager is not None
            size = self._sizes[query] = self._manager.size(self._roots[query])
        return size

    def _frozen_size(self, froot: int) -> int:
        """Size of a frozen-base root, walked once per root."""
        size = self._frozen_sizes.get(froot)
        if size is None:
            size = self._frozen_sizes[froot] = self._frozen.size(froot)
        return size

    def lineage_size(self, query: UCQ) -> int:
        """Compiled SDD size of the lineage of ``query`` (compiles it if
        needed)."""
        froot = self._frozen_root(query)
        if froot is not None and query not in self._roots:
            self._frozen_hits += 1
            return self._frozen_size(froot)
        self.compile(query)
        return self._root_size(query)

    def evaluate(
        self,
        queries: Iterable[UCQ],
        *,
        exact: bool = False,
        timeout: float | None = None,
    ):
        """Evaluate a workload; returns a
        :class:`~repro.queries.evaluate.BatchEvaluation`.

        ``timeout`` grants each query its own wall-clock budget (seconds;
        per query, not per batch — matching the service tier's per-query
        deadlines); a query that exceeds it raises the typed
        :class:`~repro.service.errors.DeadlineExceeded` out of the batch.

        With a ``max_nodes`` budget, queries early in a large batch may be
        evicted (and their node ids collected, possibly recycled) by the
        time the batch ends.  ``sizes`` are measured at evaluation time;
        ``roots`` holds only roots that are still compiled and pinned when
        the batch returns — evicted queries report ``None`` there, never a
        stale id.  To shard a batch across worker engines, submit it to a
        :class:`~repro.service.QueryService` with ``steal=False``.
        """
        from .evaluate import BatchEvaluation

        qs: Sequence[UCQ] = list(queries)
        if not qs:
            raise ValueError("empty workload")
        probabilities = []
        sizes = []
        for q in qs:
            probabilities.append(self.probability(q, exact=exact, timeout=timeout))
            # Just answered, live or off the frozen base: present.
            sizes.append(self.compiled_size(q))
        return BatchEvaluation(
            queries=list(qs),
            probabilities=probabilities,
            roots=[self.cached_root(q) for q in qs],
            sizes=sizes,
            manager=self._manager,
            vtree=self.vtree,
            stats=self.stats(),
        )

    # ------------------------------------------------------------------
    # session lifecycle (GC policy)
    # ------------------------------------------------------------------
    def forget(self, query: UCQ) -> bool:
        """Release ``query``'s compiled lineage and drop it from the
        compiled-query cache: the pinned root's nodes become collectable by
        the next :meth:`gc` (unless shared with a still-pinned query).
        Returns whether the query was cached."""
        root = self._roots.pop(query, None)
        if root is None:
            return False
        self._sizes.pop(query, None)
        assert self._manager is not None
        self._manager.release(root)
        return True

    def gc(self) -> dict[str, int]:
        """Collect everything unreachable from the still-pinned roots:
        the engine pins every root it hands out, so nothing the session
        can still name is at risk."""
        if self._manager is None:
            return {"collected": 0, "live": 0, "free": 0}
        return self._manager.gc()

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    def apply_update(self, delta: UpdateDelta) -> dict[str, int]:
        """React to one database delta without restarting the session.

        ``delta`` comes from :meth:`ProbabilisticDatabase.set_probability`
        / :meth:`~ProbabilisticDatabase.insert` /
        :meth:`~ProbabilisticDatabase.delete`; the engine applies it to
        its database if a caller has not already (version-gated, so the
        same delta may arrive through several layers) and then repairs
        its caches per update class:

        - **weight** — lineages are unchanged; every live WMC evaluator
          point-updates the variable's weight pair and evicts exactly the
          memo entries that depended on it.  Zero recompilations.
        - **insert** — the manager's vtree grows a fresh leaf for the new
          tuple (no existing node or pin moves), and every cached root
          whose query has an atom that unifies with the tuple is
          delta-patched: :func:`~repro.queries.lineage.lineage_delta`, the
          factorized lineage with that atom bound to the tuple, is
          compiled alone and disjoined onto the old root.
        - **delete** — every cached root whose query has such an atom is
          conditioned on the tuple's variable being false (compiled
          lineages are closed under conditioning).

        Both patches are exact unless the query has a variable that occurs
        in no atom (an inequality-only variable) and the update changed the
        active domain: such a variable ranges over the domain, so terms
        that do not use the tuple can change, and the query recompiles
        from :func:`~repro.queries.lineage.lineage_circuit` instead.  In
        every other case each new or vanished domain value sits only in
        the touched tuple, so the old lineage is the new one with the
        tuple's variable set to false, and SDD canonicity makes the patched
        root the node a fresh compile on the same vtree would build.
        Nothing is ever grounded into DNF terms.  A query no atom of which
        unifies with the tuple is skipped without any apply.

        Counters: ``delta_patched_roots`` counts the patched roots whose
        node changed (only those are re-pinned, the old root released);
        ``update_recompiles`` counts the inequality-only recompiles.
        After a structural update the ``max_nodes`` budget is enforced as
        after a compile: collect first, and evict only if that is not
        enough.

        Returns this call's counter increments (the same keys
        :meth:`stats` accumulates).
        """
        delta.apply(self.db)
        self._updates_applied += 1
        memo_invalidations = 0
        patched = 0
        recompiles = 0
        if delta.kind == "weight":
            memo_invalidations = self._update_weight_caches(
                delta.var, delta.p
            )
        else:
            # The artifact was compiled against the old instance; its
            # roots are now answers to the wrong lineage.
            self._drop_frozen()
            if delta.kind == "insert":
                if self._manager is not None:
                    # A new leaf under a new root: nothing existing moves.
                    self._manager.add_variable(delta.var)
                memo_invalidations = self._update_weight_caches(
                    delta.var, delta.p
                )
                patched, recompiles = self._patch_roots(delta, insert=True)
            else:
                # The variable stays in the vtree; give it the same
                # half/half weights a fresh engine fills in for vtree
                # variables without a tuple probability, so patched and
                # fresh sessions stay bit-identical.
                memo_invalidations = self._update_weight_caches(
                    delta.var, None
                )
                patched, recompiles = self._patch_roots(delta, insert=False)
            self._collect_over_budget(keep=None)
        self._memo_invalidations += memo_invalidations
        self._delta_patched += patched
        self._update_recompiles += recompiles
        return {
            "updates_applied": 1,
            "memo_invalidations": memo_invalidations,
            "delta_patched_roots": patched,
            "update_recompiles": recompiles,
        }

    @staticmethod
    def _weight_pair(p: float | None, exact: bool):
        """The ``(w_neg, w_pos)`` pair a fresh evaluator would build:
        database probabilities via :func:`exact_weights` /
        :func:`float_weights` conventions, ``None`` (a deleted tuple's
        vtree leftover) as the half/half marginalizer."""
        if p is None:
            return (Fraction(1, 2), Fraction(1, 2)) if exact else (0.5, 0.5)
        if exact:
            fp = Fraction(str(p))
            return (1 - fp, fp)
        return (1.0 - float(p), float(p))

    def _update_weight_caches(self, var: str, p: float | None) -> int:
        """Point-update ``var``'s weight in every evaluator, live or over
        the frozen base; returns the total memo entries evicted."""
        invalidated = 0
        for evaluators in (self._evaluators, self._frozen_wmc):
            for exact, ev in evaluators.items():
                invalidated += ev.update_weights({var: self._weight_pair(p, exact)})
        return invalidated

    def _patch_roots(self, delta: UpdateDelta, *, insert: bool) -> tuple[int, int]:
        """Delta-patch every cached query for a tuple insert/delete (see
        :meth:`apply_update`); returns ``(patched, recompiled)``."""
        domain = frozenset(self.db.active_domain())
        domain_moved = domain != self._domain
        self._domain = domain
        mgr = self._manager
        if mgr is None:
            return 0, 0
        patched = 0
        recompiles = 0
        for query, root in list(self._roots.items()):
            if domain_moved and has_inequality_only_variable(query):
                new_root = mgr.compile_circuit(lineage_circuit(query, self.db))
                recompiles += 1
            elif not unifies(query, delta.relation, delta.values):
                continue
            elif insert:
                added = lineage_delta(query, self.db, delta.relation, delta.values)
                new_root = mgr.disjoin(root, mgr.compile_circuit(added))
                patched += new_root != root
            else:
                new_root = mgr.condition(root, {delta.var: 0})
                patched += new_root != root
            if new_root != root:
                mgr.pin(new_root)
                mgr.release(root)
                self._roots[query] = new_root
                self._sizes.pop(query, None)
        return patched, recompiles

    def _eviction_order(self, keep: UCQ | None) -> list[UCQ]:
        """Victim order for the budget sweep (size-lru).

        Every cached query is scored by ``(exclusive footprint + 1) ×
        staleness rank``: *exclusive* counts the decision nodes reachable
        from that query's root and from no other cached root (shared
        sub-lineages are free to keep, so they shouldn't condemn their
        owners), staleness makes the oldest of equal-footprint queries go
        first."""
        victims = [q for q in self._roots if q != keep]
        if len(victims) <= 1:
            return victims
        mgr = self._manager
        assert mgr is not None
        owners: dict[int, int] = {}
        reaches: list[set[int]] = []
        for q in victims:
            reach = mgr.reachable(self._roots[q])
            reaches.append(reach)
            for u in reach:
                owners[u] = owners.get(u, 0) + 1
        keep_root = self._roots.get(keep)
        if keep_root is not None:
            for u in mgr.reachable(keep_root):
                owners[u] = owners.get(u, 0) + 1
        n = len(victims)
        scored = []
        for age, (q, reach) in enumerate(zip(victims, reaches)):
            exclusive = sum(
                1
                for u in reach
                if owners[u] == 1 and u > 1 and mgr.node_kind[u] == "dec"
            )
            staleness = n - age  # oldest (first inserted) weighs most
            scored.append((-(exclusive + 1) * staleness, age, q))
        scored.sort()
        return [q for _, _, q in scored]

    def _collect_over_budget(self, keep: UCQ | None) -> None:
        """Evict queries + collect until the ``max_nodes`` budget holds
        (or only ``keep`` remains cached; ``None`` keeps nothing back —
        the sweep after an update); victims in :meth:`_eviction_order`."""
        mgr = self._manager
        if mgr is None or self.max_nodes is None:
            return
        if mgr.live_node_count <= self.max_nodes:
            return
        # First try a plain collection: compilation garbage (intermediate
        # gate results) often pays the whole bill without evicting anyone
        # — and the size-aware victim scoring (a reachability sweep over
        # every cached root) is only worth computing when it didn't.
        mgr.gc()
        if mgr.live_node_count <= self.max_nodes:
            return
        # Then evict in geometrically growing batches (one mark-sweep per
        # batch, O(log k) sweeps instead of one per eviction) until the
        # budget holds or only ``keep`` remains.
        victims = self._eviction_order(keep)
        i = 0
        batch = 1
        while mgr.live_node_count > self.max_nodes and i < len(victims):
            for q in victims[i : i + batch]:
                self.forget(q)
                self._evicted += 1
            i += batch
            batch *= 2
            mgr.gc()

    def live_nodes(self) -> int:
        """The session's current compiled-node footprint — the manager's
        live nodes, the number the ``max_nodes`` budget bounds and
        service-tier quotas charge against."""
        return 0 if self._manager is None else self._manager.live_node_count

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Public counters for the session's shared state.

        Includes the manager's table/cache/GC counters (prefixed as
        reported by :meth:`SddManager.stats`) and the combined WMC memo
        size; use this instead of reading private ``_and_cache`` /
        ``_memo`` attributes.

        Update counters: ``delta_patched_roots`` counts cached roots an
        insert or delete patched to a different node (a query whose atoms
        cannot use the tuple costs no apply and counts nothing);
        ``update_recompiles`` counts queries recompiled instead, because
        they have an inequality-only variable and the active domain
        changed.
        """
        out: dict[str, int] = {
            "queries_compiled": len(self._roots),
            "queries_evicted": self._evicted,
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
            "cache_evictions": self._evicted,
            "tuples": self.db.size,
            "frozen_queries": (
                0
                if self._frozen is None or self._frozen.root_names is None
                else len(self._frozen.root_names)
            ),
            "frozen_hits": self._frozen_hits,
            "updates_applied": self._updates_applied,
            "memo_invalidations": self._memo_invalidations,
            "delta_patched_roots": self._delta_patched,
            "update_recompiles": self._update_recompiles,
            "deadline_exceeded": self._deadline_exceeded,
        }
        if self._manager is not None:
            m = self._manager.stats()
            out["manager_nodes"] = m["nodes"]
            out["manager_node_capacity"] = m["node_capacity"]
            out["manager_free_nodes"] = m["free_nodes"]
            out["manager_decision_nodes"] = m["decision_nodes"]
            out["apply_cache_entries"] = m["apply_cache_entries"]
            out["pinned_roots"] = m["pinned_roots"]
            out["gc_runs"] = m["gc_runs"]
            out["collected_nodes"] = m["collected_nodes"]
        out["wmc_memo_entries"] = sum(
            ev.stats()["memo_entries"]
            for evaluators in (self._evaluators, self._frozen_wmc)
            for ev in evaluators.values()
        )
        return out
