"""Parallel sharded query evaluation: one base vtree, N worker engines.

The paper's query-compilation pipeline fixes *one* vtree per lineage
workload (the hierarchy order over every tuple variable of the database),
which makes per-query compilation embarrassingly parallel: every query's
SDD is canonical with respect to that shared vtree, so the work units are
independent and their answers are order- and placement-invariant.

:class:`ParallelQueryEngine` exploits this by sharding a batch of queries
across ``workers`` :class:`~repro.queries.engine.QueryEngine` instances,
each owning its own :class:`~repro.sdd.manager.SddManager` and WMC memos
while sharing one **read-only base vtree**: the pinned ``vtree=``, else
the first batch's first query's hierarchy order over every tuple variable
of the database (exactly the vtree a serial engine would derive).  The
engine keeps no copy of it: the :class:`~repro.service.pool.WorkerPool`
holds it (the serial engine under ``workers=1``), and only the pool and
:meth:`~repro.sdd.manager.SddManager.add_variable` grow it on insert.

Determinism guarantee
---------------------

Results are **bit-identical to the serial path** for every ``workers``
setting, every shard seed, and both execution modes:

- shard assignment is a *stable* BLAKE2 hash of the query text plus the
  shard seed (:func:`shard_of`) — never arrival order, thread timing, or
  ``PYTHONHASHSEED``;
- all workers compile against the same base vtree, and SDDs are canonical
  per vtree, so each query's compiled form — hence its exact ``Fraction``
  and even its float WMC value — does not depend on which worker ran it
  or what was compiled before it;
- a ``max_nodes`` budget applies *shard-locally* (each worker engine gets
  the full budget for its shard), and the manager's GC never changes an
  answer — eviction only affects whether ``roots[i]`` reports the
  still-pinned id or the ``None`` marker.

Execution modes
---------------

Every batch runs on one :class:`~repro.service.pool.WorkerPool`, started
on the first batch and kept for the engine's lifetime, so worker engines
and their caches survive across batches.  ``mode="threads"`` keeps each
worker engine on an in-process thread (no pickling); ``mode="spawn"``
keeps each in a spawn-started child process (queries, the database, and
the base vtree as a flat :meth:`~repro.core.vtree.Vtree.to_postfix`
encoding cross the pipe, so 10k-deep right-linear vtrees travel without
recursion).  ``mode="auto"`` picks threads when the first batch is small
or the host has one CPU (process start-up would dominate) and spawn
otherwise.  The pool never steals: each worker runs exactly its own
shard, in batch order, so a ``max_nodes`` budget sees the same eviction
sequence a serial engine would see restricted to that shard.

``workers=1`` short-circuits to the serial
:meth:`QueryEngine.evaluate` path and returns its
:class:`~repro.queries.evaluate.BatchEvaluation` byte-identically.
"""

from __future__ import annotations

import hashlib
import os
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .compile import lineage_vtree
from .database import ProbabilisticDatabase, UpdateDelta
from .engine import QueryEngine
from .syntax import UCQ
from ..core.vtree import Vtree

__all__ = ["ParallelQueryEngine", "ParallelBatchEvaluation", "shard_of"]

# ``mode="auto"``: below this many queries per worker a process pool's
# start-up cost (interpreter + imports per child) dominates the work.
_SPAWN_MIN_PER_WORKER = 64


def merge_stats(worker_stats: Iterable[dict[str, int | str]]) -> dict[str, int | str]:
    """Per-worker engine counters summed; strings (the backend name) pass
    through, the workers being configured identically."""
    merged: dict[str, int | str] = {}
    for stats in worker_stats:
        for k, v in stats.items():
            merged[k] = v if isinstance(v, str) else merged.get(k, 0) + v
    return merged


def shard_of(query: UCQ, workers: int, seed: int = 0) -> int:
    """Deterministic shard index of ``query`` among ``workers`` shards.

    A stable keyed BLAKE2 hash of the canonical query text: independent of
    ``PYTHONHASHSEED``, arrival order, process, and platform — the same
    query lands on the same worker in every run, so repeat queries hit
    that worker's compiled-query cache.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    digest = hashlib.blake2b(
        str(query).encode(),
        digest_size=8,
        key=seed.to_bytes(8, "big", signed=True),
    ).digest()
    return int.from_bytes(digest, "big") % workers


@dataclass
class ParallelBatchEvaluation:
    """Everything one sharded workload evaluation produces.

    Per-query lists are in original batch order.  ``roots[i]`` is the root
    id in worker ``shards[i]``'s manager when the batch returned, or
    ``None`` if that worker's ``max_nodes`` budget had evicted the query
    by then — never a stale id.  In ``spawn`` mode the managers live in
    worker processes, so root ids are reported for inspection but are not
    dereferenceable here; in ``threads`` mode ``engines()[shards[i]]`` is
    the live session that owns ``roots[i]``.  ``worker_stats`` is keyed
    by shard index (``worker_stats[shards[i]]`` is query ``i``'s worker;
    shards with no query in this batch have no entry).
    """

    queries: list[UCQ]
    probabilities: list[float | Fraction]
    roots: list[int | None]
    sizes: list[int]
    shards: list[int]
    workers: int
    mode: str
    vtree: Vtree | None  # None for the (vtree-free) d-DNNF backend
    worker_stats: dict[int, dict[str, int | str]]  # shard index -> engine stats
    stats: dict[str, int | str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, i: int):
        return self.probabilities[i]


class ParallelQueryEngine:
    """Shard query batches across ``workers`` engines over one base vtree.

    ``vtree`` pins the shared decomposition; otherwise it is derived once
    from the first query of the first batch (hierarchy order covering
    every tuple variable of ``db`` — the same vtree a serial
    :class:`QueryEngine` would build) and handed to the worker pool,
    which holds it for the engine's lifetime.  ``max_nodes`` is a
    *per-worker* session budget: each worker engine evicts and collects
    shard-locally, so a workload whose working
    set thrashes one serial engine's budget can fit ``workers`` smaller
    shard working sets (see ``benchmarks/bench_parallel.py``).

    ``mode`` is ``"auto"`` (default), ``"threads"``, or ``"spawn"``; see
    the module docstring for the choice rule and the determinism
    guarantee.  ``backend`` selects the compiled representation per worker
    engine (``"sdd"`` or ``"ddnnf"`` — the latter needs no shared vtree,
    every other guarantee is unchanged).

    The worker pool starts on the first batch and lives until
    :meth:`close` (or the engine is garbage-collected); use the engine as
    a context manager to bound it.  Not safe for *concurrent*
    ``evaluate`` calls on the same instance.
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        *,
        workers: int = 2,
        vtree: Vtree | None = None,
        max_nodes: int | None = None,
        mode: str = "auto",
        shard_seed: int = 0,
        backend: str = "sdd",
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if mode not in ("auto", "threads", "spawn"):
            raise ValueError(f"unknown mode {mode!r}")
        if max_nodes is not None and max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if backend not in QueryEngine._BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {QueryEngine._BACKENDS}"
            )
        self.db = db
        self.workers = workers
        self.max_nodes = max_nodes
        self.mode = mode
        self.shard_seed = shard_seed
        self.backend = backend
        self._pinned = vtree  # the vtree= option, handed to the tier it builds
        self._serial: QueryEngine | None = None  # workers == 1
        self._pool = None  # the lazily started WorkerPool (workers > 1)

    @property
    def vtree(self) -> Vtree | None:
        """The shared base vtree, read from the pool (the serial engine
        under ``workers=1``) once it is built: the pinned ``vtree=``, else
        the first batch's first query's hierarchy order, grown on insert
        only by the pool and :meth:`SddManager.add_variable`.  Before that
        it is the pinned ``vtree=`` (or ``None``); always ``None`` for
        d-DNNF."""
        tier = self._serial if self.workers == 1 else self._pool
        return self._pinned if tier is None else tier.vtree

    def shard_of(self, query: UCQ) -> int:
        """The worker index this engine deterministically assigns ``query``."""
        return shard_of(query, self.workers, self.shard_seed)

    def _serial_engine(self) -> QueryEngine:
        if self._serial is None:
            self._serial = QueryEngine(
                self.db,
                vtree=self._pinned,
                max_nodes=self.max_nodes,
                backend=self.backend,
            )
        return self._serial

    def _resolve_mode(self, n_queries: int) -> str:
        if self.mode != "auto":
            return self.mode
        if (os.cpu_count() or 1) <= 1:
            return "threads"  # no parallelism to win; skip process start-up
        if n_queries < self.workers * _SPAWN_MIN_PER_WORKER:
            return "threads"  # small batch: spawn cost dominates
        return "spawn"

    def _ensure_pool(self, first_query: UCQ | None, n_queries: int):
        if self._pool is None:
            from ..service.pool import WorkerPool

            vtree = self._pinned
            if vtree is None and self.backend == "sdd":
                vtree = lineage_vtree(first_query, self.db)
            self._pool = WorkerPool(
                self.db,
                workers=self.workers,
                vtree=vtree,
                max_nodes=self.max_nodes,
                mode=self._resolve_mode(n_queries),
                steal=False,
                backend=self.backend,
            )
            # An engine dropped without close() still stops its workers.
            weakref.finalize(self, self._pool.close)
        return self._pool

    def evaluate(self, queries: Iterable[UCQ], *, exact: bool = False):
        """Evaluate a workload sharded across the workers.

        Returns a :class:`ParallelBatchEvaluation` — except with
        ``workers=1``, which runs the serial
        :meth:`QueryEngine.evaluate` path unchanged and returns its
        :class:`~repro.queries.evaluate.BatchEvaluation` (byte-identical
        to not using the parallel engine at all).
        """
        qs: Sequence[UCQ] = list(queries)
        if not qs:
            raise ValueError("empty workload")
        if self.workers == 1:
            return self._serial_engine().evaluate(qs, exact=exact)

        shards: list[int] = [self.shard_of(q) for q in qs]
        items_per_worker: dict[int, list[tuple[int, UCQ]]] = {}
        for i, (q, w) in enumerate(zip(qs, shards)):
            items_per_worker.setdefault(w, []).append((i, q))
        pool = self._ensure_pool(qs[0], len(qs))
        results = pool.run_batch(items_per_worker, exact=exact)

        # Roots are read once the whole batch is done, not as each task
        # finishes: a later query of the same shard may have evicted an
        # earlier one, and its id may since have been recycled.
        ran_on: dict[int, list[int]] = {}
        for idx in range(len(qs)):
            ran_on.setdefault(results[idx].worker, []).append(idx)
        live = pool.cached_roots({w: [qs[i] for i in idxs] for w, idxs in ran_on.items()})
        roots: list[int | None] = [None] * len(qs)
        for w, idxs in ran_on.items():
            for idx, root in zip(idxs, live[w]):
                roots[idx] = root
        worker_stats = {w: s for w, s in pool.worker_stats().items() if w in ran_on}
        stats = self._merge_stats(list(worker_stats.values()))
        stats.update(pool.stats())
        return ParallelBatchEvaluation(
            queries=list(qs),
            probabilities=[results[i].probability for i in range(len(qs))],
            roots=roots,
            sizes=[results[i].size for i in range(len(qs))],
            shards=shards,
            workers=self.workers,
            mode=pool.mode,
            vtree=pool.vtree,
            worker_stats=worker_stats,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    def apply_update(self, delta: UpdateDelta) -> dict[str, int]:
        """Forward one database delta to this engine's one tier (the
        serial engine under ``workers=1``, else the worker pool) and
        return that tier's counter increments.

        The tier applies the delta to the shared database once
        (version-gated) and delta-patches its warm caches.  Only the pool
        and :meth:`SddManager.add_variable` grow the base vtree on insert;
        so that a pinned ``vtree=`` grows too, it builds its tier here if
        no batch has (in ``mode="auto"`` as for a small batch), while an
        unpinned one is derived later from the updated database.  Not
        safe concurrently with an in-flight batch on the same instance.
        """
        if self.workers == 1:
            return self._serial_engine().apply_update(delta)
        if self._pinned is not None:
            self._ensure_pool(None, 0)
        if self._pool is None:
            delta.apply(self.db)
            return {
                "updates_applied": 1,
                "memo_invalidations": 0,
                "delta_patched_roots": 0,
                "update_recompiles": 0,
            }
        return self._pool.apply_update(delta)

    def close(self) -> None:
        """Shut down the worker pool, if one was started.  Idempotent."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ParallelQueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def engines(self) -> dict[int, QueryEngine]:
        """The live per-worker engines: the pool's threads-mode engines
        (spawn engines live in their child processes), or the serial
        engine under ``workers=1``."""
        if self._pool is not None:
            return self._pool.engines()
        return {} if self._serial is None else {0: self._serial}

    @property
    def pool(self):
        """The :class:`~repro.service.pool.WorkerPool` (``None`` until a
        batch with ``workers > 1`` has run)."""
        return self._pool

    def _merge_stats(
        self, worker_stats: Sequence[dict[str, int | str]]
    ) -> dict[str, int | str]:
        merged = merge_stats(worker_stats)
        merged["tuples"] = self.db.size  # session-wide, not per-worker
        merged["workers"] = self.workers
        return merged

    def stats(self) -> dict[str, int | str]:
        """Public counters summed over every worker engine, plus the
        pool's own counters once it has started (empty until the first
        batch)."""
        if self._pool is None:
            return self._merge_stats([] if self._serial is None else [self._serial.stats()])
        stats = self._merge_stats(list(self._pool.worker_stats().values()))
        stats.update(self._pool.stats())
        return stats
