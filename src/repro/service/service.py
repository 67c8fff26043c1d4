"""The always-on query service: one warm pool, many sessions.

:class:`QueryService` is the one front door over the worker pool.
Where a :class:`~repro.queries.engine.QueryEngine` is one caller's
session, the service multiplexes *many concurrent sessions* onto one
persistent :class:`~repro.service.pool.WorkerPool`:

- **warm workers** — per-shard engines (threads or spawn-child
  processes) built once and reused for every batch of every session, so
  vtrees, hash-cons tables, apply caches, and WMC memos amortize across
  the service's whole lifetime;
- **a shared answer cache** — keyed by *content*
  (:meth:`~repro.queries.syntax.UCQ.normalized` text +
  :meth:`~repro.queries.database.Database.fingerprint` + value ring,
  via :func:`~repro.compiler.cache.fingerprint`), so one session's work
  answers another session's repeat instantly, and the hit/miss/eviction
  counters surface in :meth:`stats`;
- **admission control** — a bounded in-flight window that *rejects* with
  a retry hint (:exc:`~repro.service.errors.ServiceSaturated`) rather
  than queueing unboundedly, and per-session compiled-node quotas
  (:exc:`~repro.service.errors.QuotaExceeded`) charged from the
  canonical compiled sizes — deterministic for sequential submissions,
  independent of worker count or steal schedule.

Answers are **bit-identical to a serial engine**: compilation happens on
pool workers against one shared base vtree (SDDs are canonical per
vtree), the cache only ever stores values a worker computed, and results
are matched back to queries by id, never by arrival order.  The one
exception is opt-in: with ``fallback=True``, a query that keeps missing
its deadline on the pool is answered on its own vtree outside it and
flagged ``degraded=True`` (see :class:`QueryService`).

The service is thread-safe and asyncio-friendly: :meth:`submit` is a
coroutine and :meth:`submit_sync` the blocking twin.  A batch the answer
cache fills completely costs :meth:`submit` one yield to the event loop;
only the futures still pending on the pool are bridged with
:func:`asyncio.wrap_future`.  One quota note: quota checks are
per *submission*, admission is all-or-nothing per batch — a batch
admitted under budget runs to completion even if it crosses the quota
mid-way; the *next* submission is rejected.

Sharded batches
---------------

``QueryService(db, workers=N, steal=False).submit_sync(queries)`` is the
sharded batch evaluator.  Each query runs on worker
:func:`~repro.service.pool.shard_of` of its text (``answer.worker``), in
batch order, and no worker steals: the answer cache is filled only by
completion callbacks attached after the whole batch is dispatched, so
within one submission every query reaches its worker, and a
``max_nodes`` budget sees the same eviction sequence as a serial engine
running that shard alone.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .admission import AdmissionController, Session
from .errors import DeadlineExceeded, PoolClosed, ServiceSaturated
from .pool import WorkerPool, merge_stats, shard_of
from .supervisor import RestartPolicy
from ..compiler.cache import LruStatsCache, fingerprint
from ..core.vtree import Vtree
from ..queries.compile import lineage_vtree
from ..queries.database import ProbabilisticDatabase, UpdateDelta
from ..queries.engine import QueryEngine
from ..queries.syntax import UCQ
from ..sdd.manager import CompilationBudgetExceeded

__all__ = ["QueryService", "ServiceAnswer"]


@dataclass(frozen=True)
class ServiceAnswer:
    """One answered query: the probability, the compiled size it was
    charged at, whether it came from the shared answer cache, and (for
    freshly computed answers) the worker that ran it.  ``degraded``
    marks an answer computed outside the warm pool, by a fresh engine on
    the query's own vtree, after the pool kept missing its deadlines: the
    probability is still exact, and ``size`` is that engine's compiled
    size, which may differ from the size on the shared base vtree."""

    probability: float | Fraction
    size: int
    cached: bool
    worker: int | None
    degraded: bool = False


class QueryService:
    """Serve probabilistic queries from many sessions over one warm pool.

    ``workers``/``mode``/``steal``/``max_nodes`` configure the
    underlying :class:`WorkerPool` (``mode`` is ``"threads"`` or
    ``"spawn"``; ``max_nodes`` is the per-worker engine budget, evicted
    and collected shard-locally; ``steal=False`` keeps every query on its
    :func:`shard_of` worker, the deterministic sharded-batch setting of
    the module docstring).  ``vtree`` pins the shared base vtree;
    otherwise the warm-start artifact supplies it (see ``artifact_dir``),
    and failing that it is derived from the first query ever submitted,
    exactly as a serial engine would.  The pool holds it and alone grows
    it on insert; :attr:`vtree` reads it there.

    ``cache_capacity`` bounds the shared answer cache (``None`` =
    unbounded); ``cache_ttl`` arms per-answer expiry (seconds; an expired
    entry is recomputed and counted in the ``cache_expired`` stat;
    ``cache_clock`` injects a deterministic time source for tests);
    ``max_in_flight`` bounds admitted-but-unanswered queries across all
    sessions; ``session_quota`` is the default per-session compiled-node
    budget (``None`` = unmetered; per-session overrides via
    :meth:`session`).

    ``artifact_dir`` makes restarts warm: when the directory holds an
    artifact for this database (``<db_fingerprint>.rpaf``, as written by
    :meth:`save_artifact`), the pool warm-starts every worker from it —
    stored queries are answered straight off the mmap-ed file with no
    per-worker recompilation, and the artifact's vtree becomes the
    shared base vtree.

    Fault tolerance: ``default_timeout`` grants every query a wall-clock
    budget (seconds; per-call ``timeout=`` overrides it) enforced
    cooperatively at the compilation safepoints; ``restart`` /
    ``hang_timeout`` / ``fault_plan`` pass through to the pool's
    supervisor (see :class:`WorkerPool`).  When queries keep missing
    their deadlines — ``degrade_after`` consecutive deadline/budget
    failures — the service *degrades* instead of failing forever: with
    ``fallback=True``, each further deadline casualty is answered by a
    fresh :class:`QueryEngine` whose vtree is that query's own hierarchy
    order, not the shared one (marked ``degraded=True``, still exact;
    uncached and without a deadline).  The casualty keeps its admission
    slot until that answer is in, so a live update waits for it.  With
    ``fallback=False`` the circuit breaker rejects new work with
    :exc:`~repro.service.errors.ServiceSaturated` and a ``retry_after``
    hint until the breaker window passes.  Any success resets the
    streak.

    The pool starts lazily on the first submission and must be
    :meth:`close`\\ d (or use the service as a context manager;
    :meth:`shutdown` drains gracefully first).
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        *,
        workers: int = 2,
        mode: str = "threads",
        vtree: Vtree | None = None,
        max_nodes: int | None = None,
        steal: bool = True,
        shard_seed: int = 0,
        cache_capacity: int | None = None,
        cache_ttl: float | None = None,
        cache_clock=None,
        max_in_flight: int = 1024,
        retry_after: float = 0.05,
        session_quota: int | None = None,
        artifact_dir: str | os.PathLike | None = None,
        default_timeout: float | None = None,
        fallback: bool = False,
        degrade_after: int = 3,
        restart: RestartPolicy | None = None,
        hang_timeout: float | None = None,
        fault_plan=None,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if mode not in ("threads", "spawn"):
            raise ValueError(f"unknown mode {mode!r}")
        if max_nodes is not None and max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if degrade_after < 1:
            raise ValueError("degrade_after must be at least 1")
        self.db = db
        self.workers = workers
        self.mode = mode
        self.max_nodes = max_nodes
        self.steal = steal
        self.shard_seed = shard_seed
        self.session_quota = session_quota
        self._pinned = vtree  # the vtree= option, handed to the pool it builds
        self._db_fp = db.fingerprint()
        self._cache = LruStatsCache(cache_capacity, ttl=cache_ttl, clock=cache_clock)
        self._admission = AdmissionController(max_in_flight, retry_after)
        self._sessions: dict[str, Session] = {}
        self._pool: WorkerPool | None = None
        self._lock = threading.Lock()
        self._closed = False
        self._updating = False
        self._queries_served = 0
        self._updates_applied = 0
        self._cache_invalidated = 0
        self._artifact_dir = None if artifact_dir is None else os.fspath(artifact_dir)
        # Every distinct query ever dispatched (normalized text -> UCQ):
        # the freeze set for save_artifact.
        self._seen: dict[str, UCQ] = {}
        # Fault tolerance / degradation state.
        self.default_timeout = default_timeout
        self.fallback = fallback
        self.degrade_after = degrade_after
        self._restart_policy = restart
        self._hang_timeout = hang_timeout
        self._fault_plan = fault_plan
        self._deadline_exceeded = 0
        self._degraded_answers = 0
        self._degrade_streak = 0  # consecutive deadline/budget failures
        self._degraded_until = 0.0  # circuit breaker (monotonic instant)
        self._breaker_trips = 0
        self._draining = False
        self._fallbacks: ThreadPoolExecutor | None = None  # created on first use

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def session(self, name: str, *, max_nodes: int | None = None) -> Session:
        """Fetch-or-create the session ``name``.  ``max_nodes`` sets its
        quota on first creation (defaulting to the service-wide
        ``session_quota``); an existing session keeps its ledger."""
        with self._lock:
            return self._session(name, max_nodes)

    def _session(self, name: str, max_nodes: int | None = None) -> Session:
        sess = self._sessions.get(name)
        if sess is None:
            quota = max_nodes if max_nodes is not None else self.session_quota
            sess = Session(name=name, max_nodes=quota)
            self._sessions[name] = sess
        return sess

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_sync(
        self,
        queries: Iterable[UCQ],
        *,
        session: str = "default",
        exact: bool = False,
        timeout: float | None = None,
    ) -> list[ServiceAnswer]:
        """Blocking submit: admit the batch (or raise
        :exc:`ServiceSaturated` / :exc:`QuotaExceeded`), wait for every
        answer, and return them in batch order.  ``timeout`` bounds each
        query's wall clock (per query, not per batch; defaults to the
        service-wide ``default_timeout``)."""
        return [
            f.result()
            for f in self._dispatch(list(queries), session, exact, timeout)
        ]

    async def submit(
        self,
        queries: Iterable[UCQ],
        *,
        session: str = "default",
        exact: bool = False,
        timeout: float | None = None,
    ) -> list[ServiceAnswer]:
        """Asyncio submit: admission happens synchronously at call time
        (so rejections raise immediately, before any await); the answers
        are awaited without blocking the event loop.

        Answer-cache hits are already resolved when :meth:`_dispatch`
        returns, so only the pending futures are awaited; a fully cached
        batch still yields once, so sessions that only hit the cache take
        turns on the loop."""
        futures = self._dispatch(list(queries), session, exact, timeout)
        pending = [f for f in futures if not f.done()]
        if pending:
            await asyncio.gather(*map(asyncio.wrap_future, pending))
        else:
            await asyncio.sleep(0)
        return [f.result() for f in futures]

    def probability(
        self,
        query: UCQ,
        *,
        session: str = "default",
        exact: bool = False,
        timeout: float | None = None,
    ) -> float | Fraction:
        """One-query convenience wrapper over :meth:`submit_sync`."""
        return self.submit_sync(
            [query], session=session, exact=exact, timeout=timeout
        )[0].probability

    def _dispatch(
        self,
        qs: Sequence[UCQ],
        session: str,
        exact: bool,
        timeout: float | None = None,
    ) -> list[Future]:
        """Admit and route one batch; returns one client future per query
        (in batch order), each resolving to a :class:`ServiceAnswer`.

        Under the service lock: quota check (whole batch rejected if the
        session is already over), the pool (built on the first batch,
        before admission, so a pool that cannot be built holds no slot),
        all-or-nothing admission, then per query either an answer-cache
        hit (charged and released immediately) or a pool submission.
        Completion callbacks are attached *outside* the lock — a fast
        worker may complete the task before ``add_done_callback``
        returns, running the callback on this thread, and the callback
        takes the lock itself.  If ``pool.submit`` raises mid-batch, the
        slots of the queries it never took are released, the tasks it did
        take still get their callbacks, and the error propagates.
        """
        if not qs:
            raise ValueError("empty workload")
        if timeout is None:
            timeout = self.default_timeout
        pending: list[tuple[Future, Future, str, Session, UCQ]] = []
        out: list[Future] = []
        failure: BaseException | None = None
        with self._lock:
            if self._closed:
                raise PoolClosed("service is closed")
            if self._updating or self._draining:
                # A live update is quiescing the pool (or the service is
                # draining toward shutdown); refuse with the usual
                # backpressure signal so callers retry rather than queue.
                self._admission.rejected += len(qs)
                raise ServiceSaturated(
                    self._admission.in_flight,
                    self._admission.max_in_flight,
                    self._admission.retry_after_base,
                )
            breaker = self._degraded_until - time.monotonic()
            if breaker > 0:
                # Circuit breaker: the pool keeps blowing its deadlines and
                # no fallback is configured — shed load instead of
                # queueing more guaranteed casualties.
                self._admission.rejected += len(qs)
                raise ServiceSaturated(
                    self._admission.in_flight,
                    self._admission.max_in_flight,
                    breaker,
                )
            sess = self._session(session)
            sess.check()  # QuotaExceeded
            pool = self._ensure_pool(qs[0])
            self._admission.try_admit(len(qs))  # ServiceSaturated
            for i, q in enumerate(qs):
                text = q.normalized()
                self._seen.setdefault(text, q)
                key = self._cache_key(text, exact)
                hit = self._cache.get(key)
                client: Future = Future()
                out.append(client)
                if hit is not None:
                    p, size = hit
                    sess.charge(size)
                    self._admission.release(1)
                    self._queries_served += 1
                    client.set_result(
                        ServiceAnswer(probability=p, size=size, cached=True, worker=None)
                    )
                    continue
                try:
                    task = pool.submit(
                        shard_of(q, self.workers, self.shard_seed),
                        q,
                        exact=exact,
                        timeout=timeout,
                    )
                except BaseException as exc:
                    # E.g. every worker is retired: the queries before i
                    # were released as cache hits or reached the pool.
                    self._admission.release(len(qs) - i)
                    failure = exc
                    break
                pending.append((task, client, key, sess, q))
        for task, client, key, sess, q in pending:
            task.add_done_callback(self._completion(client, key, sess, q, exact))
        if failure is not None:
            raise failure
        return out

    def _completion(
        self, client: Future, key: str, sess: Session, query: UCQ, exact: bool
    ):
        def done(task: Future) -> None:
            try:
                r = task.result()
            except (DeadlineExceeded, CompilationBudgetExceeded) as exc:
                self._deadline_casualty(client, sess, query, exact, exc)
                return
            except BaseException as exc:  # noqa: BLE001 - routed to client
                with self._lock:
                    self._admission.release(1)
                client.set_exception(exc)
                return
            with self._lock:
                self._cache.put(key, (r.probability, r.size))
                sess.charge(r.size)
                self._admission.release(1)
                self._queries_served += 1
                self._degrade_streak = 0  # a success heals the streak
            client.set_result(
                ServiceAnswer(
                    probability=r.probability, size=r.size, cached=False, worker=r.worker
                )
            )

        return done

    def _deadline_casualty(
        self,
        client: Future,
        sess: Session,
        query: UCQ,
        exact: bool,
        exc: Exception,
    ) -> None:
        """Degradation policy for a query the pool could not answer inside
        its budget: count it, and once the consecutive streak reaches
        ``degrade_after`` either answer it on its own vtree
        (``degraded=True``) or trip the circuit breaker.

        Fallback answers are computed one at a time on the service's own
        fallback thread, so the pool thread that resolved the casualty
        goes back to serving.  Each is computed *before* its casualty's
        admission slot is released, so :meth:`apply_update` (which drains
        the in-flight window first) never mutates the database under it.
        It runs outside the service lock, is not cached (a healthy pool
        should recompute on the shared vtree) and has no deadline."""
        with self._lock:
            if isinstance(exc, DeadlineExceeded):
                self._deadline_exceeded += 1
            self._degrade_streak += 1
            streak = self._degrade_streak
            degrade = streak >= self.degrade_after
            if degrade and not self.fallback:
                # No other lane to shunt into: shed upcoming load for a
                # window that widens with the streak.
                self._degraded_until = time.monotonic() + (
                    self._admission.retry_after_base * streak
                )
                self._breaker_trips += 1
            if degrade and self.fallback and not self._closed:
                if self._fallbacks is None:
                    self._fallbacks = ThreadPoolExecutor(
                        1, thread_name_prefix="repro-service-fallback"
                    )
                self._fallbacks.submit(self._fallback, client, sess, query, exact)
                return
            self._admission.release(1)
        client.set_exception(exc)

    def _fallback(self, client: Future, sess: Session, query: UCQ, exact: bool) -> None:
        """Answer a casualty on its own vtree, then release its slot."""
        try:
            # A fresh engine derives its vtree from this query alone.
            engine = QueryEngine(self.db)
            p = engine.probability(query, exact=exact)
            size = engine.compiled_size(query)
        except BaseException as fallback_exc:  # noqa: BLE001 - routed to client
            with self._lock:
                self._admission.release(1)
            client.set_exception(fallback_exc)
            return
        with self._lock:
            sess.charge(size)
            self._admission.release(1)
            self._queries_served += 1
            self._degraded_answers += 1
        client.set_result(
            ServiceAnswer(
                probability=p, size=size, cached=False, worker=None, degraded=True
            )
        )

    def _cache_key(self, text: str, exact: bool) -> str:
        """The answer-cache key of a query's normalized ``text``."""
        return fingerprint(text, self._db_fp, "exact" if exact else "float")

    def _artifact_path(self) -> str | None:
        """The canonical artifact file for this database (inside
        ``artifact_dir``), or ``None`` when no directory is configured."""
        if self._artifact_dir is None:
            return None
        return os.path.join(self._artifact_dir, f"{self._db_fp}.rpaf")

    def _ensure_pool(self, first_query: UCQ | None) -> WorkerPool:
        if self._pool is None:
            artifact = self._artifact_path()
            if artifact is not None and not os.path.exists(artifact):
                artifact = None  # cold start; save_artifact can fill it
            vtree = self._pinned
            if vtree is None and artifact is None:
                vtree = lineage_vtree(first_query, self.db)
            self._pool = WorkerPool(
                self.db,
                workers=self.workers,
                vtree=vtree,
                max_nodes=self.max_nodes,
                mode=self.mode,
                steal=self.steal,
                artifact=artifact,
                restart=self._restart_policy,
                hang_timeout=self._hang_timeout,
                fault_plan=self._fault_plan,
            )
        return self._pool

    def save_artifact(self, path: str | os.PathLike | None = None) -> str:
        """Freeze every query this service has ever dispatched into one
        artifact file and return its path (default: the canonical
        ``<db_fingerprint>.rpaf`` inside ``artifact_dir``).

        A restarted service pointed at the same ``artifact_dir`` (or a
        pool handed the path) then warm-starts: stored queries are served
        off the file, bit-identical, with zero recompilation.  The freeze
        compiles the seen queries once in a throwaway engine on the
        shared base vtree — canonical SDDs make that reproduction exact —
        so no worker state is touched and the service keeps serving
        while it runs."""
        with self._lock:
            if not self._seen:
                raise ValueError("no queries dispatched yet; nothing to freeze")
            if path is None:
                path = self._artifact_path()
                if path is None:
                    raise ValueError(
                        "no path given and no artifact_dir configured"
                    )
            queries = list(self._seen.values())
            vtree = self.vtree
        engine = QueryEngine(self.db, vtree=vtree)
        for q in queries:
            engine.compile(q)
        engine.save_artifact(path)
        return os.fspath(path)

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    def apply_update(
        self, delta: UpdateDelta, *, drain_timeout: float = 30.0
    ) -> dict[str, int]:
        """Apply one database delta service-wide and return the merged
        counter increments.

        The protocol quiesces before touching any shared state: new
        submissions are rejected with :exc:`ServiceSaturated` (the usual
        backpressure signal — callers already know how to retry) while the
        admitted in-flight window drains to zero.  Then, under the service
        lock, the delta mutates the shared database, every answer-cache
        entry is dropped (they are keyed by the old database fingerprint,
        so they could never be *served* again — clearing just reclaims the
        memory and makes the staleness visible in ``cache_invalidated``),
        and the fingerprint is recomputed.  The pool broadcast happens
        *outside* the lock: completion callbacks take the lock on worker
        threads, and the control-message barrier must not deadlock against
        them.  The service keeps no vtree of its own: the pool holds the
        shared base vtree (the pinned ``vtree=``, else the artifact's,
        else the first query's hierarchy order) and grows it on insert, as
        :meth:`SddManager.add_variable` grows each worker's manager.  A
        pinned vtree builds the pool here if no query has yet, so that it
        grows there; an unpinned one is derived later from the updated
        database.

        Raises :exc:`TimeoutError` when in-flight queries do not drain
        within ``drain_timeout`` seconds.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._updating:
                raise RuntimeError("another update is already in progress")
            self._updating = True
        try:
            deadline = time.monotonic() + drain_timeout
            while True:
                with self._lock:
                    if self._admission.in_flight == 0:
                        break
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        "timed out draining in-flight queries before update"
                    )
                time.sleep(0.001)
            with self._lock:
                delta.apply(self.db)
                invalidated = len(self._cache)
                self._cache.clear()
                self._cache_invalidated += invalidated
                self._db_fp = self.db.fingerprint()
                self._updates_applied += 1
                # A pinned vtree grows in the pool, so build the pool now.
                pool = self._pool if self._pinned is None else self._ensure_pool(None)
            inc = (
                {"updates_applied": 1, "memo_invalidations": 0,
                 "delta_patched_roots": 0, "update_recompiles": 0}
                if pool is None else pool.apply_update(delta)
            )
            return {**inc, "cache_invalidated": invalidated}
        finally:
            with self._lock:
                self._updating = False

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    @property
    def vtree(self) -> Vtree | None:
        """The shared base vtree, read from the pool once it is built: the
        pinned ``vtree=``, else the warm-start artifact's vtree, else the
        first query's hierarchy order, grown on insert only by the pool
        and :meth:`SddManager.add_variable`.  Before the pool exists it is
        the pinned ``vtree=`` (or ``None``)."""
        pool = self._pool
        return self._pinned if pool is None else pool.vtree

    @property
    def pool(self) -> WorkerPool | None:
        """The underlying worker pool (``None`` until the first batch)."""
        return self._pool

    def close(self) -> None:
        """Refuse new submissions and shut the pool down (idempotent; any
        in-flight queries are failed by the pool, and fallbacks already
        queued still answer)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, fallbacks = self._pool, self._fallbacks
        if pool is not None:
            pool.close()
        if fallbacks is not None:
            fallbacks.shutdown(wait=False)  # queued fallbacks still answer

    def shutdown(self, drain_timeout: float = 30.0) -> bool:
        """Graceful :meth:`close`: refuse new submissions (with the usual
        :exc:`ServiceSaturated` backpressure signal, so load balancers
        retry elsewhere), wait up to ``drain_timeout`` seconds for the
        admitted in-flight queries to finish, then close the pool.

        Returns ``True`` when the in-flight window drained fully — every
        admitted query got its answer — and ``False`` when the timeout
        cut the drain short (stragglers are then failed by the pool with
        :exc:`~repro.service.errors.PoolClosed`, never stranded).
        Idempotent; callable from a signal handler's thread."""
        with self._lock:
            if self._closed:
                return True
            self._draining = True
        drained = False
        deadline = time.monotonic() + drain_timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self._admission.in_flight == 0:
                    drained = True
                    break
            time.sleep(0.005)
        self.close()
        return drained

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict[str, int | str]:
        """One merged counter dictionary for operators:

        - ``service_*`` — queries served, session count;
        - ``cache_*`` — the shared answer cache (hits / misses /
          evictions / entries / capacity);
        - ``admission_*`` — in-flight window and admit/reject totals;
        - ``pool_*`` — scheduler and lifecycle counters (including
          ``pool_steals``);
        - ``engine_*`` — the pool workers' own engine counters summed
          (:func:`~repro.service.pool.merge_stats`), so the
          per-engine compiled-query cache counters stay distinguishable
          from the service-level answer cache.
        """
        with self._lock:
            out: dict[str, int | str] = {
                "service_queries": self._queries_served,
                "service_sessions": len(self._sessions),
                "service_seen_queries": len(self._seen),
                "service_updates_applied": self._updates_applied,
                "service_cache_invalidated": self._cache_invalidated,
                "service_deadline_exceeded": self._deadline_exceeded,
                "service_degraded_answers": self._degraded_answers,
                "service_breaker_trips": self._breaker_trips,
                "service_draining": int(self._draining),
                "db_fingerprint": self._db_fp,
            }
            out.update(self._cache.stats())
            out.update(self._admission.stats())
            pool = self._pool
        if pool is not None:
            out.update(pool.stats())
            merged = merge_stats(pool.worker_stats().values())
            merged["tuples"] = self.db.size  # one shared database, not a sum
            out.update({f"engine_{k}": v for k, v in merged.items()})
        return out

    def session_stats(self) -> dict[str, dict[str, int]]:
        """Per-session ledgers: nodes used, quota, answered/rejected."""
        with self._lock:
            return {
                name: {
                    "max_nodes": 0 if s.max_nodes is None else s.max_nodes,
                    "nodes_used": s.nodes_used,
                    "queries_answered": s.queries_answered,
                    "queries_rejected": s.queries_rejected,
                }
                for name, s in self._sessions.items()
            }
