"""Persistent per-shard worker pools with work-stealing and supervision.

The execution substrate of the always-on service tier: ``workers``
long-lived :class:`~repro.queries.engine.QueryEngine` sessions — in-process
(``mode="threads"``) or in spawn-started child processes kept alive on a
task queue (``mode="spawn"``) — all sharing one read-only base vtree.
Interpreter start, imports, vtree transfer and cache warm-up are paid
once per worker: engines, hash-cons tables, apply caches, WMC memos, and
compiled-query caches all survive across batches and sessions.  The
service tier (:class:`~repro.service.QueryService`) runs on it; a
sharded batch is a ``QueryService(..., steal=False)`` submission.

The base vtree
--------------

The pool holds the one base vtree above its engines and hands it to
every engine it builds (threads engines, spawn payloads, restarts, and
engines built after an update dropped the artifact).  It resolves once:
the pinned ``vtree=``, else the artifact's stored vtree, else the first
query's hierarchy order (derived by the pool's callers).  On insert only
the pool and :meth:`~repro.sdd.manager.SddManager.add_variable` grow it,
by one rule: a new root over the old vtree and the new leaf.

Scheduling
----------

Tasks enter per-shard FIFO queues (shard = the deterministic
:func:`shard_of` assignment, so repeat queries
find the worker whose compiled-query cache already holds them).  Each
worker drains its own queue head-first; with ``steal=True`` an idle
worker takes from the **tail of the longest other queue** instead of
sleeping — classic work-stealing, so one skewed shard no longer bounds
batch latency by itself.

Supervision
-----------

Spawn children die: the OOM killer, a segfault in a future native
extension, an operator's stray ``kill``.  Each worker slot's feeder
thread detects death three ways — the send fails, the pipe EOFs, or the
child stops answering (``is_alive()`` false, or silent past
``hang_timeout``) — and then recovers instead of stranding the caller's
future: the child is restarted **warm** (the start payload is rebuilt
from the pool's *current* database and vtree, so post-update restarts
are correct, and artifact-backed pools re-mmap the same file) and the
in-flight task is **replayed** (queries are pure functions of the
database, so re-execution is always safe — and SDD canonicity keeps
replayed answers bit-identical).  Restarts are bounded per slot with
exponential backoff; a slot out of lives is *retired* and its
queue redistributed to survivors; a task that kills
``poison_threshold`` consecutive workers is quarantined with
:class:`~repro.service.errors.TaskPoisoned` instead of crash-looping
the pool (see :mod:`repro.service.supervisor` for the policy).  The
invariant the chaos suite enforces: **no future is ever stranded** —
every submitted task resolves with a value or a typed
:class:`~repro.service.errors.ServiceError`.

Fault injection (``fault_plan``) threads a deterministic
:class:`~repro.service.faults.FaultPlan` through both modes so the
recovery paths above are *tested*, not vestigial: the parent tags each
task message with a per-slot send ordinal and the plan's
``(worker, ordinal)`` entries fire exactly once each.

Deadlines
---------

``submit(..., timeout=...)`` gives one task a wall-clock budget starting
at submission (queue wait counts).  Enforcement is cooperative, at the
compilers' safepoints — per gate and per pairwise apply of a folded
chain in the apply pipeline — so a deadline never tears down a worker
mid-compile; the task fails with the typed
:class:`~repro.service.errors.DeadlineExceeded` and the worker (and its
warm caches) keep serving.  Spawn workers receive the *remaining*
seconds at send time, so parent/child clock bases never mix.

Determinism guarantee
---------------------

Stealing (and crash replay) moves *where* a query is evaluated, never
*what* it answers: every worker compiles against the same base vtree and
SDDs are canonical, so probabilities and sizes are bit-identical to
serial evaluation for every worker count, every steal schedule, and
every crash/replay schedule.
Results are reassembled by task id, so arrival order never leaks into
batch order.  What stealing *can* move is which worker's ``max_nodes``
budget a query is charged to — the same latitude the shard-local budgets
always had (it affects which queries each worker keeps compiled and
the per-worker counters, never answers).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from ..core.vtree import Vtree
from ..queries.database import ProbabilisticDatabase, UpdateDelta
from ..queries.engine import QueryEngine
from ..queries.syntax import UCQ
from .errors import Deadline, DeadlineExceeded, PoolClosed, TaskPoisoned, WorkerRetired
from .supervisor import RestartPolicy, Supervisor

__all__ = ["WorkerPool", "TaskResult", "merge_stats", "shard_of"]

# How often a feeder waiting on a spawn child's reply re-checks liveness,
# pool shutdown, and the hang clock.
_POLL_INTERVAL = 0.05


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


def merge_stats(worker_stats: Iterable[dict[str, int]]) -> dict[str, int]:
    """Per-worker engine counters summed key by key (every entry of
    :meth:`QueryEngine.stats` is a count)."""
    merged: dict[str, int] = {}
    for stats in worker_stats:
        for k, v in stats.items():
            merged[k] = merged.get(k, 0) + v
    return merged


@dataclass(frozen=True)
class TaskResult:
    """One evaluated query: the exact probability, the compiled size (at
    evaluation time), and which worker ran it."""

    probability: float | Fraction
    size: int
    worker: int


@dataclass
class _Task:
    query: UCQ | None
    exact: bool
    # Control tasks carry a message instead of a query — ("update", delta);
    # they are addressed to one specific worker and never stolen.
    control: tuple | None = None
    future: Future = field(default_factory=Future)
    # Wall-clock budget (starts at submission; queue wait counts).
    deadline: Deadline | None = None
    # Consecutive worker deaths with this task in flight (poison detector).
    kills: int = 0


class _WorkerDied(Exception):
    """Internal: worker ``w`` died (or was declared dead) mid-task; the
    feeder's supervision loop decides restart/retire/poison."""

    def __init__(self, worker: int, reason: str):
        self.worker = worker
        self.reason = reason
        super().__init__(f"worker {worker} died: {reason}")


class _PoolClosing(Exception):
    """Internal: the pool closed while a reply was pending; the feeder
    fails the task with :class:`PoolClosed` and exits."""


class _Scheduler:
    """Per-shard FIFO queues + the steal rule, under one condition var.

    ``get`` blocks until a task is available for ``worker`` (its own
    control queue first, then its own queue head, else — when stealing is
    on — the tail of the longest non-empty queue, smallest owner id
    breaking ties deterministically) or the pool closes (returns
    ``None``).  Control tasks live in separate per-worker queues because
    they must reach *that* worker's engine: stealing one would update a
    different worker twice and the target never.

    Retired workers (restart budget exhausted) stay out of the routing:
    ``put`` re-homes their shards onto live workers deterministically
    (``shard % len(live)``), and :meth:`retire` drains whatever was
    queued so the feeder can redistribute or fail it."""

    def __init__(self, workers: int, steal: bool):
        self._queues: list[deque[_Task]] = [deque() for _ in range(workers)]
        self._controls: list[deque[_Task]] = [deque() for _ in range(workers)]
        self._cond = threading.Condition()
        self._steal = steal
        self._closed = False
        self._retired: set[int] = set()
        self.steals = 0
        self.tasks_queued = 0

    def live(self) -> list[int]:
        with self._cond:
            return self._live_locked()

    def _live_locked(self) -> list[int]:
        return [w for w in range(len(self._queues)) if w not in self._retired]

    def put(self, shard: int, task: _Task) -> None:
        with self._cond:
            if self._closed:
                raise PoolClosed()
            w = shard % len(self._queues)
            if w in self._retired:
                live = self._live_locked()
                if not live:
                    raise PoolClosed("every worker is retired")
                w = live[shard % len(live)]
            self._queues[w].append(task)
            self.tasks_queued += 1
            self._cond.notify_all()

    def put_front(self, worker: int, task: _Task) -> None:
        """Requeue at the head of ``worker``'s queue (replayed or
        redistributed work runs before anything queued after it)."""
        with self._cond:
            if self._closed:
                raise PoolClosed()
            self._queues[worker].appendleft(task)
            self._cond.notify_all()

    def put_control(self, worker: int, task: _Task) -> None:
        with self._cond:
            if self._closed:
                raise PoolClosed()
            self._controls[worker].append(task)
            self._cond.notify_all()

    def get(self, worker: int) -> _Task | None:
        with self._cond:
            while True:
                if self._closed:
                    return None
                control = self._controls[worker]
                if control:
                    return control.popleft()
                own = self._queues[worker]
                if own:
                    return own.popleft()
                if self._steal:
                    victim = max(
                        (w for w, q in enumerate(self._queues) if q and w != worker),
                        key=lambda w: (len(self._queues[w]), -w),
                        default=None,
                    )
                    if victim is not None:
                        self.steals += 1
                        return self._queues[victim].pop()
                self._cond.wait()

    def retire(self, worker: int) -> list[_Task]:
        """Take ``worker`` out of routing; returns its queued tasks (the
        caller redistributes them)."""
        with self._cond:
            self._retired.add(worker)
            leftovers = list(self._queues[worker])
            leftovers.extend(self._controls[worker])
            self._queues[worker].clear()
            self._controls[worker].clear()
            self._cond.notify_all()
            return leftovers

    def close(self) -> list[_Task]:
        """Close the intake and return (to fail) any still-queued tasks."""
        with self._cond:
            self._closed = True
            leftovers = [t for q in self._queues for t in q]
            leftovers.extend(t for q in self._controls for t in q)
            for q in self._queues:
                q.clear()
            for q in self._controls:
                q.clear()
            self._cond.notify_all()
            return leftovers


def _pool_worker_main(conn, payload) -> None:
    """A spawn worker's whole life (top-level so the child can import it):
    build one warm engine, then serve tasks off the pipe until the ``None``
    sentinel.  Engine state — vtree, manager, caches — persists across
    every task and batch the parent ever sends.

    Task messages arrive as ``("task", query, exact, ordinal, timeout)``
    where ``ordinal`` is the parent-side send counter for this worker
    slot (the fault plan's address) and ``timeout`` is the task's
    *remaining* deadline budget in seconds (``None`` = unbounded) —
    shipped as a duration so parent and child monotonic clocks never mix.
    Failures inside a task are shipped back *as exception objects* when
    they pickle (the typed hierarchy in :mod:`repro.service.errors`
    does), falling back to ``repr`` for foreign types, and never kill
    the worker."""
    db, vtree_ops, max_nodes, artifact_path, worker_id, plan = payload
    engine = QueryEngine(
        db,
        vtree=Vtree.from_postfix(vtree_ops),
        max_nodes=max_nodes,
        frozen=artifact_path,
    )
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            try:
                if msg[0] == "update":
                    # The child owns its private database copy (pickled at
                    # start); the delta replays the parent's mutation here,
                    # and the engine delta-patches its warm caches.  A
                    # *restarted* child was built from the already-updated
                    # database, so the version gate makes this a no-op.
                    inc = engine.apply_update(msg[1])
                    conn.send(("ok", inc, 0, engine.stats()))
                    continue
                query, exact, ordinal, timeout = msg[1], msg[2], msg[3], msg[4]
                if plan is not None:
                    if plan.hang(worker_id, ordinal):
                        time.sleep(86400)  # wedged; only terminate() clears
                    if plan.kill_before(worker_id, ordinal):
                        import os

                        os._exit(1)  # crash mid-task, before any work
                    d = plan.delay(worker_id, ordinal)
                    if d:
                        time.sleep(d)
                p = engine.probability(query, exact=exact, timeout=timeout)
                size = engine.compiled_size(query)  # just answered: present
                if plan is not None:
                    if plan.kill_after(worker_id, ordinal):
                        import os

                        os._exit(1)  # crash after the work, before the reply
                    if plan.corrupt_reply(worker_id, ordinal):
                        conn.send(("garbage", ordinal))
                        continue
                    if plan.drop_reply(worker_id, ordinal):
                        continue  # computed, never replied: a wedged child
                conn.send(("ok", p, size, engine.stats()))
            except Exception as exc:  # surface, don't kill the worker
                try:
                    conn.send(("err", exc, 0, engine.stats()))
                except Exception:
                    # Unpicklable exception: Connection.send serializes
                    # before writing, so nothing went over the wire — fall
                    # back to the repr.
                    conn.send(("err", repr(exc), 0, engine.stats()))
    except (EOFError, KeyboardInterrupt):  # parent died / interrupted
        pass
    finally:
        conn.close()


class WorkerPool:
    """``workers`` persistent warm engines behind a work-stealing,
    supervised scheduler.

    ``mode="threads"`` keeps each engine on an in-process worker thread;
    ``mode="spawn"`` keeps each engine in a long-lived spawn-started child
    process fed one task at a time over a pipe by a parent-side feeder
    thread (both modes share the scheduler, so stealing and determinism
    behave identically).  The pool starts lazily on the first
    :meth:`submit` and must eventually be :meth:`close`\\ d (workers are
    daemons, so a forgotten pool cannot hang interpreter exit).

    ``vtree`` is the shared base vtree (required unless ``artifact``
    supplies it), so every worker compiles canonically against the same
    decomposition.  ``max_nodes`` is the per-worker session budget: each
    engine evicts and collects shard-locally.

    ``artifact`` warm-starts every worker from a compiled artifact base
    (a path written by :meth:`QueryEngine.save_artifact`, or a loaded
    :class:`~repro.artifact.store.FrozenSdd`): workers answer stored
    queries straight off the artifact with no per-worker recompilation.
    In spawn mode only the *path* is shipped in the start payload —
    every child mmaps the same file, so the OS shares the pages — which
    is why spawn pools need a file-backed artifact, not an in-memory
    freeze.  The artifact also supplies the shared base vtree when
    ``vtree`` is ``None`` (read once, into :attr:`vtree`), so queries
    outside the base compile canonically in every worker.

    Fault tolerance knobs: ``restart`` is the
    :class:`~repro.service.supervisor.RestartPolicy` (restart caps,
    backoff, poison threshold); ``hang_timeout`` declares a spawn child
    dead after that many seconds of reply silence (``None`` — the
    default — trusts ``is_alive()`` alone, so a merely-slow compile is
    never shot); ``fault_plan`` injects a deterministic
    :class:`~repro.service.faults.FaultPlan` for chaos testing.
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        *,
        workers: int,
        vtree: Vtree | None = None,
        max_nodes: int | None = None,
        mode: str = "threads",
        steal: bool = True,
        artifact=None,
        restart: RestartPolicy | None = None,
        hang_timeout: float | None = None,
        fault_plan=None,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if mode not in ("threads", "spawn"):
            raise ValueError(f"unknown mode {mode!r} (threads or spawn)")
        if vtree is None and artifact is None:
            raise ValueError("the pool needs a shared base vtree")
        self._artifact_obj = None
        self._artifact_path = None
        # The store _threads_frozen loaded from the artifact path: the
        # pool's to close, once no built engine reads it any more.
        self._loaded_store = None
        if artifact is not None:
            if hasattr(artifact, "root_named"):
                self._artifact_obj = artifact
                backing = getattr(artifact, "_artifact", None)
                self._artifact_path = getattr(backing, "path", None)
            else:
                import os

                self._artifact_path = os.fspath(artifact)
        if mode == "spawn" and artifact is not None and self._artifact_path is None:
            raise ValueError(
                "spawn pools ship artifact paths to their children; pass a "
                "file path (or a FrozenSdd loaded from one), not an "
                "in-memory freeze"
            )
        if vtree is None and artifact is not None:
            # Read once: engines built after an update drops the artifact
            # must still compile on the vtree the warm ones use.
            if self._artifact_obj is not None:
                vtree = self._artifact_obj.vtree()
            else:
                from contextlib import closing

                from ..artifact.store import FrozenSdd

                with closing(FrozenSdd.load(self._artifact_path)) as store:
                    vtree = store.vtree()
        self.db = db
        self.workers = workers
        self.vtree = vtree
        self.max_nodes = max_nodes
        self.mode = mode
        self.steal = steal
        self.hang_timeout = hang_timeout
        self.fault_plan = fault_plan
        self.batches_served = 0
        self.tasks_served = 0
        self.updates_applied = 0
        self.tasks_replayed = 0
        self.deadline_exceeded = 0
        self._supervisor = Supervisor(workers, restart)
        self._scheduler = _Scheduler(workers, steal)
        self._threads: list[threading.Thread] = []
        self._engines: dict[int, QueryEngine] = {}
        self._procs: list = []
        self._conns: list = []
        self._sent = [0] * workers  # per-slot task-send ordinals
        self._suspect_hung: set[int] = set()
        self._spawn_stats: dict[int, dict[str, int]] = {}
        self._started = False
        self._closed = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Start the workers (idempotent; :meth:`submit` calls it)."""
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise PoolClosed()
            if self.mode == "spawn":
                self._start_spawn_workers()
            for w in range(self.workers):
                t = threading.Thread(
                    target=self._worker_loop,
                    args=(w,),
                    name=f"repro-pool-{self.mode}-{w}",
                    daemon=True,
                )
                t.start()
                self._threads.append(t)
            self._started = True
            return self

    def _spawn_payload(self, worker: int):
        """The start payload for one spawn child, built from the pool's
        *current* state — a restart after live updates ships the mutated
        database and grown vtree, so version-gated delta replays are
        no-ops and answers stay current."""
        return (
            self.db,
            self.vtree.to_postfix(),
            self.max_nodes,
            self._artifact_path,
            worker,
            self.fault_plan,
        )

    def _spawn_one(self, worker: int):
        from multiprocessing import get_context

        ctx = get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self._spawn_payload(worker)),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _start_spawn_workers(self) -> None:
        for w in range(self.workers):
            proc, conn = self._spawn_one(w)
            self._procs.append(proc)
            self._conns.append(conn)

    def _restart_worker(self, w: int) -> bool:
        """Replace worker ``w`` with a fresh warm one; ``False`` if the
        pool is closing (the feeder then retires instead)."""
        if self._closed:
            return False
        if self.mode == "threads":
            # The fault hook (or the caller) already discarded the warm
            # engine; the next task lazily builds a fresh one against the
            # current shared database.
            self._engines.pop(w, None)
            return True
        old = self._procs[w]
        if old.is_alive():
            old.terminate()
        old.join(timeout=5)
        try:
            self._conns[w].close()
        except OSError:  # pragma: no cover - already torn down
            pass
        proc, conn = self._spawn_one(w)
        self._procs[w] = proc
        self._conns[w] = conn
        return True

    def close(self) -> None:
        """Shut the pool down: fail queued tasks with :class:`PoolClosed`,
        stop worker threads (feeders waiting on a child reply observe the
        closed flag, fail their in-flight task, and exit), and terminate
        spawn children — sentinel first, ``terminate()`` as the backstop
        for children that are mid-task or wedged.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for task in self._scheduler.close():
            task.future.set_exception(PoolClosed("pool closed"))
        for t in self._threads:
            t.join(timeout=30)
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for w, proc in enumerate(self._procs):
            # A worker whose feeder abandoned a pending reply is likely
            # wedged mid-task; don't grant it the polite drain window.
            proc.join(timeout=0.5 if w in self._suspect_hung else 10)
            if proc.is_alive():  # hung worker backstop
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._close_loaded_store()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # work
    # ------------------------------------------------------------------
    def submit(
        self,
        shard: int,
        query: UCQ,
        *,
        exact: bool = False,
        timeout: float | None = None,
    ) -> Future:
        """Enqueue one query on ``shard``'s queue; returns a
        :class:`concurrent.futures.Future` resolving to a
        :class:`TaskResult`.  ``timeout`` bounds the task's wall clock
        from this moment (queue wait counts; enforcement is cooperative
        at the compilation safepoints, failing the future with
        :class:`DeadlineExceeded`).  Thread-safe; callable from any
        thread (the service's asyncio loop wraps the future)."""
        if not self._started:
            self.start()
        task = _Task(
            query=query,
            exact=exact,
            deadline=None if timeout is None else Deadline(timeout),
        )
        self._scheduler.put(shard % self.workers, task)
        return task.future

    def run_batch(
        self,
        items_per_shard: dict[int, list[tuple[int, UCQ]]],
        *,
        exact: bool = False,
        timeout: float | None = None,
    ) -> dict[int, TaskResult]:
        """Evaluate one batch (``shard -> [(batch_index, query), ...]``)
        and block until every task resolves; returns ``batch_index ->
        TaskResult``.  Queries keep their per-shard order, so a worker
        that never steals sees exactly the serial LRU sequence of its
        shard.  ``timeout`` grants each task its own budget (per task,
        not per batch)."""
        futures: dict[int, Future] = {}
        for shard in sorted(items_per_shard):
            for idx, query in items_per_shard[shard]:
                futures[idx] = self.submit(shard, query, exact=exact, timeout=timeout)
        results = {idx: f.result() for idx, f in futures.items()}
        self.batches_served += 1
        return results

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    def apply_update(self, delta: UpdateDelta) -> dict[str, int]:
        """Broadcast one database delta to every live warm worker and
        block until all have applied it.

        The shared database is mutated once (version-gated; a caller like
        :class:`~repro.service.QueryService` has already applied it), the
        shared base vtree grows an inserted tuple's
        leaf the way :meth:`SddManager.add_variable` grows each worker's
        (no other layer grows it), and one control
        message per worker rides the per-worker control queues — threads
        workers patch their live engine, spawn children replay the delta
        on their private database copy over the pipe.  Any update also
        drops the warm-start artifact for engines *not yet built*: the
        artifact answers for the instance it was compiled against, and a
        lazily constructed engine must not warm-start from a stale one
        (already-built engines keep their frozen base across weight-only
        updates — their own :meth:`QueryEngine.apply_update` refreshes
        its weights).  An insert or delete makes every built engine drop
        it too, so the store the pool loaded is closed then; otherwise
        :meth:`close` closes it.

        Must not run concurrently with an in-flight batch on the same
        shard queues — the service tier quiesces before calling this.
        Returns the merged counter increments across workers
        (``updates_applied`` counts this call once).
        """
        delta.apply(self.db)
        if (
            delta.kind == "insert"
            and delta.var not in self.vtree.variables
        ):
            # SddManager.add_variable's rule: a new root over old and leaf.
            self.vtree = Vtree.internal_trusted(self.vtree, Vtree.leaf(delta.var))
        self._artifact_obj = None
        self._artifact_path = None
        self.updates_applied += 1
        merged = {
            "updates_applied": 1,
            "memo_invalidations": 0,
            "delta_patched_roots": 0,
            "update_recompiles": 0,
        }
        if not self._started:
            # No warm state anywhere: threads engines don't exist yet and
            # spawn children pickle the database at start().
            return merged
        tasks = []
        for w in self._scheduler.live():
            task = _Task(query=None, exact=False, control=("update", delta))
            self._scheduler.put_control(w, task)
            tasks.append(task)
        for task in tasks:
            inc = task.future.result()
            for key in ("memo_invalidations", "delta_patched_roots", "update_recompiles"):
                merged[key] += inc.get(key, 0)
        if delta.kind != "weight":
            # Every built engine dropped its frozen base with this delta.
            self._close_loaded_store()
        return merged

    # ------------------------------------------------------------------
    # execution backends
    # ------------------------------------------------------------------
    def _threads_frozen(self):
        """The shared in-process :class:`FrozenSdd` base (loaded once, all
        threads workers read the same immutable tables); ``None`` without
        a warm-start artifact."""
        if self._artifact_obj is None and self._artifact_path is not None:
            with self._lock:
                if self._artifact_obj is None:
                    from ..artifact.store import FrozenSdd

                    self._artifact_obj = FrozenSdd.load(self._artifact_path)
                    self._loaded_store = self._artifact_obj
        return self._artifact_obj

    def _close_loaded_store(self) -> None:
        store, self._loaded_store = self._loaded_store, None
        if store is not None:
            store.close()

    def _worker_loop(self, w: int) -> None:
        while True:
            task = self._scheduler.get(w)
            if task is None:
                return
            if not self._run_task(w, task):
                return  # slot retired (or pool closing): feeder exits

    def _run_task(self, w: int, task: _Task) -> bool:
        """Run one task to *resolution* — value or typed error on its
        future, surviving worker deaths by restart-and-replay.  Returns
        ``False`` when the feeder must exit (slot retired / pool closed).
        """
        while True:
            if task.deadline is not None and task.deadline.expired():
                # Expired while queued: fail fast, never occupy the worker.
                self.deadline_exceeded += 1
                task.future.set_exception(
                    DeadlineExceeded(task.deadline.timeout, "queue wait")
                )
                return True
            try:
                result = self._execute(w, task)
            except _PoolClosing:
                task.future.set_exception(
                    PoolClosed("pool closed while the task was in flight")
                )
                return False
            except _WorkerDied:
                task.kills += 1
                verdict = self._supervisor.on_death(w, task.kills)
                if verdict.poison:
                    task.future.set_exception(
                        TaskPoisoned(str(task.control or task.query), task.kills)
                    )
                    if verdict.also_restart:
                        time.sleep(verdict.backoff)
                        if self._restart_worker(w):
                            return True
                        self._supervisor.note_retired()
                    self._retire(w, None)
                    return False
                if verdict.retire:
                    self._retire(w, task)
                    return False
                time.sleep(verdict.backoff)
                if not self._restart_worker(w):
                    self._retire(w, task)
                    return False
                self.tasks_replayed += 1
                continue  # replay the same task on the fresh worker
            except DeadlineExceeded as exc:
                self.deadline_exceeded += 1
                task.future.set_exception(exc)
                return True
            except BaseException as exc:  # noqa: BLE001 - routed to waiter
                task.future.set_exception(exc)
                return True
            else:
                if task.control is None:
                    self.tasks_served += 1
                task.future.set_result(result)
                return True

    def _retire(self, w: int, in_flight: _Task | None) -> None:
        """Take slot ``w`` out of service and rehome its work: queued
        tasks (and the in-flight one, first) move to the head of live
        workers' queues round-robin; control tasks resolve as no-ops (a
        dead worker has no warm state to patch, and its replacement —
        were one ever spawned — would start from the current database);
        with no live worker left, futures fail with
        :class:`WorkerRetired`."""
        leftovers = self._scheduler.retire(w)
        if in_flight is not None:
            leftovers.insert(0, in_flight)
        live = self._scheduler.live()
        for i, t in enumerate(leftovers):
            if t.control is not None:
                t.future.set_result({"updates_applied": 0})
            elif live:
                try:
                    self._scheduler.put_front(live[i % len(live)], t)
                except PoolClosed as exc:  # raced a concurrent close()
                    t.future.set_exception(exc)
            else:
                t.future.set_exception(
                    WorkerRetired(w, self._supervisor.restarts[w])
                )

    def _next_ordinal(self, w: int) -> int:
        # Only feeder w touches slot w's counter, so no lock.  Replays
        # get fresh ordinals — a planned fault fires at most once.
        o = self._sent[w]
        self._sent[w] = o + 1
        return o

    def _execute(self, w: int, task: _Task):
        if task.control is not None:
            return self._execute_control(w, task.control)
        if self.mode == "threads":
            return self._execute_threads(w, task)
        return self._execute_spawn(w, task)

    def _execute_threads(self, w: int, task: _Task):
        plan = self.fault_plan
        ordinal = self._next_ordinal(w) if plan is not None else -1
        if plan is not None:
            # Threads analogue of a child crash: the warm engine (vtree
            # caches, WMC memos, compiled queries) is lost and the task
            # must be replayed on a fresh one.  ``hang`` maps here too —
            # there is no process to wedge in-process.
            if plan.kill_before(w, ordinal) or plan.hang(w, ordinal):
                self._engines.pop(w, None)
                raise _WorkerDied(w, f"injected kill before task (ordinal {ordinal})")
            d = plan.delay(w, ordinal)
            if d:
                time.sleep(d)
        engine = self._engines.get(w)
        if engine is None:
            # Lazily built, used only by worker thread w — no locking
            # (the shared FrozenSdd is immutable; each engine keeps its
            # own WMC memo over it).
            engine = QueryEngine(
                self.db,
                vtree=self.vtree,
                max_nodes=self.max_nodes,
                frozen=self._threads_frozen(),
            )
            self._engines[w] = engine
        p = engine.probability(task.query, exact=task.exact, deadline=task.deadline)
        size = engine.compiled_size(task.query)  # just answered: present
        if plan is not None and (
            plan.kill_after(w, ordinal)
            or plan.drop_reply(w, ordinal)
            or plan.corrupt_reply(w, ordinal)
        ):
            # Work done, "reply" lost: same observable outcome as a spawn
            # child dying after compute — replay on a fresh engine.
            self._engines.pop(w, None)
            raise _WorkerDied(w, f"injected kill after task (ordinal {ordinal})")
        return TaskResult(probability=p, size=size, worker=w)

    def _execute_spawn(self, w: int, task: _Task):
        # Round-trip through worker w's pipe (feeder thread w is the only
        # user of conns[w], so no pipe-level locking).
        remaining = None
        if task.deadline is not None:
            remaining = task.deadline.remaining()
            if remaining <= 0:
                raise DeadlineExceeded(task.deadline.timeout, "queue wait")
        ordinal = self._next_ordinal(w)
        msg = ("task", task.query, task.exact, ordinal, remaining)
        status, p, size, stats = self._spawn_call(w, msg)
        self._spawn_stats[w] = stats
        if status != "ok":
            if isinstance(p, BaseException):
                raise p
            raise RuntimeError(f"spawn worker {w} failed: {p}")
        return TaskResult(probability=p, size=size, worker=w)

    def _execute_control(self, w: int, msg: tuple):
        """Run one control message, ``("update", delta)``, on worker ``w``
        and return its counter increments."""
        if self.mode == "threads":
            engine = self._engines.get(w)
            if engine is None:
                # Never built: it will be constructed lazily against the
                # already-updated shared database — nothing to patch.
                return {"updates_applied": 0}
            return engine.apply_update(msg[1])
        status, out, _size, stats = self._spawn_call(w, msg)
        self._spawn_stats[w] = stats
        if status != "ok":
            if isinstance(out, BaseException):
                raise out
            raise RuntimeError(f"spawn worker {w} failed on {msg[0]!r}: {out}")
        return out

    def _spawn_call(self, w: int, msg):
        """Send one message to spawn worker ``w`` and await its reply,
        converting every inter-process failure mode into
        :class:`_WorkerDied` (send failed / child exited / pipe EOF /
        reply silent past ``hang_timeout`` / malformed reply) or
        :class:`_PoolClosing` (pool shut down mid-wait)."""
        conn = self._conns[w]
        proc = self._procs[w]
        try:
            conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerDied(w, f"send failed: {exc!r}")
        waited = 0.0
        while True:
            try:
                ready = conn.poll(_POLL_INTERVAL)
            except (BrokenPipeError, OSError) as exc:
                raise _WorkerDied(w, f"pipe lost: {exc!r}")
            if ready:
                try:
                    reply = conn.recv()
                except (EOFError, OSError) as exc:
                    raise _WorkerDied(w, f"died mid-reply: {exc!r}")
                if (
                    not isinstance(reply, tuple)
                    or len(reply) != 4
                    or reply[0] not in ("ok", "err")
                ):
                    # Protocol corruption: the child's pipe framing can no
                    # longer be trusted — declare it dead and replace it.
                    proc.terminate()
                    proc.join(timeout=5)
                    raise _WorkerDied(w, f"corrupt reply: {reply!r:.60}")
                return reply
            if self._closed:
                self._suspect_hung.add(w)
                raise _PoolClosing()
            if not proc.is_alive():
                # One last drain: the child may have replied, then exited.
                if conn.poll(0):
                    continue
                raise _WorkerDied(w, f"exited with code {proc.exitcode}")
            waited += _POLL_INTERVAL
            if self.hang_timeout is not None and waited >= self.hang_timeout:
                proc.terminate()
                proc.join(timeout=5)
                raise _WorkerDied(w, f"silent for {waited:.2f}s (hung)")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def engines(self) -> dict[int, QueryEngine]:
        """The live per-worker engines (threads mode; spawn engines live
        in their child processes)."""
        return dict(self._engines)

    def worker_pids(self) -> list[int]:
        """Spawn worker process ids (stable across batches — that is the
        point — but a supervised restart does mint a new pid for the
        replaced slot); empty in threads mode."""
        return [p.pid for p in self._procs]

    def worker_stats(self) -> dict[int, dict[str, int]]:
        """Per-worker engine ``stats()`` — live for threads workers, the
        snapshot piggybacked on each result for spawn workers."""
        if self.mode == "threads":
            return {w: e.stats() for w, e in self._engines.items()}
        return dict(self._spawn_stats)

    def stats(self) -> dict[str, int]:
        """Pool-level counters (scheduler + lifecycle + supervision;
        per-engine counters live in :meth:`worker_stats`)."""
        out: dict[str, int] = {
            "pool_mode": self.mode,
            "pool_workers": self.workers,
            "pool_live_workers": len(self._scheduler.live()),
            "pool_started": int(self._started),
            "pool_batches_served": self.batches_served,
            "pool_tasks_served": self.tasks_served,
            "pool_tasks_queued": self._scheduler.tasks_queued,
            "pool_steals": self._scheduler.steals,
            "pool_updates_applied": self.updates_applied,
            "pool_tasks_replayed": self.tasks_replayed,
            "pool_deadline_exceeded": self.deadline_exceeded,
            "pool_artifact_warm": int(
                self._artifact_obj is not None or self._artifact_path is not None
            ),
        }
        out.update(self._supervisor.stats())
        return out
