"""The service tier's typed, picklable error hierarchy.

Every failure a caller can observe through the service stack is a
:class:`ServiceError` subclass carrying structured fields — not a bare
``RuntimeError`` with a formatted string.  Two properties matter:

- **Typed**: callers branch on the class (`ServiceSaturated` → back off
  and retry, `QuotaExceeded` → stop submitting, `DeadlineExceeded` →
  degrade, `TaskPoisoned` → drop the query, `PoolClosed` → reconnect),
  and the structured fields (``retry_after``, ``timeout``, ``kills``)
  feed retry policies without parsing messages.
- **Picklable**: results cross the spawn-worker pipe as pickles, so an
  exception raised inside a child must survive a pickle round trip *as
  itself* — same type, same fields, same message — or the parent would
  be reduced to wrapping ``repr(exc)`` in a ``RuntimeError`` (exactly
  what the pool's error transport falls back to for foreign exception
  types that do not unpickle cleanly).  Subclasses with non-trivial
  constructors define ``__reduce__`` so the default
  ``cls(*args)``-reconstruction never sees a pre-formatted message.

``ServiceSaturated`` and ``QuotaExceeded`` predate this module (PR 7's
``repro.service.admission``); they keep their ``AdmissionError`` base —
now itself a :class:`ServiceError` — and their import paths
(:mod:`repro.service.admission` re-exports them), so existing callers
are untouched.  ``PoolClosed`` additionally subclasses ``RuntimeError``
because submitting to a closed pool historically raised that.
"""

from __future__ import annotations

import time

__all__ = [
    "Deadline",
    "ServiceError",
    "AdmissionError",
    "ServiceSaturated",
    "QuotaExceeded",
    "DeadlineExceeded",
    "TaskPoisoned",
    "PoolClosed",
    "WorkerRetired",
]


class Deadline:
    """A wall-clock budget: ``timeout`` seconds from construction.

    The cooperative cancellation token of the deadline machinery: the
    query tiers construct one per query, and the compilers call
    :meth:`check` at their safepoints (between gates in
    :meth:`~repro.sdd.manager.SddManager.compile_circuit` and its
    pairwise folds, between bags and every 256 states inside a bag in
    :func:`~repro.dnnf.builder.build_ddnnf`) and between the eliminations
    of the tree decomposition the d-DNNF builder starts from.  The
    compilers never import
    this module — they only call ``deadline.check(where)`` on whatever
    object was passed down, and *it* raises the typed error.

    ``clock`` injects a deterministic time source for tests (it is read
    once here and the same callable is used for every later check).
    """

    __slots__ = ("timeout", "at", "_clock")

    def __init__(self, timeout: float, *, clock=time.monotonic):
        if timeout < 0:
            raise ValueError("timeout must be non-negative")
        self.timeout = timeout
        self._clock = clock
        self.at = clock() + timeout

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.at - self._clock()

    def expired(self) -> bool:
        return self._clock() > self.at

    def check(self, where: str = "compile") -> None:
        """Raise :exc:`DeadlineExceeded` if the budget is spent."""
        if self._clock() > self.at:
            raise DeadlineExceeded(self.timeout, where)


class ServiceError(Exception):
    """Base of every typed failure the service stack raises."""


class AdmissionError(ServiceError):
    """Base class for admission rejections (saturation and quotas)."""


class ServiceSaturated(AdmissionError):
    """The in-flight bound is reached; retry after ``retry_after`` seconds."""

    def __init__(self, in_flight: int, max_in_flight: int, retry_after: float):
        self.in_flight = in_flight
        self.max_in_flight = max_in_flight
        self.retry_after = retry_after
        super().__init__(
            f"service saturated ({in_flight}/{max_in_flight} queries in "
            f"flight); retry after {retry_after:g}s"
        )

    def __reduce__(self):
        return (type(self), (self.in_flight, self.max_in_flight, self.retry_after))


class QuotaExceeded(AdmissionError):
    """The session spent its compiled-node budget."""

    def __init__(self, session: str, nodes_used: int, max_nodes: int):
        self.session = session
        self.nodes_used = nodes_used
        self.max_nodes = max_nodes
        super().__init__(
            f"session {session!r} exceeded its node quota "
            f"({nodes_used}/{max_nodes} compiled nodes used)"
        )

    def __reduce__(self):
        return (type(self), (self.session, self.nodes_used, self.max_nodes))


class DeadlineExceeded(ServiceError):
    """A query's wall-clock deadline expired mid-work.

    Raised cooperatively at the compilation safepoints (between gates in
    the apply pipeline, between and inside bags in the d-DNNF builder,
    between eliminations of its tree decomposition) and before
    dispatching a task whose deadline already passed while it sat in a
    queue.
    ``timeout`` is the budget that was granted (seconds); ``where``
    names the stage that noticed."""

    def __init__(self, timeout: float, where: str = "compile"):
        self.timeout = timeout
        self.where = where
        super().__init__(f"deadline of {timeout:g}s exceeded during {where}")

    def __reduce__(self):
        return (type(self), (self.timeout, self.where))


class TaskPoisoned(ServiceError):
    """One task killed ``kills`` consecutive workers; it is quarantined.

    The supervisor restarts crashed workers and replays their in-flight
    task (queries are pure functions of the database, so re-execution is
    always safe) — but a task that keeps killing fresh workers would
    crash-loop the pool forever.  After ``kills`` consecutive worker
    deaths with the same task in flight, the task's future gets this
    error instead of another replay, and the pool keeps serving
    everything else."""

    def __init__(self, task: str, kills: int):
        self.task = task
        self.kills = kills
        super().__init__(
            f"task {task!r} killed {kills} consecutive workers; quarantined"
        )

    def __reduce__(self):
        return (type(self), (self.task, self.kills))


class PoolClosed(ServiceError, RuntimeError):
    """The pool (or service) is closed; the work was not executed.

    Also a ``RuntimeError`` for backwards compatibility — closed-pool
    submission has raised that since PR 7."""

    def __init__(self, what: str = "pool is closed"):
        self.what = what
        super().__init__(what)

    def __reduce__(self):
        return (type(self), (self.what,))


class WorkerRetired(ServiceError):
    """A worker exhausted its restart budget and was retired.

    Raised only when the work could not be rehomed — every live worker is
    gone.  While any worker survives, a retired worker's queue is
    redistributed instead and callers never see this."""

    def __init__(self, worker: int, restarts: int):
        self.worker = worker
        self.restarts = restarts
        super().__init__(
            f"worker {worker} retired after {restarts} restarts and no "
            f"live workers remain"
        )

    def __reduce__(self):
        return (type(self), (self.worker, self.restarts))
