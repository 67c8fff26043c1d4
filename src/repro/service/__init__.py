"""The always-on query service tier (PR 7).

A long-lived front door over the query-compilation engines: persistent
warm worker pools (:mod:`~repro.service.pool`), admission control and
per-session quotas (:mod:`~repro.service.admission`), the typed
picklable error hierarchy and deadline token
(:mod:`~repro.service.errors`), worker supervision — bounded restarts,
poison-task quarantine (:mod:`~repro.service.supervisor`) — with
deterministic fault injection for chaos testing
(:mod:`~repro.service.faults`), and the session-multiplexing service
itself with its shared content-keyed answer cache and degradation
policy (:mod:`~repro.service.service`).  Answers are bit-identical to a
serial :class:`~repro.queries.engine.QueryEngine` for every worker
count, execution mode, steal schedule, and crash/replay schedule — and
no submitted future is ever stranded: each resolves with a value or a
typed :class:`~repro.service.errors.ServiceError`.

Public names resolve on first access (see :mod:`repro._lazy`), so the
engines' deadline path imports :mod:`~repro.service.errors` without
starting the pool, supervisor and service modules.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".admission": ("AdmissionController", "Session"),
    ".errors": (
        "AdmissionError",
        "Deadline",
        "DeadlineExceeded",
        "PoolClosed",
        "QuotaExceeded",
        "ServiceError",
        "ServiceSaturated",
        "TaskPoisoned",
        "WorkerRetired",
    ),
    ".faults": ("FaultPlan",),
    ".pool": ("TaskResult", "WorkerPool", "merge_stats", "shard_of"),
    ".service": ("QueryService", "ServiceAnswer"),
    ".supervisor": ("RestartPolicy", "Supervisor"),
})
