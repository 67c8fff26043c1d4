"""Admission control for the service tier: in-flight bounds and quotas.

Two independent guards stand between a submitted batch and the worker
pool:

- **Saturation** (:class:`AdmissionController`): the service admits at
  most ``max_in_flight`` queries at a time, all-or-nothing per batch.
  Beyond that it *rejects* with :exc:`ServiceSaturated` carrying a
  ``retry_after`` hint instead of queueing unboundedly — bounded memory,
  and the caller (not the service) owns the retry policy.  Backpressure
  by refusal, not by silent latency.
- **Quotas** (:class:`Session`): each session carries a ``max_nodes``
  budget; every answered query charges its compiled size (at evaluation
  time) against it.  A session at or over budget gets
  :exc:`QuotaExceeded` on its next submit.  Compiled sizes are canonical
  (same query + database ⇒ same SDD size on every worker, all sharing
  one base vtree), so the charge — and therefore the exact submission at
  which a session starts being rejected — is deterministic, independent
  of worker count or steal schedule.  A degraded answer (computed on the
  query's own vtree after repeated deadline misses) charges that
  engine's size instead, and holds its in-flight slot until it is in.

Everything here is plain bookkeeping under the service's lock; no
threading primitives of its own.  The exception types live in
:mod:`repro.service.errors` (the consolidated picklable hierarchy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import QuotaExceeded, ServiceSaturated

__all__ = ["AdmissionController", "Session"]


@dataclass
class Session:
    """Per-session quota ledger.

    ``max_nodes=None`` means unmetered.  ``nodes_used`` accumulates the
    compiled size of every query answered for the session (cache hits
    included — a hit is still an answer the session consumed)."""

    name: str
    max_nodes: int | None = None
    nodes_used: int = 0
    queries_answered: int = 0
    queries_rejected: int = 0

    def check(self) -> None:
        """Raise :exc:`QuotaExceeded` if the budget is already spent."""
        if self.max_nodes is not None and self.nodes_used >= self.max_nodes:
            self.queries_rejected += 1
            raise QuotaExceeded(self.name, self.nodes_used, self.max_nodes)

    def charge(self, size: int) -> None:
        self.nodes_used += size
        self.queries_answered += 1


@dataclass
class AdmissionController:
    """All-or-nothing in-flight admission with a retry hint.

    ``try_admit(n)`` either reserves ``n`` slots or raises
    :exc:`ServiceSaturated` — a batch is never split across the
    admission boundary (partial admission would make which queries run
    depend on arrival interleaving).  ``release(n)`` returns slots as
    queries complete.  ``retry_after`` scales linearly with how far over
    the bound the rejected batch was — a crude but monotone hint."""

    max_in_flight: int
    retry_after_base: float = 0.05
    in_flight: int = 0
    admitted: int = 0
    rejected: int = 0
    _peak: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.max_in_flight <= 0:
            raise ValueError("max_in_flight must be positive")

    def try_admit(self, n: int) -> None:
        if n <= 0:
            raise ValueError("admission size must be positive")
        if self.in_flight + n > self.max_in_flight:
            self.rejected += n
            overflow = (self.in_flight + n) / self.max_in_flight
            raise ServiceSaturated(
                self.in_flight, self.max_in_flight, self.retry_after_base * overflow
            )
        self.in_flight += n
        self.admitted += n
        self._peak = max(self._peak, self.in_flight)

    def release(self, n: int = 1) -> None:
        if n > self.in_flight:
            raise RuntimeError("releasing more admissions than in flight")
        self.in_flight -= n

    def stats(self) -> dict[str, int]:
        return {
            "admission_in_flight": self.in_flight,
            "admission_max_in_flight": self.max_in_flight,
            "admission_peak_in_flight": self._peak,
            "admission_admitted": self.admitted,
            "admission_rejected": self.rejected,
        }
