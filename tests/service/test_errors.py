"""The typed error hierarchy: classes, fields, and pickle round trips.

Tier-1 (no marker, no processes): these are the contracts everything in
the fault-tolerance layer leans on — callers branch on exception *types*
and *fields*, and the spawn pool ships exceptions through pickles, so a
class that loses its fields (or its identity) in a round trip would
silently degrade typed failures into strings.
"""

from __future__ import annotations

import pickle

import pytest

from repro.service.errors import (
    AdmissionError,
    Deadline,
    DeadlineExceeded,
    PoolClosed,
    QuotaExceeded,
    ServiceError,
    ServiceSaturated,
    TaskPoisoned,
    WorkerRetired,
)


class TestHierarchy:
    def test_every_failure_is_a_service_error(self):
        for exc in (
            ServiceSaturated(3, 4, 0.1),
            QuotaExceeded("s", 10, 5),
            DeadlineExceeded(1.5, "apply"),
            TaskPoisoned("R(x)", 3),
            PoolClosed(),
            WorkerRetired(2, 5),
        ):
            assert isinstance(exc, ServiceError)

    def test_admission_errors_keep_their_base(self):
        assert issubclass(ServiceSaturated, AdmissionError)
        assert issubclass(QuotaExceeded, AdmissionError)

    def test_pool_closed_is_still_a_runtime_error(self):
        # Closed-pool submission has raised RuntimeError since PR 7;
        # callers catching that must keep working.
        assert isinstance(PoolClosed(), RuntimeError)

    def test_admission_module_exports_only_its_own_names(self):
        """The error types are imported from ``errors``; ``admission``
        no longer re-exports them."""
        from repro.service import admission

        assert admission.__all__ == ["AdmissionController", "Session"]
        assert not hasattr(admission, "AdmissionError")

    def test_package_reexports(self):
        import repro.service as service

        assert service.DeadlineExceeded is DeadlineExceeded
        assert service.TaskPoisoned is TaskPoisoned
        assert service.ServiceError is ServiceError


class TestPickleRoundTrips:
    """Same type, same fields, same message — the spawn pipe contract."""

    @pytest.mark.parametrize(
        "exc",
        [
            ServiceSaturated(7, 16, 0.25),
            QuotaExceeded("tenant-a", 123, 100),
            DeadlineExceeded(0.5, "d-DNNF bag compilation"),
            TaskPoisoned("R(x),S(x,y)", 3),
            PoolClosed("pool closed"),
            WorkerRetired(1, 5),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_round_trip(self, exc):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        for slot, value in vars(exc).items():
            assert getattr(back, slot) == value

    def test_fields_survive(self):
        back = pickle.loads(pickle.dumps(ServiceSaturated(7, 16, 0.25)))
        assert (back.in_flight, back.max_in_flight, back.retry_after) == (7, 16, 0.25)
        back = pickle.loads(pickle.dumps(DeadlineExceeded(0.5, "apply")))
        assert (back.timeout, back.where) == (0.5, "apply")
        back = pickle.loads(pickle.dumps(TaskPoisoned("q", 3)))
        assert (back.task, back.kills) == ("q", 3)


class TestDeadlineToken:
    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_fake_clock_lifecycle(self):
        now = [100.0]
        d = Deadline(5.0, clock=lambda: now[0])
        assert d.remaining() == 5.0
        assert not d.expired()
        d.check("early")  # no raise
        now[0] = 104.9
        assert not d.expired()
        now[0] = 105.1
        assert d.expired()
        assert d.remaining() < 0
        with pytest.raises(DeadlineExceeded) as ei:
            d.check("apply compilation")
        assert ei.value.timeout == 5.0
        assert ei.value.where == "apply compilation"
        assert "apply compilation" in str(ei.value)
