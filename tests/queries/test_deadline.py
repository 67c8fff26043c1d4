"""Per-query deadlines on the serial engine (tier-1: no pools, no
processes — fake clocks and tiny real budgets only).

The enforcement points are the compilers' existing ``node_budget``
safepoints (per gate in the apply pipeline), so a deadline can only fire *between* units of work — the
engine survives every deadline casualty with its caches intact, and the
same query succeeds on retry with a sane budget.
"""

from __future__ import annotations

import pytest

from repro.queries.database import complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq
from repro.service.errors import Deadline, DeadlineExceeded


def _db(domain=3, p=0.4):
    return complete_database({"R": 1, "S": 2}, domain, p=p)


def _q(text="R(x),S(x,y)"):
    return parse_ucq(text)


class TestProbabilityDeadline:
    def test_expired_deadline_raises_typed(self):
        engine = QueryEngine(_db())
        now = [0.0]
        d = Deadline(0.5, clock=lambda: now[0])
        now[0] = 1.0  # expired before any gate
        with pytest.raises(DeadlineExceeded) as ei:
            engine.probability(_q(), deadline=d)
        assert ei.value.timeout == 0.5
        assert engine.stats()["deadline_exceeded"] == 1

    def test_engine_survives_and_retries(self):
        engine = QueryEngine(_db())
        serial = QueryEngine(_db())
        expect = serial.probability(_q(), exact=True)
        with pytest.raises(DeadlineExceeded):
            engine.probability(_q(), timeout=0.0)
        # Same engine, sane budget: identical answer, warm state intact.
        assert engine.probability(_q(), exact=True, timeout=60.0) == expect
        assert engine.stats()["deadline_exceeded"] == 1

    def test_generous_timeout_never_fires(self):
        engine = QueryEngine(_db())
        serial = QueryEngine(_db())
        q = _q("S(x,y),S(y,z)")
        assert engine.probability(q, timeout=3600.0) == serial.probability(q)
        assert engine.stats()["deadline_exceeded"] == 0

    def test_timeout_and_deadline_are_exclusive(self):
        engine = QueryEngine(_db(domain=2))
        with pytest.raises(ValueError):
            engine.probability(_q(), timeout=1.0, deadline=Deadline(1.0))

    def test_compile_honours_deadline(self):
        engine = QueryEngine(_db())
        now = [0.0]
        d = Deadline(1.0, clock=lambda: now[0])
        now[0] = 2.0
        with pytest.raises(DeadlineExceeded):
            engine.compile(_q(), deadline=d)


class TestEvaluateTimeout:
    def test_serial_batch_with_budget(self):
        db = _db()
        qs = [_q(), _q("S(x,x)"), _q("S(x,y),S(y,z)")]
        expect = QueryEngine(db).evaluate(qs, exact=True).probabilities
        got = QueryEngine(db).evaluate(qs, exact=True, timeout=60.0)
        assert got.probabilities == expect

    def test_per_query_not_per_batch(self):
        # Each query gets its own fresh budget: a batch far larger than
        # any single compile still passes under a per-query budget.
        db = _db(domain=2)
        qs = [_q(), _q("S(x,x)")] * 10
        result = QueryEngine(db).evaluate(qs, exact=True, timeout=30.0)
        assert len(result.probabilities) == len(qs)
