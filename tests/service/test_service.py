"""QueryService: sessions, shared answer cache, admission control.

The service-layer half of the ``-m service`` suite: the asyncio front
door must answer bit-identically to a serial engine for every worker
count, reject over-quota and over-capacity submissions *deterministically*
(same rejection at the same submission, independent of scheduling), share
answers across sessions through the content-keyed cache, and keep one
warm pool alive across batches and sessions.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.artifact import ArtifactError
from repro.compiler.cache import LruStatsCache, fingerprint
from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq
from repro.service import (
    AdmissionController,
    DeadlineExceeded,
    QueryService,
    QuotaExceeded,
    ServiceSaturated,
)

pytestmark = pytest.mark.service

QUERIES = [
    "R(x),S(x,y)",
    "S(x,y)",
    "R(x),S(x,x)",
    "R(x),S(x,y) | S(y,y)",
    "S(x,x)",
    "R(x) | S(x,y)",
]


def _db(domain: int = 3, p: float = 0.4) -> ProbabilisticDatabase:
    return complete_database({"R": 1, "S": 2}, domain, p=p)


def _queries():
    return [parse_ucq(t) for t in QUERIES]


def _expect(db, qs, exact=True):
    engine = QueryEngine(db)
    return [engine.probability(q, exact=exact) for q in qs]


class TestBitIdenticalService:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_submit_sync_matches_serial(self, workers):
        db = _db()
        qs = _queries()
        expect = _expect(db, qs)
        with QueryService(db, workers=workers) as svc:
            answers = svc.submit_sync(qs, exact=True)
            assert [a.probability for a in answers] == expect
            again = svc.submit_sync(qs, exact=True)
            assert [a.probability for a in again] == expect
            assert all(a.cached for a in again)

    def test_async_sessions_agree_with_serial(self):
        db = _db()
        qs = _queries()
        expect = _expect(db, qs)
        with QueryService(db, workers=3) as svc:

            async def drive():
                return await asyncio.gather(
                    *(
                        svc.submit(qs, session=f"s{i}", exact=True)
                        for i in range(8)
                    )
                )

            for answers in asyncio.run(drive()):
                assert [a.probability for a in answers] == expect
            assert svc.stats()["service_sessions"] == 8


class TestCachedHitPath:
    """``submit`` resolves answer-cache hits without bridging futures
    onto the loop: a fully cached batch yields once, a mixed batch awaits
    only its misses."""

    def test_fully_cached_batch_never_wraps_futures(self, monkeypatch):
        db = _db(domain=2)
        qs = _queries()
        expect = _expect(db, qs)
        with QueryService(db, workers=2) as svc:
            svc.submit_sync(qs, exact=True)

            def refuse(*_args, **_kw):
                raise AssertionError("a cached batch bridged a future")

            monkeypatch.setattr(asyncio, "wrap_future", refuse)
            answers = asyncio.run(svc.submit(qs, exact=True))
        assert [a.probability for a in answers] == expect
        assert all(a.cached and a.worker is None for a in answers)

    def test_mixed_batch_answers_in_batch_order(self):
        db = _db(domain=2)
        qs = _queries()
        expect = _expect(db, qs)
        warm = qs[::2]
        with QueryService(db, workers=2) as svc:
            svc.submit_sync(warm, exact=True)
            answers = asyncio.run(svc.submit(qs, exact=True))
            stats = svc.stats()
        assert [a.probability for a in answers] == expect
        assert [a.cached for a in answers] == [q in warm for q in qs]
        assert stats["cache_hits"] == len(warm)
        assert stats["admission_in_flight"] == 0

    def test_failing_miss_raises_its_typed_error(self):
        db = _db(domain=2)
        qs = _queries()
        with QueryService(db, workers=2, degrade_after=100) as svc:
            svc.submit_sync([qs[0]])
            with pytest.raises(DeadlineExceeded):
                asyncio.run(svc.submit([qs[0], qs[1]], timeout=1e-9))
            assert svc.stats()["admission_in_flight"] == 0

    def test_cached_sessions_take_turns(self):
        db = _db(domain=2)
        qs = _queries()
        with QueryService(db, workers=1) as svc:
            svc.submit_sync(qs)
            order: list[str] = []

            async def session(name: str) -> None:
                for _ in range(4):
                    answers = await svc.submit(qs, session=name)
                    assert all(a.cached for a in answers)
                    order.append(name)

            async def drive() -> None:
                await asyncio.gather(session("a"), session("b"))

            asyncio.run(drive())
        # Each submit yields once, so neither session runs its whole loop
        # before the other gets a turn.
        assert order == ["a", "b"] * 4


class TestAnswerCache:
    def test_cross_session_sharing_and_normalization(self):
        db = _db(domain=2)
        with QueryService(db, workers=2) as svc:
            p1 = svc.probability(parse_ucq("R(x),S(x,y)"), session="alice")
            # Same query, different atom order, different session: a hit.
            answers = svc.submit_sync(
                [parse_ucq("S(x,y),R(x)")], session="bob"
            )
            assert answers[0].cached
            assert answers[0].probability == p1
            s = svc.stats()
            assert s["cache_hits"] == 1 and s["cache_misses"] == 1

    def test_exact_and_float_keyed_separately(self):
        db = _db(domain=2)
        q = parse_ucq("S(x,y)")
        with QueryService(db, workers=1) as svc:
            exact = svc.submit_sync([q], exact=True)[0]
            floaty = svc.submit_sync([q], exact=False)[0]
            assert not floaty.cached  # different value ring, different key
            assert float(exact.probability) == pytest.approx(floaty.probability)

    def test_capacity_evicts_and_counts(self):
        db = _db(domain=2)
        qs = _queries()
        with QueryService(db, workers=2, cache_capacity=2) as svc:
            svc.submit_sync(qs)
            svc.submit_sync(qs)
            s = svc.stats()
            assert s["cache_entries"] <= 2
            assert s["cache_evictions"] > 0
            assert s["cache_capacity"] == 2

    def test_stats_expose_all_cache_counters(self):
        db = _db(domain=2)
        with QueryService(db, workers=1) as svc:
            svc.submit_sync(_queries())
            s = svc.stats()
            for key in ("cache_hits", "cache_misses", "cache_evictions",
                        "cache_entries", "pool_steals", "admission_admitted",
                        "engine_cache_hits", "engine_cache_misses"):
                assert key in s, key


class TestAdmissionControl:
    def test_quota_rejection_is_deterministic(self):
        db = _db()
        qs = _queries()
        rejected_at = []
        for _trial in range(3):
            with QueryService(db, workers=2, session_quota=50) as svc:
                for i, q in enumerate(qs):
                    try:
                        svc.submit_sync([q], session="metered")
                    except QuotaExceeded:
                        rejected_at.append(i)
                        break
                else:  # pragma: no cover - quota must bind
                    pytest.fail("quota never bound")
        # Same rejection point on every run: compiled sizes are canonical.
        assert len(set(rejected_at)) == 1
        assert rejected_at[0] >= 1  # first query always admitted

    def test_quota_is_per_session(self):
        db = _db(domain=2)
        q = parse_ucq("R(x),S(x,y)")
        with QueryService(db, workers=1, session_quota=1) as svc:
            svc.submit_sync([q], session="one")
            with pytest.raises(QuotaExceeded):
                svc.submit_sync([q], session="one")
            # An independent session has its own ledger (and gets a cache
            # hit, which still charges its quota).
            answers = svc.submit_sync([q], session="two")
            assert answers[0].cached
            with pytest.raises(QuotaExceeded):
                svc.submit_sync([q], session="two")

    def test_session_quota_override_and_ledger(self):
        db = _db(domain=2)
        q = parse_ucq("S(x,y)")
        with QueryService(db, workers=1, session_quota=1) as svc:
            svc.session("vip", max_nodes=10**9)
            for _ in range(5):
                svc.submit_sync([q], session="vip")
            ledger = svc.session_stats()["vip"]
            assert ledger["queries_answered"] == 5
            assert ledger["nodes_used"] > 0
            assert ledger["queries_rejected"] == 0

    def test_saturation_rejects_whole_batch_with_retry_after(self):
        db = _db(domain=2)
        qs = _queries()
        with QueryService(db, workers=1, max_in_flight=3) as svc:
            with pytest.raises(ServiceSaturated) as exc:
                svc.submit_sync(qs)  # 6 > 3: all-or-nothing rejection
            assert exc.value.retry_after > 0
            # Nothing was admitted: a fitting batch still runs fine.
            answers = svc.submit_sync(qs[:3])
            assert len(answers) == 3
            s = svc.stats()
            assert s["admission_rejected"] == len(qs)
            assert s["admission_in_flight"] == 0

    @pytest.mark.parametrize("cause", ["corrupt artifact", "bad mode"])
    def test_pool_that_cannot_be_built_admits_nothing(self, cause, tmp_path):
        """A submission whose pool cannot be built raises and holds no
        admission slot, so updates and a graceful shutdown still drain."""
        db = _db(domain=2)
        if cause == "corrupt artifact":
            (tmp_path / f"{db.fingerprint()}.rpaf").write_bytes(b"not an artifact")
            svc = QueryService(db, workers=1, artifact_dir=tmp_path)
            error = ArtifactError
        else:
            svc = QueryService(db, workers=1)
            svc.mode = "forkbomb"  # past the constructor's check: WorkerPool refuses it
            error = ValueError
        try:
            for _attempt in range(2):  # a retry holds no slot either
                with pytest.raises(error):
                    svc.submit_sync([parse_ucq("R(x)")])
                assert svc.stats()["admission_in_flight"] == 0
            inc = svc.apply_update(db.set_probability("R", 1, p=0.3), drain_timeout=0.2)
            assert inc["updates_applied"] == 1
        finally:
            assert svc.shutdown(0.2) is True

    def test_closed_service_rejects(self):
        db = _db(domain=2)
        svc = QueryService(db, workers=1)
        svc.submit_sync([parse_ucq("R(x)")])
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(RuntimeError):
            svc.submit_sync([parse_ucq("R(x)")])

    def test_empty_batch_rejected(self):
        with QueryService(_db(domain=2), workers=1) as svc:
            with pytest.raises(ValueError):
                svc.submit_sync([])


class TestPoolSurvivesBatches:
    def test_three_batches_reuse_engines_and_db(self):
        db = _db()
        qs = _queries()
        expect = _expect(db, qs)
        with QueryService(db, workers=2) as svc:
            svc.submit_sync(qs, exact=True, session="warmup")
            engines = svc.pool.engines()
            for i in range(3):
                answers = svc.submit_sync(qs, exact=True, session=f"batch{i}")
                assert [a.probability for a in answers] == expect
            assert svc.pool.engines() == engines  # same live objects
            # Later batches were answered from the shared cache: the
            # engines compiled each distinct query exactly once.
            assert svc.stats()["engine_queries_compiled"] == len(qs)

    def test_spawn_service_stable_pids(self):
        db = _db()
        qs = _queries()
        expect = _expect(db, qs)
        with QueryService(db, workers=2, mode="spawn", cache_capacity=1) as svc:
            pids = None
            for i in range(3):
                # cache_capacity=1 forces real pool round-trips each batch.
                answers = svc.submit_sync(qs, exact=True, session=f"b{i}")
                assert [a.probability for a in answers] == expect
                if pids is None:
                    pids = svc.pool.worker_pids()
                else:
                    assert svc.pool.worker_pids() == pids


class TestCachePlumbing:
    """Unit coverage for the shared cache/fingerprint helpers."""

    def test_fingerprint_is_stable_and_prefix_safe(self):
        assert fingerprint("ab", "c") != fingerprint("a", "bc")
        assert fingerprint("x") == fingerprint("x")
        assert fingerprint("x", digest_size=8) != fingerprint("y", digest_size=8)

    def test_database_fingerprint_content_keyed(self):
        a, b = _db(domain=2), _db(domain=2)
        assert a.fingerprint() == b.fingerprint()  # rebuilt identically
        b.add("R", 99, p=0.5)
        assert a.fingerprint() != b.fingerprint()

    def test_ucq_normalized_commutes(self):
        assert (
            parse_ucq("S(x,y),R(x) | R(x)").normalized()
            == parse_ucq("R(x) | R(x),S(x,y)").normalized()
        )
        assert (
            parse_ucq("R(x),R(x)").normalized() == parse_ucq("R(x)").normalized()
        )

    def test_lru_stats_cache(self):
        cache = LruStatsCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)  # evicts b
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.peek("a") == 1
        s = cache.stats()
        assert s == {
            "cache_entries": 2,
            "cache_capacity": 2,
            "cache_hits": 1,
            "cache_misses": 1,
            "cache_evictions": 1,
            "cache_expired": 0,
        }
        with pytest.raises(ValueError):
            LruStatsCache(capacity=0)

    def test_admission_controller_accounting(self):
        ac = AdmissionController(max_in_flight=4)
        ac.try_admit(3)
        with pytest.raises(ServiceSaturated):
            ac.try_admit(2)
        ac.release(3)
        ac.try_admit(4)
        ac.release(4)
        s = ac.stats()
        assert s["admission_admitted"] == 7
        assert s["admission_rejected"] == 2
        assert s["admission_peak_in_flight"] == 4
        with pytest.raises(RuntimeError):
            ac.release(1)
        with pytest.raises(ValueError):
            AdmissionController(max_in_flight=0)
