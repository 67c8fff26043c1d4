"""WorkerPool: persistent warm workers answer bit-identically to serial.

The determinism harness of the service tentpole, pool layer: for every
worker count, steal setting, and forced steal schedule (skewed shards
that pile every query onto one worker's queue), the pool must reproduce
the serial engine's answers *exactly* — same ``Fraction`` numerators,
same float bit patterns, same compiled sizes — and its engines must
survive batch after batch (threads: the same live engine objects; spawn:
the same child pids).
"""

from __future__ import annotations

import threading

import pytest

from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq
from repro.service import QueryService, WorkerPool, shard_of

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


def _serial_expectations(db, qs, exact=True):
    engine = QueryEngine(db)
    return [engine.probability(q, exact=exact) for q in qs], engine.vtree


class _Blocker:
    """A fake query that pins whichever worker executes it: the first
    engine attribute access records the worker (parsed from its thread
    name), signals ``started``, and parks until ``release`` — then every
    access raises, so the pinned worker survives with a failed task."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.worker = -1

    def __getattr__(self, name):
        if not self.started.is_set():
            self.worker = int(threading.current_thread().name.rsplit("-", 1)[1])
            self.started.set()
            self.release.wait(timeout=60)
        raise AttributeError(name)


def _items_by_shard(qs, workers, seed=0):
    items: dict[int, list] = {}
    for i, q in enumerate(qs):
        items.setdefault(shard_of(q, workers, seed), []).append((i, q))
    return items


class TestBitIdenticalToSerial:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("steal", [False, True])
    def test_every_worker_count_and_steal_setting(self, workers, steal):
        db = _db()
        qs = _queries()
        expect, vtree = _serial_expectations(db, qs)
        with WorkerPool(db, workers=workers, vtree=vtree, steal=steal) as pool:
            results = pool.run_batch(_items_by_shard(qs, workers), exact=True)
            assert [results[i].probability for i in range(len(qs))] == expect

    def test_forced_steal_schedule_skewed_shards(self):
        """Force a steal schedule that no scheduler accident can dodge:
        a sentinel task pins whichever worker picks it up, then the whole
        batch lands on the *pinned* worker's shard — every query MUST be
        stolen by the other workers, and the answers must still be
        bit-identical to serial.  (Timing-based skew is not reliable on a
        single-core box: one thread can legally drain the queue alone.)"""
        db = _db()
        qs = _queries() * 3
        expect, vtree = _serial_expectations(db, qs)
        blocker = _Blocker()
        with WorkerPool(db, workers=4, vtree=vtree, steal=True) as pool:
            blocked_future = pool.submit(0, blocker, exact=True)
            assert blocker.started.wait(timeout=30), "no worker picked the pin"
            pinned = blocker.worker
            futures = [pool.submit(pinned, q, exact=True) for q in qs]
            results = [f.result(timeout=60) for f in futures]
            blocker.release.set()
            with pytest.raises(Exception):
                blocked_future.result(timeout=60)
            stats = pool.stats()
        assert [r.probability for r in results] == expect
        # The pinned worker owned the shard, so every answer was stolen.
        assert stats["pool_steals"] >= len(qs)
        assert all(r.worker != pinned for r in results)

    def test_float_path_bit_identical(self):
        db = _db()
        qs = _queries()
        expect, vtree = _serial_expectations(db, qs, exact=False)
        with WorkerPool(db, workers=3, vtree=vtree) as pool:
            results = pool.run_batch(_items_by_shard(qs, 3))
            got = [results[i].probability for i in range(len(qs))]
            assert got == expect  # exact float equality: same bits

    def test_sizes_match_serial(self):
        db = _db()
        qs = _queries()
        serial = QueryEngine(db)
        sizes = []
        for q in qs:
            serial.probability(q)
            sizes.append(serial.compiled_size(q))
        with WorkerPool(db, workers=2, vtree=serial.vtree) as pool:
            results = pool.run_batch(_items_by_shard(qs, 2))
            assert [results[i].size for i in range(len(qs))] == sizes


class TestPersistence:
    def test_threads_engines_survive_batches(self):
        db = _db()
        qs = _queries()
        _, vtree = _serial_expectations(db, qs)
        # steal=False pins ownership, so the hit count is deterministic
        # and no engine is lazily born by a late steal.
        with WorkerPool(db, workers=2, vtree=vtree, steal=False) as pool:
            pool.run_batch(_items_by_shard(qs, 2))
            engines_after_first = pool.engines()
            for _ in range(3):
                pool.run_batch(_items_by_shard(qs, 2))
            assert pool.engines() == engines_after_first  # same objects
            assert pool.batches_served == 4
            # Warm engines: the repeats were compiled-query cache hits.
            total_hits = sum(
                s["cache_hits"] for s in pool.worker_stats().values()
            )
            assert total_hits >= 3 * len(qs)

    def test_steal_disabled_keeps_shard_ownership(self):
        db = _db()
        qs = _queries()
        _, vtree = _serial_expectations(db, qs)
        with WorkerPool(db, workers=3, vtree=vtree, steal=False) as pool:
            items = _items_by_shard(qs, 3)
            results = pool.run_batch(items)
            for shard, shard_items in items.items():
                for idx, _q in shard_items:
                    assert results[idx].worker == shard
            assert pool.stats()["pool_steals"] == 0

    def test_per_worker_budget_stays_exact(self):
        db = _db()
        qs = _queries() * 2
        expect, vtree = _serial_expectations(db, qs)
        with WorkerPool(db, workers=2, vtree=vtree, max_nodes=1) as pool:
            results = pool.run_batch(_items_by_shard(qs, 2), exact=True)
            assert [results[i].probability for i in range(len(qs))] == expect
            assert sum(
                s["queries_evicted"] for s in pool.worker_stats().values()
            ) > 0


class TestLifecycle:
    def test_close_fails_queued_work_and_rejects_new(self):
        db = _db(domain=2)
        _, vtree = _serial_expectations(db, _queries())
        pool = WorkerPool(db, workers=1, vtree=vtree)
        pool.start()
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.submit(0, parse_ucq("R(x)"))

    def test_validation(self):
        db = _db(domain=2)
        _, vtree = _serial_expectations(db, _queries())
        with pytest.raises(ValueError):
            WorkerPool(db, workers=0, vtree=vtree)
        with pytest.raises(ValueError):
            WorkerPool(db, workers=1, vtree=None)  # needs a shared vtree
        with pytest.raises(ValueError):
            WorkerPool(db, workers=1, vtree=vtree, mode="fork")

    def test_worker_exception_reaches_future_and_pool_survives(self):
        db = _db(domain=2)
        qs = _queries()
        expect, vtree = _serial_expectations(db, qs)

        with WorkerPool(db, workers=1, vtree=vtree) as pool:
            good = pool.run_batch({0: list(enumerate(qs))}, exact=True)
            assert [good[i].probability for i in range(len(qs))] == expect
            f = pool.submit(0, "not a query")  # blows up inside the worker
            with pytest.raises(Exception):
                f.result(timeout=60)
            # The worker thread survived the failed task.
            again = pool.run_batch({0: list(enumerate(qs))}, exact=True)
            assert [again[i].probability for i in range(len(qs))] == expect


class TestSpawnPool:
    """One spawn-mode pass: identical answers, stable pids across 3+
    batches (the warm-process guarantee), and clean shutdown."""

    def test_spawn_pool_persists_and_matches_serial(self):
        db = _db()
        qs = _queries()
        expect, vtree = _serial_expectations(db, qs)
        with WorkerPool(
            db, workers=2, vtree=vtree, mode="spawn", steal=False
        ) as pool:
            pids = None
            for _ in range(3):
                results = pool.run_batch(_items_by_shard(qs, 2), exact=True)
                assert [results[i].probability for i in range(len(qs))] == expect
                if pids is None:
                    pids = pool.worker_pids()
                    assert len(pids) == 2
                else:
                    assert pool.worker_pids() == pids  # same warm children
            stats = pool.worker_stats()
            assert sum(s["cache_hits"] for s in stats.values()) >= 2 * len(qs)
        for proc in pool._procs:
            assert not proc.is_alive()

    def test_spawn_forced_steal_matches_serial(self):
        db = _db()
        qs = _queries()
        expect, vtree = _serial_expectations(db, qs)
        with WorkerPool(db, workers=3, vtree=vtree, mode="spawn") as pool:
            results = pool.run_batch({1: list(enumerate(qs))}, exact=True)
            assert [results[i].probability for i in range(len(qs))] == expect
            assert pool.stats()["pool_steals"] > 0


class TestPersistentParallelEngine:
    """A sharded service (``steal=False``) rides one pool for its lifetime
    and stays bit-identical to serial and to a fresh service per batch
    (one pool per batch, the classic cold use)."""

    @pytest.mark.parametrize("mode", ["threads", "spawn"])
    def test_matches_classic_and_serial(self, mode):
        db = _db()
        qs = _queries()
        expect, _ = _serial_expectations(db, qs)
        with QueryService(db, workers=3, mode=mode, steal=False) as cold:
            classic = cold.submit_sync(qs, exact=True)
        with QueryService(db, workers=3, mode=mode, steal=False) as persistent:
            batches = [persistent.submit_sync(qs, exact=True) for _ in range(3)]
            stats = persistent.stats()
        assert [a.probability for a in classic] == expect
        assert [a.worker for a in classic] == [shard_of(q, 3) for q in qs]
        for batch in batches:
            assert [a.probability for a in batch] == expect
            assert [a.size for a in batch] == [a.size for a in classic]
        # The first batch ran on the same shards; the repeats were served
        # from the answer cache without reaching the pool.
        assert [a.worker for a in batches[0]] == [a.worker for a in classic]
        assert all(a.cached for batch in batches[1:] for a in batch)
        assert stats["pool_tasks_served"] == len(qs)
        assert stats["pool_steals"] == 0  # shard-owned

    def test_close_is_idempotent_and_classic_noop(self):
        db = _db(domain=2)
        svc = QueryService(db, workers=2)
        svc.close()  # no batch yet, no pool: no-op
        with QueryService(db, workers=2, steal=False) as svc:
            svc.submit_sync(_queries())
        svc.close()  # second close after __exit__
