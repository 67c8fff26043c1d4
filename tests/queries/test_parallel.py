"""Sharded batches: ``QueryService(steal=False)`` is bit-identical to serial.

The determinism harness of sharded evaluation: for random databases,
batches, worker counts and shard seeds, one ``submit_sync`` on a
no-steal service must reproduce the serial engine's output *exactly* —
same ``Fraction`` numerators, same float bit patterns, same sizes — run
each query on its :func:`shard_of` worker, and leave each worker's
``max_nodes`` budget in the state a serial engine replaying that shard
alone reaches.  Most tests run in ``threads`` mode (identical code path
to ``spawn`` minus the pickling boundary, which ``TestSpawnMode``
covers).  Services are closed on the way out so their worker pools stop.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq
from repro.service import QueryService, ServiceSaturated, shard_of

pytestmark = pytest.mark.parallel

QUERIES = [
    "R(x),S(x,y)",
    "S(x,y)",
    "R(x),S(x,x)",
    "R(x),S(x,y) | S(y,y)",
    "S(x,x)",
    "R(x) | S(x,y)",
]


def random_db(seed: int, domain: int = 2, density: float = 0.8) -> ProbabilisticDatabase:
    rng = np.random.default_rng(seed)
    return ProbabilisticDatabase.random({"R": 1, "S": 2}, domain, rng, tuple_density=density)


def sharded(db, *, workers: int, mode: str = "threads", **options) -> QueryService:
    """A service that evaluates sharded batches: no worker steals."""
    return QueryService(db, workers=workers, mode=mode, steal=False, **options)


def shard_replays(db, vtree, queries, answers, max_nodes):
    """worker -> (serial engine that ran that worker's shard alone, in
    batch order, on the same vtree and budget; the shard's queries)."""
    replays = {}
    for q, a in zip(queries, answers):
        if a.worker not in replays:
            replays[a.worker] = (QueryEngine(db, vtree=vtree, max_nodes=max_nodes), [])
        engine, shard = replays[a.worker]
        engine.probability(q, exact=True)
        shard.append(q)
    return replays


class TestShardAssignment:
    def test_stable_across_calls_and_objects(self):
        q1 = parse_ucq("R(x),S(x,y)")
        q2 = parse_ucq("R(x),S(x,y)")  # equal but distinct object
        for w in (1, 2, 3, 4, 7):
            assert shard_of(q1, w) == shard_of(q2, w)
            assert shard_of(q1, w, seed=5) == shard_of(q2, w, seed=5)

    def test_seed_changes_assignment_somewhere(self):
        queries = [parse_ucq(s) for s in QUERIES]
        a = [shard_of(q, 4, seed=0) for q in queries]
        b = [shard_of(q, 4, seed=1) for q in queries]
        assert a != b  # different seed reshuffles at least one query

    def test_in_range_and_all_shards_reachable(self):
        queries = [parse_ucq(f"R({c})") for c in range(1, 65)]
        shards = [shard_of(q, 4) for q in queries]
        assert all(0 <= s < 4 for s in shards)
        assert set(shards) == {0, 1, 2, 3}  # 64 draws hit all 4 shards

    def test_invalid_workers_rejected(self):
        q = parse_ucq("R(x)")
        with pytest.raises(ValueError, match="workers"):
            shard_of(q, 0)
        db = complete_database({"R": 1}, 2, p=0.5)
        with pytest.raises(ValueError, match="workers"):
            QueryService(db, workers=0)
        with pytest.raises(ValueError, match="mode"):
            QueryService(db, workers=2, mode="forkbomb")
        with pytest.raises(ValueError, match="max_nodes"):
            QueryService(db, workers=2, max_nodes=0)


class TestParitySerialVsParallel:
    """Sharded ≡ serial, bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.sampled_from(QUERIES), min_size=1, max_size=8),
        st.sampled_from([1, 2, 4]),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_random_pdbs_bit_identical(self, seed, batch, workers, shard_seed):
        db = random_db(seed)
        if db.size == 0:
            return
        queries = [parse_ucq(s) for s in batch]
        serial = QueryEngine(db).evaluate(queries, exact=True)
        with sharded(db, workers=workers, shard_seed=shard_seed) as svc:
            answers = svc.submit_sync(queries, exact=True)
            engines = svc.pool.engines()
        assert [a.probability for a in answers] == serial.probabilities
        assert all(isinstance(a.probability, Fraction) for a in answers)
        assert [a.size for a in answers] == serial.sizes
        # Each query ran on its seeded shard, never a cached copy.
        assert [a.worker for a in answers] == [
            shard_of(q, workers, shard_seed) for q in queries
        ]
        assert not any(a.cached for a in answers)
        # Unbudgeted: nothing is ever evicted, every root is live.
        for q, a in zip(queries, answers):
            assert engines[a.worker].cached_root(q) is not None

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([2, 4]),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_float_mode_bit_identical(self, seed, workers, shard_seed):
        """Float WMC is run over the *same* canonical SDD in any worker, so
        even floating-point results match to the last bit."""
        db = random_db(seed)
        if db.size == 0:
            return
        queries = [parse_ucq(s) for s in QUERIES]
        serial = QueryEngine(db).evaluate(queries)
        with sharded(db, workers=workers, shard_seed=shard_seed) as svc:
            answers = svc.submit_sync(queries)
        assert [a.probability for a in answers] == serial.probabilities  # bitwise

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([2, 4]),
        st.integers(min_value=10, max_value=200),
    )
    def test_budgeted_parity_and_none_markers(self, seed, workers, max_nodes):
        """Shard-local GC never changes an answer, and each worker ends the
        batch holding exactly the roots (ids, and ``None`` where evicted)
        that a serial engine replaying its shard alone holds."""
        db = random_db(seed)
        if db.size == 0:
            return
        queries = [parse_ucq(s) for s in QUERIES] * 2
        serial = QueryEngine(db).evaluate(queries, exact=True)
        with sharded(db, workers=workers, max_nodes=max_nodes) as svc:
            answers = svc.submit_sync(queries, exact=True)
            engines = svc.pool.engines()
            vtree = svc.vtree
        assert [a.probability for a in answers] == serial.probabilities
        assert [a.size for a in answers] == serial.sizes
        for w, (replay, shard) in shard_replays(db, vtree, queries, answers, max_nodes).items():
            for q in shard:
                assert engines[w].cached_root(q) == replay.cached_root(q)


class TestBatchShape:
    def test_parallel_result_container(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        queries = [parse_ucq(s) for s in QUERIES]
        with sharded(db, workers=3) as svc:
            answers = svc.submit_sync(queries)
            worker_stats = svc.pool.worker_stats()
            stats = svc.stats()
        assert len(answers) == len(queries)
        assert [a.worker for a in answers] == [shard_of(q, 3) for q in queries]
        assert set(worker_stats) == {a.worker for a in answers}  # keyed by worker
        for a in answers:
            assert worker_stats[a.worker]["queries_compiled"] > 0
        assert stats["pool_workers"] == 3 and stats["pool_mode"] == "threads"
        assert stats["pool_steals"] == 0
        assert len(worker_stats) > 1
        assert stats["engine_tuples"] == db.size  # not multiplied per worker

    def test_threads_engines_persist_across_batches(self):
        """Session reuse per shard: a float batch after an exact one misses
        the answer cache (its key names the value ring) and hits every
        worker's compiled-query cache instead."""
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        queries = [parse_ucq(s) for s in QUERIES]
        with sharded(db, workers=2) as svc:
            svc.submit_sync(queries, exact=True)
            engines = svc.pool.engines()
            nodes_before = svc.stats()["engine_manager_nodes"]
            floats = svc.submit_sync(queries)
            stats = svc.stats()
            assert svc.pool.engines() == engines  # the same live engines
        assert [a.probability for a in floats] == QueryEngine(db).evaluate(queries).probabilities
        assert not any(a.cached for a in floats)
        assert stats["engine_manager_nodes"] == nodes_before  # no recompilation
        assert stats["engine_queries_compiled"] == len(set(queries))
        assert stats["engine_cache_hits"] == len(queries)

    @pytest.mark.parametrize("mode", ["threads", "spawn"])
    def test_stats_sum_worker_counters(self, mode):
        """``engine_*`` stats after a batch are the per-worker engine
        counters summed, next to the pool's own."""
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        queries = [parse_ucq(s) for s in QUERIES]
        with sharded(db, workers=2, mode=mode) as svc:
            svc.submit_sync(queries, exact=True)
            worker_stats = svc.pool.worker_stats()
            stats = svc.stats()
        for key in ("queries_compiled", "manager_nodes", "cache_misses"):
            assert stats[f"engine_{key}"] == sum(s[key] for s in worker_stats.values())
        assert stats["engine_queries_compiled"] == len(set(queries))
        assert stats["engine_cache_misses"] == len(queries)
        assert stats["pool_tasks_served"] == len(queries)
        assert stats["pool_workers"] == 2 and stats["pool_mode"] == mode

    def test_more_workers_than_queries(self):
        db = complete_database({"R": 1}, 2, p=0.5)
        q = parse_ucq("R(x)")
        with sharded(db, workers=8) as svc:
            answers = svc.submit_sync([q], exact=True)
            worker_stats = svc.pool.worker_stats()
        assert [a.probability for a in answers] == [QueryEngine(db).probability(q, exact=True)]
        assert len(worker_stats) == 1  # empty shards never build an engine

    def test_batch_longer_than_default_admission(self):
        """Admission is all-or-nothing per batch: a batch over the default
        ``max_in_flight`` of 1024 is refused whole, even on an idle
        service, and runs in full once ``max_in_flight`` covers it."""
        db = complete_database({"R": 1, "S": 2}, 2, p=0.4)
        queries = [parse_ucq(s) for s in QUERIES] * 180  # 1080 queries
        with sharded(db, workers=2) as svc:
            with pytest.raises(ServiceSaturated):
                svc.submit_sync(queries, exact=True)
            assert svc.stats()["admission_in_flight"] == 0
        with sharded(db, workers=2, max_in_flight=len(queries)) as svc:
            answers = svc.submit_sync(queries, exact=True)
        serial = QueryEngine(db).evaluate(queries, exact=True)
        assert [a.probability for a in answers] == serial.probabilities
        assert [a.size for a in answers] == serial.sizes
        assert [a.worker for a in answers] == [shard_of(q, 2) for q in queries]

    def test_empty_workload_rejected(self):
        db = complete_database({"R": 1}, 2, p=0.5)
        with sharded(db, workers=2) as svc:
            with pytest.raises(ValueError, match="empty workload"):
                svc.submit_sync([])

    def test_explicit_vtree_is_shared(self):
        from repro.queries.compile import lineage_vtree

        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        q = parse_ucq("R(x),S(x,y)")
        balanced = lineage_vtree(q, db, shape="balanced")
        with sharded(db, workers=2, vtree=balanced) as svc:
            svc.submit_sync([q, parse_ucq("S(x,y)")], exact=True)
            workers = svc.pool.engines()
            assert svc.vtree is balanced
        for worker in workers.values():
            assert worker.vtree is balanced


class TestSpawnMode:
    """End-to-end crossings of the pickling boundary (queries, database
    and postfix-encoded vtree out; Fractions, sizes, stats back)."""

    def test_spawn_parity_with_serial(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.35)
        queries = [parse_ucq(s) for s in QUERIES] * 2
        serial = QueryEngine(db).evaluate(queries, exact=True)
        with sharded(db, workers=2, mode="spawn") as svc:
            answers = svc.submit_sync(queries, exact=True)
            stats = svc.stats()
        assert stats["pool_mode"] == "spawn"
        assert [a.probability for a in answers] == serial.probabilities
        assert [a.size for a in answers] == serial.sizes
        assert [a.worker for a in answers] == [shard_of(q, 2) for q in queries]
        assert stats["engine_queries_compiled"] == len(set(queries))
        assert stats["engine_pinned_roots"] == len(set(queries))  # nothing evicted

    def test_spawn_budgeted_none_markers(self):
        """Under a tight per-worker budget, each spawn worker has evicted
        exactly as many queries by the end of the batch as a serial engine
        running its shard alone (same vtree, same budget, batch order)."""
        db = complete_database({"R": 1, "S": 2}, 3, p=0.35)
        queries = [parse_ucq(s) for s in QUERIES] * 2
        serial = QueryEngine(db).evaluate(queries, exact=True)
        with sharded(db, workers=2, max_nodes=30, mode="spawn") as svc:
            answers = svc.submit_sync(queries, exact=True)
            worker_stats = svc.pool.worker_stats()
            vtree = svc.vtree
        assert [a.probability for a in answers] == serial.probabilities
        assert [a.size for a in answers] == serial.sizes
        replays = shard_replays(db, vtree, queries, answers, 30)
        assert set(replays) == set(worker_stats)
        evicted = 0
        for w, (replay, _) in replays.items():
            expected = replay.stats()["queries_evicted"]
            assert worker_stats[w]["queries_evicted"] == expected
            evicted += expected
        assert evicted > 0  # the budget really evicted something

    def test_spawn_single_occupied_shard(self):
        """One occupied shard: only its worker reports stats."""
        db = complete_database({"R": 1}, 2, p=0.5)
        q = parse_ucq("R(x)")
        with sharded(db, workers=4, mode="spawn") as svc:
            answers = svc.submit_sync([q], exact=True)
            worker_stats = svc.pool.worker_stats()
        assert [a.probability for a in answers] == [QueryEngine(db).probability(q, exact=True)]
        assert len(worker_stats) == 1
