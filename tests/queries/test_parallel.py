"""ParallelQueryEngine: sharded evaluation is bit-identical to serial.

The determinism harness of the parallel tentpole: for random databases,
batches, worker counts and shard seeds, the sharded engine must reproduce
the serial engine's output *exactly* — same ``Fraction`` numerators, same
float bit patterns, same sizes, and the same ``None``-marker discipline
for budget-evicted queries.  Everything here runs in ``threads`` mode
(identical code path to ``spawn`` minus the pickling boundary, which
``TestSpawnMode`` covers).  Engines are closed on the way out so their
worker pools stop.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.evaluate import BatchEvaluation
from repro.queries.parallel import (
    ParallelBatchEvaluation,
    ParallelQueryEngine,
    shard_of,
)
from repro.queries.syntax import parse_ucq

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

    def test_engine_shard_of_uses_seed(self):
        db = complete_database({"R": 1}, 2, p=0.5)
        q = parse_ucq("R(x)")
        e0 = ParallelQueryEngine(db, workers=4, shard_seed=0)
        assert e0.shard_of(q) == shard_of(q, 4, seed=0)

    def test_invalid_workers_rejected(self):
        q = parse_ucq("R(x)")
        with pytest.raises(ValueError, match="workers"):
            shard_of(q, 0)
        db = complete_database({"R": 1}, 2, p=0.5)
        with pytest.raises(ValueError, match="workers"):
            ParallelQueryEngine(db, workers=0)
        with pytest.raises(ValueError, match="mode"):
            ParallelQueryEngine(db, workers=2, mode="forkbomb")
        with pytest.raises(ValueError, match="max_nodes"):
            ParallelQueryEngine(db, workers=2, max_nodes=0)


class TestParitySerialVsParallel:
    """The ISSUE's property test: parallel ≡ serial, bit for bit."""

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
        with ParallelQueryEngine(
            db, workers=workers, mode="threads", shard_seed=shard_seed
        ) as engine:
            parallel = engine.evaluate(queries, exact=True)
        assert parallel.probabilities == serial.probabilities
        assert all(isinstance(p, Fraction) for p in parallel.probabilities)
        assert parallel.sizes == serial.sizes
        # Unbudgeted: nothing is ever evicted, every root is live.
        assert all(r is not None for r in parallel.roots)

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
        with ParallelQueryEngine(
            db, workers=workers, mode="threads", shard_seed=shard_seed
        ) as engine:
            parallel = engine.evaluate(queries)
        assert parallel.probabilities == serial.probabilities  # == on floats: bitwise

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([2, 4]),
        st.integers(min_value=10, max_value=200),
    )
    def test_budgeted_parity_and_none_markers(self, seed, workers, max_nodes):
        """Shard-local GC never changes an answer; ``roots[i]`` is ``None``
        exactly when worker ``shards[i]`` evicted query ``i``."""
        db = random_db(seed)
        if db.size == 0:
            return
        queries = [parse_ucq(s) for s in QUERIES] * 2
        serial = QueryEngine(db).evaluate(queries, exact=True)
        with ParallelQueryEngine(
            db, workers=workers, max_nodes=max_nodes, mode="threads"
        ) as engine:
            batch = engine.evaluate(queries, exact=True)
            engines = engine.engines()
        assert batch.probabilities == serial.probabilities
        assert batch.sizes == serial.sizes
        for i, q in enumerate(queries):
            live = engines[batch.shards[i]].cached_root(q)
            assert batch.roots[i] == live  # None marker iff evicted


class TestBatchShape:
    def test_workers_one_is_the_serial_path(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        queries = [parse_ucq(s) for s in QUERIES]
        direct = QueryEngine(db).evaluate(queries, exact=True)
        with ParallelQueryEngine(db, workers=1) as engine:
            via_parallel = engine.evaluate(queries, exact=True)
        assert isinstance(via_parallel, BatchEvaluation)  # not a parallel result
        assert via_parallel.probabilities == direct.probabilities
        assert via_parallel.sizes == direct.sizes
        assert via_parallel.roots == direct.roots

    def test_parallel_result_container(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        queries = [parse_ucq(s) for s in QUERIES]
        with ParallelQueryEngine(db, workers=3, mode="threads") as engine:
            batch = engine.evaluate(queries)
        assert isinstance(batch, ParallelBatchEvaluation)
        assert len(batch) == len(queries)
        assert batch[0] == batch.probabilities[0]
        assert batch.workers == 3 and batch.mode == "threads"
        assert set(batch.worker_stats) == set(batch.shards)  # keyed by shard
        for i in range(len(queries)):
            assert batch.worker_stats[batch.shards[i]]["queries_compiled"] > 0
        assert batch.shards == [shard_of(q, 3) for q in queries]
        assert batch.stats["workers"] == 3
        assert batch.stats["tuples"] == db.size  # not multiplied per worker

    def test_threads_engines_persist_across_batches(self):
        """Session reuse per shard: a repeated batch is all cache hits."""
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        queries = [parse_ucq(s) for s in QUERIES]
        with ParallelQueryEngine(db, workers=2, mode="threads") as engine:
            first = engine.evaluate(queries, exact=True)
            nodes_before = engine.stats()["manager_nodes"]
            second = engine.evaluate(queries, exact=True)
            assert second.probabilities == first.probabilities
            assert engine.stats()["manager_nodes"] == nodes_before  # no recompilation
            assert engine.stats()["queries_compiled"] == len(set(queries))

    @pytest.mark.parametrize("mode", ["threads", "spawn"])
    def test_stats_sum_worker_counters(self, mode):
        """``stats()`` after a batch is the per-worker engine counters
        summed, plus the pool's own."""
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        queries = [parse_ucq(s) for s in QUERIES]
        with ParallelQueryEngine(db, workers=2, mode=mode) as engine:
            batch = engine.evaluate(queries, exact=True)
            stats = engine.stats()
        for key in ("queries_compiled", "manager_nodes", "cache_misses"):
            assert stats[key] == sum(s[key] for s in batch.worker_stats.values())
        assert stats["queries_compiled"] == len(set(queries))
        assert stats["cache_misses"] == len(queries)
        assert stats["pool_batches_served"] == 1
        assert stats["workers"] == 2 and stats["tuples"] == db.size

    def test_more_workers_than_queries(self):
        db = complete_database({"R": 1}, 2, p=0.5)
        q = parse_ucq("R(x)")
        with ParallelQueryEngine(db, workers=8, mode="threads") as engine:
            batch = engine.evaluate([q], exact=True)
        assert batch.probabilities == [QueryEngine(db).probability(q, exact=True)]
        assert len(batch.worker_stats) == 1  # empty shards never spin up

    def test_empty_workload_rejected(self):
        db = complete_database({"R": 1}, 2, p=0.5)
        with pytest.raises(ValueError, match="empty workload"):
            ParallelQueryEngine(db, workers=2).evaluate([])

    def test_explicit_vtree_is_shared(self):
        from repro.queries.compile import lineage_vtree

        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        q = parse_ucq("R(x),S(x,y)")
        balanced = lineage_vtree(q, db, shape="balanced")
        with ParallelQueryEngine(db, workers=2, vtree=balanced, mode="threads") as engine:
            batch = engine.evaluate([q, parse_ucq("S(x,y)")], exact=True)
            workers = engine.engines()
        assert engine.vtree is balanced
        assert batch.vtree is balanced
        for worker in workers.values():
            assert worker.vtree is balanced

    def test_auto_mode_picks_threads_for_small_batches(self):
        db = complete_database({"R": 1, "S": 2}, 2, p=0.5)
        with ParallelQueryEngine(db, workers=2, mode="auto") as engine:
            batch = engine.evaluate([parse_ucq("R(x)")])
        assert batch.mode == "threads"


class TestSpawnMode:
    """End-to-end crossings of the pickling boundary (queries, database
    and postfix-encoded vtree out; Fractions, sizes, roots, stats back)."""

    def test_spawn_parity_with_serial(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.35)
        queries = [parse_ucq(s) for s in QUERIES] * 2
        serial = QueryEngine(db).evaluate(queries, exact=True)
        with ParallelQueryEngine(db, workers=2, mode="spawn") as engine:
            batch = engine.evaluate(queries, exact=True)
        assert batch.mode == "spawn"
        assert batch.probabilities == serial.probabilities
        assert batch.sizes == serial.sizes
        assert all(r is not None for r in batch.roots)
        assert batch.stats["queries_compiled"] == len(set(queries))

    def test_spawn_budgeted_none_markers(self):
        """Under a tight per-worker budget, ``roots[i]`` is ``None``
        exactly where a serial engine running shard ``shards[i]`` alone
        (same vtree, same budget, batch order) has evicted query ``i`` by
        the end of the batch — read then, not as each query finishes."""
        db = complete_database({"R": 1, "S": 2}, 3, p=0.35)
        queries = [parse_ucq(s) for s in QUERIES] * 2
        serial = QueryEngine(db).evaluate(queries, exact=True)
        with ParallelQueryEngine(db, workers=2, max_nodes=30, mode="spawn") as engine:
            batch = engine.evaluate(queries, exact=True)
        assert batch.mode == "spawn"
        assert batch.probabilities == serial.probabilities
        assert batch.sizes == serial.sizes
        expected = [None] * len(queries)
        for w in set(batch.shards):
            shard = QueryEngine(db, vtree=batch.vtree, max_nodes=30)
            mine = [i for i in range(len(queries)) if batch.shards[i] == w]
            for i in mine:
                shard.probability(queries[i], exact=True)
            for i in mine:
                expected[i] = shard.cached_root(queries[i])
        assert batch.roots == expected
        assert None in batch.roots  # the budget really evicted something

    def test_spawn_single_occupied_shard(self):
        """One occupied shard: only its worker reports stats."""
        db = complete_database({"R": 1}, 2, p=0.5)
        q = parse_ucq("R(x)")
        with ParallelQueryEngine(db, workers=4, mode="spawn") as engine:
            batch = engine.evaluate([q], exact=True)
        assert batch.mode == "spawn"
        assert batch.probabilities == [QueryEngine(db).probability(q, exact=True)]
        assert len(batch.worker_stats) == 1
