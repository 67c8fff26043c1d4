"""QueryEngine: session-wide sharing, cross-checked against brute force."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.evaluate import probability_brute_force
from repro.queries.syntax import parse_ucq

QUERIES = [
    "R(x),S(x,y)",
    "S(x,y)",
    "R(x),S(x,x)",
    "R(x),S(x,y) | S(y,y)",
]


def random_db(seed: int, domain: int = 2, density: float = 0.8) -> ProbabilisticDatabase:
    rng = np.random.default_rng(seed)
    return ProbabilisticDatabase.random({"R": 1, "S": 2}, domain, rng, tuple_density=density)


class TestAgainstBruteForce:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_engine_matches_brute_force_on_random_pdbs(self, seed):
        """The acceptance-criterion cross-check: one engine session answers
        a whole workload and every answer equals the possible-worlds sum."""
        db = random_db(seed)
        if db.size == 0:
            return
        engine = QueryEngine(db)
        for qs in QUERIES:
            q = parse_ucq(qs)
            expected = probability_brute_force(q, db)
            assert engine.probability(q) == pytest.approx(expected)
            exact = engine.probability(q, exact=True)
            assert isinstance(exact, Fraction)
            assert float(exact) == pytest.approx(expected)


class TestSessionSharing:
    def test_one_manager_across_queries(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        engine = QueryEngine(db)
        assert engine.manager is None  # lazy until the first query
        engine.probability(parse_ucq(QUERIES[0]))
        mgr = engine.manager
        assert mgr is not None
        for qs in QUERIES[1:]:
            engine.probability(parse_ucq(qs))
        assert engine.manager is mgr  # never rebuilt

    def test_repeat_query_is_cached(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        engine = QueryEngine(db)
        q = parse_ucq("R(x),S(x,y)")
        engine.probability(q)
        nodes_before = engine.stats()["manager_nodes"]
        memo_before = engine.stats()["wmc_memo_entries"]
        engine.probability(q)  # cache hit: no new nodes, no new memo rows
        assert engine.stats()["manager_nodes"] == nodes_before
        assert engine.stats()["wmc_memo_entries"] == memo_before

    def test_stats_are_public_counters(self):
        db = complete_database({"R": 1, "S": 2}, 2, p=0.5)
        engine = QueryEngine(db)
        engine.probability(parse_ucq("S(x,y)"), exact=True)
        stats = engine.stats()
        for key in ("queries_compiled", "manager_nodes", "apply_cache_entries",
                    "wmc_memo_entries", "tuples"):
            assert isinstance(stats[key], int), key
        assert stats["queries_compiled"] == 1

    def test_float_and_exact_evaluators_coexist(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.3)
        engine = QueryEngine(db)
        q = parse_ucq("R(x),S(x,y)")
        p_float = engine.probability(q)
        p_exact = engine.probability(q, exact=True)
        assert float(p_exact) == pytest.approx(p_float)

    def test_evaluate_matches_evaluate_many(self):
        """A batch equals the same queries asked one by one of a fresh
        engine."""
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        queries = [parse_ucq(s) for s in QUERIES]
        batch_engine = QueryEngine(db).evaluate(queries, exact=True)
        single = QueryEngine(db)
        assert batch_engine.probabilities == [
            single.probability(q, exact=True) for q in queries
        ]
        assert batch_engine.sizes == [single.lineage_size(q) for q in queries]
        assert batch_engine.stats["manager_nodes"] > 0

    def test_empty_workload_rejected(self):
        db = complete_database({"R": 1}, 2, p=0.5)
        with pytest.raises(ValueError, match="empty workload"):
            QueryEngine(db).evaluate([])

    def test_explicit_vtree_pins_shape(self):
        from repro.queries.compile import lineage_vtree

        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        q = parse_ucq("R(x),S(x,y)")
        balanced = lineage_vtree(q, db, shape="balanced")
        engine = QueryEngine(db, vtree=balanced)
        assert engine.probability(q, exact=True) == QueryEngine(db).probability(q, exact=True)
        assert engine.vtree is balanced


class TestSessionLifecycle:
    """The GC policy home: pinning, forget(), the max_nodes budget."""

    def test_roots_are_pinned(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        engine = QueryEngine(db)
        q = parse_ucq("R(x),S(x,y)")
        root = engine.compile(q)
        assert root in engine.manager.pinned_roots()

    def test_forget_releases_and_collects(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        engine = QueryEngine(db)
        q = parse_ucq("R(x),S(x,y)")
        p_before = engine.probability(q, exact=True)
        nodes_with_query = engine.stats()["manager_nodes"]
        assert engine.forget(q) is True
        assert engine.forget(q) is False  # already forgotten
        engine.gc()
        assert engine.stats()["manager_nodes"] < nodes_with_query
        assert engine.stats()["pinned_roots"] == 0
        # Recompiling the released query reproduces the same probability.
        assert engine.probability(q, exact=True) == p_before

    def test_max_nodes_budget_evicts_lru(self):
        db = complete_database({"R": 1, "S": 2}, 5, p=0.4)
        queries = [parse_ucq(s) for s in QUERIES]
        unbounded = QueryEngine(db)
        expected = [unbounded.probability(q, exact=True) for q in queries]
        # A budget below even the *collected* footprint of all four pinned
        # lineages, so holding every query at once is impossible.
        unbounded.gc()
        budget = unbounded.stats()["manager_nodes"] * 2 // 3
        engine = QueryEngine(db, max_nodes=budget)
        for _ in range(3):  # cycle: later rounds recompile evicted queries
            got = [engine.probability(q, exact=True) for q in queries]
            assert got == expected
        stats = engine.stats()
        assert stats["queries_evicted"] > 0
        assert stats["gc_runs"] > 0
        assert stats["collected_nodes"] > 0

    def test_current_query_never_evicted(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        engine = QueryEngine(db, max_nodes=1)  # absurdly tight budget
        for qs in QUERIES:
            q = parse_ucq(qs)
            engine.probability(q)
            assert q in engine._roots  # the query just asked for survives

    def test_batch_roots_never_stale_under_budget(self):
        """An evicted query's root id may be collected and recycled; the
        batch must report None for it, never a reused id."""
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        queries = [parse_ucq(s) for s in QUERIES]
        batch = QueryEngine(db, max_nodes=1).evaluate(queries)
        mgr = batch.manager
        for q, root in zip(batch.queries, batch.roots):
            if root is None:
                continue
            assert root in mgr.pinned_roots()
            mgr.validate(root)
        # The last query is always still cached.
        assert batch.roots[-1] is not None
        # Without a budget every root is present (the legacy contract).
        full = QueryEngine(db).evaluate(queries)
        assert all(r is not None for r in full.roots)

    def test_invalid_budget_rejected(self):
        db = complete_database({"R": 1}, 2, p=0.5)
        with pytest.raises(ValueError, match="max_nodes"):
            QueryEngine(db, max_nodes=0)

    def test_gc_stats_exposed(self):
        db = complete_database({"R": 1, "S": 2}, 2, p=0.5)
        engine = QueryEngine(db)
        engine.probability(parse_ucq("S(x,y)"))
        stats = engine.stats()
        for key in ("manager_node_capacity", "manager_free_nodes",
                    "pinned_roots", "gc_runs", "collected_nodes",
                    "queries_evicted"):
            assert isinstance(stats[key], int), key


class TestCollectOverBudgetEdgeCases:
    """Corners of the ``max_nodes`` eviction sweep that only show up when
    the budget is hopeless: a lone pinned root over budget, forgetting a
    query the sweep already evicted, and a budget below even one root."""

    def test_current_query_is_only_pinned_root(self):
        """Budget overflow with no victims: the sweep must terminate and
        spare the query just asked for (never evicted, by contract)."""
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        engine = QueryEngine(db, max_nodes=1)
        q = parse_ucq("R(x),S(x,y)")
        expected = QueryEngine(db).probability(q, exact=True)
        assert engine.probability(q, exact=True) == expected
        assert engine.cached_root(q) is not None
        assert engine.stats()["queries_evicted"] == 0
        assert engine.stats()["manager_nodes"] > 1  # genuinely over budget
        assert engine.stats()["gc_runs"] > 0  # the sweep did run

    def test_forget_of_already_evicted_query(self):
        """A budget-evicted query's root was already released; ``forget``
        must report False, not double-release or resurrect a stale id."""
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        engine = QueryEngine(db, max_nodes=1)
        q1, q2 = parse_ucq("R(x),S(x,y)"), parse_ucq("S(x,y)")
        engine.probability(q1)
        engine.probability(q2)  # budget 1: the sweep evicts q1
        assert engine.cached_root(q1) is None
        assert engine.stats()["queries_evicted"] == 1
        assert engine.forget(q1) is False
        assert engine.forget(q2) is True
        assert engine.forget(q2) is False
        assert engine.manager.pinned_roots() == ()

    def test_budget_below_single_root_answers_a_stream(self):
        """With ``max_nodes`` smaller than any single compiled root, every
        arrival evicts every other query — the session degrades to
        cache-nothing but stays exact, with exactly one survivor."""
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        reference = QueryEngine(db)
        engine = QueryEngine(db, max_nodes=1)
        for qs in QUERIES * 2:
            q = parse_ucq(qs)
            assert engine.probability(q, exact=True) == reference.probability(
                q, exact=True
            )
            assert engine.cached_root(q) is not None
            assert len(engine.manager.pinned_roots()) == 1  # only the survivor
        assert engine.stats()["queries_evicted"] == len(QUERIES) * 2 - 1

    def test_eviction_then_reask_recompiles_identically(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        engine = QueryEngine(db, max_nodes=1)
        q1, q2 = parse_ucq("R(x),S(x,y)"), parse_ucq("S(x,y)")
        first = engine.probability(q1, exact=True)
        engine.probability(q2, exact=True)  # evicts q1
        assert engine.cached_root(q1) is None
        assert engine.probability(q1, exact=True) == first  # recompiled
        assert engine.cached_root(q1) is not None


class TestCacheCounters:
    """The compiled-query cache's hit/miss/eviction counters (PR 7): they
    must tell the true story and survive ``_merge_stats`` untouched."""

    def test_hits_and_misses_count_compiles(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        engine = QueryEngine(db)
        qs = [parse_ucq(t) for t in QUERIES]
        for q in qs:
            engine.probability(q)
        for q in qs:
            engine.probability(q)  # all hits
        s = engine.stats()
        assert s["cache_misses"] == len(qs)
        assert s["cache_hits"] == len(qs)
        assert s["cache_evictions"] == 0

    def test_evictions_counted(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        engine = QueryEngine(db, max_nodes=1)
        qs = [parse_ucq(t) for t in QUERIES]
        for q in qs:
            engine.probability(q)
        s = engine.stats()
        assert s["cache_evictions"] == s["queries_evicted"] == len(qs) - 1
        assert s["cache_misses"] == len(qs)

    def test_counters_merge_through_parallel_stats(self):
        from repro.service import QueryService

        db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
        qs = [parse_ucq(t) for t in QUERIES]
        with QueryService(db, workers=2, mode="threads", steal=False) as par:
            par.submit_sync(qs, exact=True)
            # Float answers miss the exact-keyed answer cache, so the
            # repeats reach, and hit, the per-worker compiled-query caches.
            par.submit_sync(qs)
            merged = par.stats()
        # Ints summed across workers, never dropped.
        assert merged["engine_cache_misses"] == len(qs)
        assert merged["engine_cache_hits"] == len(qs)
        assert merged["engine_cache_evictions"] == 0
