"""Batched query evaluation through one :class:`QueryEngine` (one vtree,
one shared manager), cross-checked against brute force at small instances
and self-consistent at scale."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vtree import Vtree
from repro.queries.compile import compile_lineage_sdd, lineage_vtree
from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.evaluate import probability_brute_force, probability_exact_fraction
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
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(QUERIES))
    def test_probability_via_sdd_matches_brute_force(self, seed, qs):
        """The acceptance-criterion property: the apply-path probability
        equals the possible-worlds sum on random probabilistic databases."""
        db = random_db(seed)
        if db.size == 0:
            return
        q = parse_ucq(qs)
        expected = probability_brute_force(q, db)
        assert QueryEngine(db).probability(q) == pytest.approx(expected)
        exact = QueryEngine(db).probability(q, exact=True)
        assert float(exact) == pytest.approx(expected)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_evaluate_many_matches_brute_force(self, seed):
        db = random_db(seed)
        if db.size == 0:
            return
        queries = [parse_ucq(s) for s in QUERIES]
        batch = QueryEngine(db).evaluate(queries, exact=True)
        for q, p in zip(queries, batch.probabilities):
            assert isinstance(p, Fraction)
            assert float(p) == pytest.approx(probability_brute_force(q, db))


class TestBatchSemantics:
    def test_batch_equals_individual(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.35)
        queries = [parse_ucq(s) for s in QUERIES]
        batch = QueryEngine(db).evaluate(queries, exact=True)
        for q, p in zip(queries, batch.probabilities):
            assert QueryEngine(db).probability(q, exact=True) == p

    def test_vtree_independence(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.2)
        queries = [parse_ucq(s) for s in QUERIES]
        right = QueryEngine(db).evaluate(queries, exact=True)
        balanced = QueryEngine(
            db, vtree=lineage_vtree(queries[0], db, shape="balanced")
        ).evaluate(queries, exact=True)
        assert right.probabilities == balanced.probabilities

    def test_obdd_sdd_agreement(self):
        db = complete_database({"R": 1, "S": 2}, 3, p=0.45)
        q = parse_ucq("R(x),S(x,y)")
        batch = QueryEngine(db).evaluate([q], exact=True)
        assert batch.probabilities[0] == probability_exact_fraction(q, db)

    def test_float_mode_returns_floats(self):
        db = complete_database({"R": 1, "S": 2}, 2, p=0.5)
        batch = QueryEngine(db).evaluate([parse_ucq("S(x,y)")])
        assert isinstance(batch.probabilities[0], float)

    def test_batch_result_container(self):
        db = complete_database({"R": 1}, 2, p=0.5)
        queries = [parse_ucq("R(x)"), parse_ucq("R(x),R(y)")]
        batch = QueryEngine(db).evaluate(queries)
        assert len(batch) == 2
        assert batch[0] == batch.probabilities[0]
        assert len(batch.sizes) == 2 and len(batch.roots) == 2
        assert batch.stats["manager_nodes"] > 0

    def test_empty_workload_rejected(self):
        db = complete_database({"R": 1}, 2)
        with pytest.raises(ValueError):
            QueryEngine(db).evaluate([])

    def test_manager_reuse_rejects_uncovering_vtree(self):
        db = complete_database({"R": 1, "S": 2}, 2)
        q = parse_ucq("R(x),S(x,y)")
        with pytest.raises(ValueError):
            compile_lineage_sdd(q, db, Vtree.leaf("R(1)"))


class TestAtScale:
    def test_fifty_tuple_workload_end_to_end(self):
        """Acceptance criterion: >= 50-tuple UCQ lineage, exact evaluation,
        self-consistent across vtrees — brute force (2^56 worlds) is
        unreachable here."""
        db = complete_database({"R": 1, "S": 2}, 7, p=0.3)
        assert db.size >= 50
        queries = [parse_ucq(s) for s in QUERIES]
        batch = QueryEngine(db).evaluate(queries, exact=True)
        balanced = QueryEngine(
            db, vtree=lineage_vtree(queries[0], db, shape="balanced")
        ).evaluate(queries, exact=True)
        assert batch.probabilities == balanced.probabilities
        for p in batch.probabilities:
            assert isinstance(p, Fraction) and 0 <= p <= 1
        # OBDD pipeline agrees on the join query.
        assert probability_exact_fraction(queries[0], db) == batch.probabilities[0]
