"""QueryEngine's size-aware eviction order (exclusive footprint × staleness)."""

from __future__ import annotations

from repro.queries.database import complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq

QUERIES = [
    "R(x),S(x,y)",
    "S(x,y)",
    "S(x,1)",
    "R(x),S(x,x) | S(x,y),R(y)",
]


def make_engine(**kw):
    db = complete_database({"R": 1, "S": 2}, 3, p=0.4)
    return QueryEngine(db, **kw), [parse_ucq(s) for s in QUERIES]


class TestEvictionPolicy:
    def test_size_aware_order_prefers_big_cold_victims(self):
        """The size-lru policy must evict one huge cold lineage before the
        small queries that merely happen to be older."""
        engine, _ = make_engine()
        small_old = parse_ucq("R(1)")  # single-tuple lineage: no decisions
        big = parse_ucq("S(x,y)")      # full 9-tuple disjunction
        fresh = parse_ucq("R(2)")
        engine.probability(small_old)
        engine.probability(big)
        engine.probability(fresh)
        order = engine._eviction_order(keep=fresh)
        assert order[0] == big

    def test_size_aware_eviction_keeps_shared_structure_cheap(self):
        """Nodes shared with other cached queries (or with the protected
        query) are not charged to any victim's exclusive footprint."""
        engine, queries = make_engine()
        for q in queries:
            engine.probability(q)
        keep = queries[-1]
        order = engine._eviction_order(keep=keep)
        assert keep not in order
        assert set(order) == set(queries[:-1])
