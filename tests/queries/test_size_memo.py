"""``QueryEngine.compiled_size`` reads a memo, never a stale size.

The engine walks each cached root once for its size and keeps the number
until the root leaves the compiled-query cache or an update replaces it.
At every step of a session the memoized size must equal a fresh walk of
the root :meth:`~repro.queries.engine.QueryEngine.cached_root` names: in
the shared manager, or in the frozen store for an artifact hit.  Each
scenario changes a query's lineage while its size is memoized (or while
the query is out of the cache), so a memo that misses an invalidation
reports the old size.
"""

from __future__ import annotations

from repro.artifact.store import FrozenSdd
from repro.queries.database import complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq

SCHEMA = {"R": 1, "S": 2, "T": 1}
# The last query has an inequality-only variable (w), so it recompiles
# whenever an update moves the active domain.
QUERIES = [
    parse_ucq(t) for t in ("R(x),S(x,y)", "S(x,y),T(y)", "R(x),T(y),x!=w")
]


def live_sizes(engine: QueryEngine, queries=QUERIES) -> dict:
    """Every query's ``compiled_size`` checked against a fresh walk of its
    live root (``None`` when it is not cached); asking fills the memo."""
    out = {}
    for q in queries:
        root = engine.cached_root(q)
        size = engine.compiled_size(q)
        if root is None:
            assert size is None, q
        else:
            assert size == engine.manager.size(root), q
        out[q] = size
    return out


def changed(before: dict, after: dict) -> set:
    return {q for q in QUERIES if before[q] != after[q]}


def test_memo_follows_weight_insert_delete_and_recompile():
    # Domain {1}: x != w has no witness, so the last query is false.
    db = complete_database(SCHEMA, 1)
    engine = QueryEngine(db)
    for q in QUERIES:
        engine.probability(q)
    cold = live_sizes(engine)
    assert all(size is not None for size in cold.values())

    engine.apply_update(db.set_probability("R", 1, p=0.9))
    assert live_sizes(engine) == cold  # a weight never changes a lineage

    # A new constant: S(x,y) gains a tuple and the domain moves, so the
    # inequality-only query recompiles.
    inc = engine.apply_update(db.insert("S", 1, 2, p=0.5))
    assert inc["update_recompiles"] == 1
    inserted = live_sizes(engine)
    assert changed(cold, inserted) == {QUERIES[0], QUERIES[2]}

    inc = engine.apply_update(db.insert("T", 2, p=0.5))
    assert inc["update_recompiles"] == 0
    widened = live_sizes(engine)
    assert QUERIES[1] in changed(inserted, widened)

    inc = engine.apply_update(db.delete("S", 1, 1))
    assert inc["delta_patched_roots"] >= 1
    deleted = live_sizes(engine)
    assert QUERIES[0] in changed(widened, deleted)

    batch = engine.evaluate(QUERIES)
    assert batch.sizes == [deleted[q] for q in QUERIES]
    assert [engine.lineage_size(q) for q in QUERIES] == batch.sizes


def test_memo_dropped_on_eviction():
    # A one-node budget keeps only the query just asked for.
    db = complete_database(SCHEMA, 2)
    engine = QueryEngine(db, max_nodes=1)
    first, second = QUERIES[0], QUERIES[1]
    engine.probability(first)
    before = live_sizes(engine)[first]
    engine.probability(second)
    assert engine.stats()["queries_evicted"] >= 1
    assert live_sizes(engine)[first] is None
    # Changed while evicted: no patch reaches it, the next ask recompiles.
    engine.apply_update(db.insert("S", 1, 3, p=0.5))
    engine.probability(first)
    after = live_sizes(engine)[first]
    assert after != before


def test_memo_dropped_on_forget_and_gc_reuses_ids():
    db = complete_database(SCHEMA, 2)
    engine = QueryEngine(db)
    first, second, third = QUERIES
    engine.probability(first)
    engine.probability(second)
    before = live_sizes(engine)
    mgr = engine.manager
    freed = mgr.reachable(engine.cached_root(first)) - mgr.reachable(
        engine.cached_root(second)
    )
    assert engine.forget(first)
    assert engine.compiled_size(first) is None
    assert engine.gc()["collected"] > 0
    # New nodes come off the free list: the forgotten root's ids return.
    engine.probability(third)
    assert freed & mgr.reachable(engine.cached_root(third))
    live_sizes(engine)
    engine.apply_update(db.insert("S", 1, 3, p=0.5))
    engine.gc()
    engine.probability(first)
    after = live_sizes(engine)
    assert after[first] != before[first]


def test_frozen_base_sizes(tmp_path):
    db = complete_database(SCHEMA, 2)
    live = QueryEngine(db)
    for q in QUERIES[:2]:
        live.probability(q)
    expect = {q: live.compiled_size(q) for q in QUERIES[:2]}
    path = tmp_path / "base.rpaf"
    live.save_artifact(path)

    base = FrozenSdd.load(path)
    try:
        engine = QueryEngine(db, frozen=base)
        for _ in range(2):
            for q in QUERIES[:2]:
                froot = engine.cached_root(q)
                assert engine.compiled_size(q) == base.size(froot) == expect[q]
        assert engine.compiled_size(QUERIES[2]) is None
        batch = engine.evaluate(QUERIES[:2])
        assert batch.sizes == [expect[q] for q in QUERIES[:2]]
        assert engine.stats()["frozen_hits"] == 2
        assert engine.stats()["queries_compiled"] == 0

        # A structural update drops the base: sizes come from live roots.
        engine.apply_update(db.insert("S", 1, 3, p=0.5))
        assert engine.frozen is None
        assert live_sizes(engine)[QUERIES[0]] is None
        engine.probability(QUERIES[0])
        assert live_sizes(engine)[QUERIES[0]] not in (None, expect[QUERIES[0]])
    finally:
        base.close()


def test_recycled_root_id_reports_its_own_size():
    # One query at a time, forgotten and collected before the next: a
    # later root lands on an id an earlier, larger root had.
    db = complete_database(SCHEMA, 2)
    engine = QueryEngine(db)
    rolling = QUERIES + [parse_ucq(t) for t in ("R(x)", "S(x,x)", "T(x)")]
    sizes_by_root: dict[int, set] = {}
    for q in rolling:
        engine.probability(q)
        size = live_sizes(engine, [q])[q]
        sizes_by_root.setdefault(engine.cached_root(q), set()).add(size)
        engine.forget(q)
        engine.gc()
    assert any(len(sizes) > 1 for sizes in sizes_by_root.values())
