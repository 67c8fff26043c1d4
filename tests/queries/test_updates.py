"""Live updates: delta-patched engines are bit-identical to fresh compiles.

The equivalence harness of the incremental-update tentpole: for random
update sequences (weight-only, inserts, deletes, mixed) the patched
engine must reproduce a from-scratch compilation of the updated database
*exactly*, serially and across the pool and service tiers: against a
fresh SDD engine, the same float bit patterns (compared via ``repr``) and
the same exact ``Fraction`` values; against the one-shot bag-by-bag
d-DNNF route (:func:`~repro.queries.evaluate.probability_via_ddnnf`, an
independent compiler), the same exact values.  Weight
updates must additionally stay on the zero-recompilation fast path,
asserted through the ``update_recompiles`` / ``cache_misses`` counters.

Fresh-compile comparisons hand the patched engine's (possibly extended)
vtree to the reference engine: canonical SDDs are per-vtree, so bit
identity is only defined against the same vtree.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.database import (
    ProbabilisticDatabase,
    UpdateDelta,
    complete_database,
)
from repro.queries.engine import QueryEngine
from repro.queries.evaluate import probability_via_ddnnf
from repro.queries.syntax import parse_ucq
from repro.service import QueryService

pytestmark = pytest.mark.updates

QUERIES = [
    "R(x),S(x,y)",
    "S(x,x)",
    "R(x) | S(x,y)",
]

# Short-decimal probabilities: exact-mode Fractions come from
# Fraction(str(p)), so these stay friendly on both rings.
PROBS = [0.15, 0.3, 0.45, 0.6, 0.75, 0.9]


def _db(domain: int = 2) -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    i = 0
    for x in range(1, domain + 1):
        db.add("R", x, p=PROBS[i % len(PROBS)]); i += 1
        for y in range(1, domain + 1):
            db.add("S", x, y, p=PROBS[i % len(PROBS)]); i += 1
    return db


def _queries():
    return [parse_ucq(t) for t in QUERIES]


def _tuples(db):
    return [
        (rel, tup)
        for rel in sorted(db.relations)
        for tup in sorted(db.relations[rel], key=repr)
    ]


# One drawn op = (kind, selector, probability index); kind 0 = weight,
# 1 = insert, 2 = delete.  Selectors are resolved against the database
# state at application time, so any drawn sequence is valid.
ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=len(PROBS) - 1),
    ),
    min_size=1,
    max_size=4,
)

weight_ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=len(PROBS) - 1),
    ),
    min_size=1,
    max_size=5,
)


def assert_matches_fresh(engine: QueryEngine, db, qs, reference: str) -> None:
    """``engine``'s answers equal a from-scratch compile of ``db``: a fresh
    SDD engine on the same vtree (float bits and exact values), or the
    one-shot d-DNNF route (exact values; its float sums run in another
    order)."""
    if reference == "sdd":
        fresh = QueryEngine(db, vtree=engine.vtree)
        for q in qs:
            assert repr(engine.probability(q)) == repr(fresh.probability(q))
            assert engine.probability(q, exact=True) == fresh.probability(
                q, exact=True
            )
    else:
        for q in qs:
            assert engine.probability(q, exact=True) == probability_via_ddnnf(
                q, db, exact=True
            )


def apply_ops(db: ProbabilisticDatabase, ops, sink) -> int:
    """Resolve and apply drawn ops against ``db``, feeding each resulting
    delta to ``sink``; returns how many deltas were produced."""
    next_val = 100  # values no complete database over a small domain uses
    applied = 0
    for kind, sel, pidx in ops:
        p = PROBS[pidx]
        if kind == 1:
            delta = db.insert("S", next_val, 1 + sel % 2, p=p)
            next_val += 1
        else:
            targets = _tuples(db)
            if kind == 2 and len(targets) <= 1:
                continue  # keep the database non-empty
            rel, tup = targets[sel % len(targets)]
            if kind == 0:
                delta = db.set_probability(rel, *tup, p=p)
            else:
                delta = db.delete(rel, *tup)
        sink(delta)
        applied += 1
    return applied


class TestDeltaSemantics:
    def test_delta_apply_is_idempotent_and_ordered(self):
        db = _db()
        twin = _db()
        d1 = db.set_probability("R", 1, p=0.9)
        d2 = db.delete("S", 1, 1)
        assert d1.apply(twin) is True
        assert d1.apply(twin) is False  # already at that version
        assert d2.apply(twin) is True
        assert twin.fingerprint() == db.fingerprint()
        stale = _db()
        with pytest.raises(ValueError, match="out-of-order"):
            d2.apply(stale)  # d1 was skipped

    def test_deltas_are_picklable(self):
        import pickle

        db = _db()
        delta = db.insert("S", 9, 9, p=0.3)
        clone = pickle.loads(pickle.dumps(delta))
        assert clone == delta
        assert isinstance(clone, UpdateDelta)

    def test_mutators_validate(self):
        db = _db()
        with pytest.raises(ValueError):
            db.set_probability("R", 1, p=1.5)
        with pytest.raises(KeyError):
            db.set_probability("R", 99, p=0.5)
        with pytest.raises(KeyError):
            db.insert("R", 1, p=0.5)  # already present
        with pytest.raises(KeyError):
            db.delete("R", 99)


class TestSerialEquivalence:
    @pytest.mark.parametrize("reference", ["sdd", "ddnnf"])
    @settings(max_examples=25)
    @given(ops=ops_strategy)
    def test_patched_engine_matches_fresh_compile(self, reference, ops):
        db = _db()
        qs = _queries()
        engine = QueryEngine(db)
        for q in qs:
            engine.probability(q)
            engine.probability(q, exact=True)

        def check(delta):
            engine.apply_update(delta)
            assert_matches_fresh(engine, db, qs, reference)

        apply_ops(db, ops, check)

    @pytest.mark.parametrize("reference", ["sdd", "ddnnf"])
    @settings(max_examples=25)
    @given(ops=weight_ops_strategy)
    def test_weight_only_zero_recompiles(self, reference, ops):
        db = _db()
        qs = _queries()
        engine = QueryEngine(db)
        for q in qs:
            engine.probability(q)
        misses_before = engine.stats()["cache_misses"]

        applied = 0
        for sel, pidx in ops:
            rel, tup = _tuples(db)[sel % db.size]
            delta = db.set_probability(rel, *tup, p=PROBS[pidx])
            inc = engine.apply_update(delta)
            assert inc["update_recompiles"] == 0
            assert inc["delta_patched_roots"] == 0
            applied += 1
        # Answers still correct after the re-sweep.
        assert_matches_fresh(engine, db, qs, reference)
        stats = engine.stats()
        assert stats["updates_applied"] == applied
        assert stats["update_recompiles"] == 0
        assert stats["cache_misses"] == misses_before, (
            "weight-only updates must never recompile a cached lineage"
        )

    def test_structural_patch_counters(self):
        db = _db()
        qs = _queries()
        engine = QueryEngine(db)
        for q in qs:
            engine.probability(q)
        engine.apply_update(db.insert("S", 50, 1, p=0.3))
        engine.apply_update(db.delete("S", 50, 1))
        stats = engine.stats()
        assert stats["updates_applied"] == 2
        assert stats["delta_patched_roots"] > 0
        assert stats["update_recompiles"] == 0


class TestParallelEquivalence:
    """Sharded services (``steal=False``) broadcast every delta to their
    warm workers and stay bit-identical to a serial engine."""

    @settings(max_examples=8, deadline=None)
    @given(ops=ops_strategy, workers=st.sampled_from([2, 3]))
    def test_threads_parallel_matches_serial(self, ops, workers):
        db, sdb = _db(), _db()
        qs = _queries()
        with QueryService(db, workers=workers, mode="threads", steal=False) as par:
            par.submit_sync(qs)
            serial = QueryEngine(sdb, vtree=par.vtree)
            for q in qs:
                serial.probability(q)

            def broadcast(delta):
                par.apply_update(delta)
                serial.apply_update(delta)  # replays onto sdb (own copy)

            apply_ops(db, ops, broadcast)
            batch = par.submit_sync(qs)
            exact = par.submit_sync(qs, exact=True)
        for i, q in enumerate(qs):
            assert repr(batch[i].probability) == repr(serial.probability(q))
            assert exact[i].probability == serial.probability(q, exact=True)

    @pytest.mark.parametrize("reference", ["sdd", "ddnnf"])
    def test_persistent_pool_update_broadcast(self, reference):
        db, sdb = _db(), _db()
        qs = _queries()
        with QueryService(db, workers=2, mode="threads", steal=False) as par:
            par.submit_sync(qs)
            serial = QueryEngine(sdb, vtree=par.vtree)
            for q in qs:
                serial.probability(q)
            for delta in (
                db.set_probability("R", 1, p=0.85),
                db.insert("S", 60, 1, p=0.4),
                db.delete("S", 1, 2),
            ):
                inc = par.apply_update(delta)
                assert inc["updates_applied"] == 1
                serial.apply_update(delta)
            batch = par.submit_sync(qs)
            exact = par.submit_sync(qs, exact=True)
            for i, q in enumerate(qs):
                assert repr(batch[i].probability) == repr(serial.probability(q))
                assert exact[i].probability == serial.probability(q, exact=True)
        assert_matches_fresh(serial, sdb, qs, reference)


class TestServiceUpdates:
    def test_update_invalidates_answer_cache_and_stays_exact(self):
        db, sdb = _db(), _db()
        qs = _queries()
        with QueryService(db, workers=2, mode="threads") as svc:
            svc.submit_sync(qs)
            again = svc.submit_sync(qs)
            assert all(a.cached for a in again)

            deltas = [
                db.set_probability("S", 1, 1, p=0.2),
                db.insert("S", 70, 1, p=0.35),
                db.delete("R", 2),
            ]
            for delta in deltas:
                inc = svc.apply_update(delta)
                assert inc["updates_applied"] == 1
            answers = svc.submit_sync(qs)
            assert not any(a.cached for a in answers), (
                "stale cached answer served after an update"
            )
            stats = svc.stats()
            assert stats["service_updates_applied"] == 3
            assert stats["service_cache_invalidated"] >= len(qs)

            serial = QueryEngine(sdb, vtree=svc.vtree)
            for delta in deltas:
                serial.apply_update(delta)
            for i, q in enumerate(qs):
                assert repr(answers[i].probability) == repr(serial.probability(q))

    def test_weight_update_keeps_pool_warm(self):
        db = _db()
        qs = _queries()
        # steal=False: a stolen query compiles on the thief's engine, which
        # would shift the per-worker compile counters nondeterministically.
        with QueryService(db, workers=2, mode="threads", steal=False) as svc:
            svc.submit_sync(qs)
            compiled_before = svc.stats()["engine_queries_compiled"]
            inc = svc.apply_update(db.set_probability("R", 1, p=0.65))
            assert inc["update_recompiles"] == 0
            svc.submit_sync(qs)
            stats = svc.stats()
            assert stats["engine_queries_compiled"] == compiled_before, (
                "weight-only update forced pool workers to recompile"
            )


class TestPinnedVtreeBeforeFirstBatch:
    """A pinned vtree grows in the tier that holds it, so an insert that
    arrives before any batch built that tier still reaches it."""

    def _pinned(self, db):
        return QueryEngine(db).evaluate(_queries()).vtree

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_engine(self, workers):
        db, sdb = _db(), _db()
        vtree = self._pinned(db)
        serial = QueryEngine(sdb, vtree=vtree)
        with QueryService(
            db, workers=workers, vtree=vtree, mode="threads", steal=False
        ) as par:
            delta = db.insert("S", 80, 1, p=0.45)
            par.apply_update(delta)
            serial.apply_update(delta)
            batch = par.submit_sync(_queries())
            assert par.vtree.variables == vtree.variables | {delta.var}
        assert [repr(a.probability) for a in batch] == [
            repr(serial.probability(q)) for q in _queries()
        ]

    def test_service(self):
        db, sdb = _db(), _db()
        vtree = self._pinned(db)
        serial = QueryEngine(sdb, vtree=vtree)
        with QueryService(db, workers=2, mode="threads", vtree=vtree) as svc:
            delta = db.insert("S", 80, 1, p=0.45)
            svc.apply_update(delta)
            serial.apply_update(delta)
            answers = svc.submit_sync(_queries())
            assert svc.vtree.variables == vtree.variables | {delta.var}
        assert [repr(a.probability) for a in answers] == [
            repr(serial.probability(q)) for q in _queries()
        ]
