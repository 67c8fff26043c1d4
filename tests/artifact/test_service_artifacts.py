"""Warm starts from artifacts: engine, pool, service, TTL, and CLI.

The wiring half of the ``-m artifact`` suite: a saved artifact must warm
every tier of the stack — ``QueryEngine(frozen=...)`` serves saved
queries with zero compilations, ``WorkerPool(artifact=...)`` ships the
path to spawn children (who mmap the same file) and shares one loaded
store across threads, ``QueryService(artifact_dir=...)`` restarts warm —
and all answers stay **bit-identical** to the cold engine that produced
the artifact.  The answer-cache TTL satellite rides along: expired
entries recompute and count in ``cache_expired``.
"""

from __future__ import annotations

import asyncio
import gc
import warnings
from contextlib import closing, contextmanager

import pytest

from repro.artifact.store import FrozenSdd
from repro.cli import main
from repro.compiler.cache import LruStatsCache
from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq
from repro.service import QueryService, WorkerPool, shard_of

pytestmark = pytest.mark.artifact

QUERIES = [
    "R(x),S(x,y)",
    "S(x,y)",
    "R(x),S(x,x)",
    "R(x) | S(x,y)",
]


def _db(domain: int = 3, p: float = 0.4) -> ProbabilisticDatabase:
    return complete_database({"R": 1, "S": 2}, domain, p=p)


def _queries():
    return [parse_ucq(t) for t in QUERIES]


@contextmanager
def _no_resource_warnings():
    """Fail if anything in the block leaves a file or store unclosed
    (collected at the end of the block, so ``__del__`` warnings count)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks


def _saved_base(tmp_path, db, qs):
    engine = QueryEngine(db)
    expect = [engine.probability(q) for q in qs]
    exact = [engine.probability(q, exact=True) for q in qs]
    path = tmp_path / "base.rpaf"
    engine.save_artifact(path)
    return path, expect, exact


def _wide_base(tmp_path):
    """A base artifact holding only ``R(x),S(x,y)`` over four relations,
    and a query outside it whose SDD on the artifact's vtree (370 nodes)
    is smaller than on its own hierarchy-order vtree (418): an engine
    that derives its own vtree instead of the shared one shows up in the
    size."""
    db = complete_database({"R": 1, "S": 2, "T": 1, "U": 2}, 3, p=0.4)
    engine = QueryEngine(db)
    engine.probability(parse_ucq("R(x),S(x,y)"))
    path = tmp_path / "base.rpaf"
    engine.save_artifact(path)
    return db, path, parse_ucq("S(x,y),U(y,z),S(z,w)")


def _items_by_shard(qs, workers, seed=0):
    items: dict[int, list] = {}
    for i, q in enumerate(qs):
        items.setdefault(shard_of(q, workers, seed), []).append((i, q))
    return items


class TestEngineFrozen:
    def test_frozen_serves_without_compiling(self, tmp_path):
        db = _db()
        qs = _queries()
        path, expect, exact = _saved_base(tmp_path, db, qs)
        with closing(QueryEngine(db, frozen=path)) as warm:
            assert [repr(warm.probability(q)) for q in qs] == [
                repr(e) for e in expect
            ]
            assert [warm.probability(q, exact=True) for q in qs] == exact
            stats = warm.stats()
            assert stats["cache_misses"] == 0
            assert stats["frozen_hits"] >= len(qs)
            assert warm.manager.stats()["decision_nodes"] == 0  # nothing compiled

    def test_unsaved_query_compiles_on_frozen_vtree(self, tmp_path):
        db = _db()
        qs = _queries()
        path, _, _ = _saved_base(tmp_path, db, qs)
        with closing(QueryEngine(db, frozen=path)) as warm:
            novel = parse_ucq("S(x,x)")
            assert warm.probability(novel) == QueryEngine(db).probability(novel)
            assert warm.stats()["cache_misses"] == 1

    def test_batch_evaluate_mixes_frozen_and_live(self, tmp_path):
        db = _db()
        qs = _queries()
        path, _, _ = _saved_base(tmp_path, db, qs)
        with closing(QueryEngine(db, frozen=path)) as warm:
            batch = qs + [parse_ucq("S(x,x)")]
            result = warm.evaluate(batch)
        serial = QueryEngine(db).evaluate(batch)
        assert [r for r in result.probabilities] == [r for r in serial.probabilities]


class TestFrozenOwnership:
    def test_path_loaded_base_closed_on_insert(self, tmp_path):
        db = _db()
        qs = _queries()
        path, _, _ = _saved_base(tmp_path, db, qs)
        with _no_resource_warnings():
            warm = QueryEngine(db, frozen=path)
            warm.probability(qs[0])
            warm.apply_update(db.insert("S", 9, 1, p=0.3))
            assert warm.frozen is None
            del warm

    def test_close_closes_path_loaded_base(self, tmp_path):
        db = _db()
        qs = _queries()
        path, expect, _ = _saved_base(tmp_path, db, qs)
        with _no_resource_warnings():
            warm = QueryEngine(db, frozen=path)
            assert warm.probability(qs[0]) == expect[0]
            warm.close()
            assert warm.frozen is None
            warm.close()  # idempotent
            assert warm.probability(qs[0]) == expect[0]  # compiled live
            del warm

    def test_caller_store_stays_open_on_insert(self, tmp_path):
        db = _db()
        qs = _queries()
        path, _, _ = _saved_base(tmp_path, db, qs)
        store = FrozenSdd.load(path)
        try:
            root = store.root_named(qs[0].normalized())
            size = store.size(root)
            warm = QueryEngine(db, frozen=store)
            warm.probability(qs[0])
            warm.apply_update(db.insert("S", 9, 1, p=0.3))
            assert warm.frozen is None
            assert store.root_named(qs[0].normalized()) == root
            assert store.size(root) == size  # reads the node tables
        finally:
            store.close()

    @pytest.mark.parametrize("update", ["weight", "insert"])
    def test_threads_pool_closes_the_store_it_loaded(self, tmp_path, update):
        """The pool's store outlives a weight update (built engines keep
        reading it) and is closed once: by an insert or delete, else by
        close()."""
        db = _db()
        qs = _queries()
        path, _, _ = _saved_base(tmp_path, db, qs)
        with _no_resource_warnings():
            pool = WorkerPool(db, workers=1, mode="threads", artifact=path).start()
            try:
                pool.submit(0, qs[0]).result()
                store = pool._loaded_store
                assert store is not None
                if update == "weight":
                    pool.apply_update(db.set_probability("R", 1, p=0.7))
                    assert pool._loaded_store is store
                else:
                    pool.apply_update(db.insert("S", 9, 1, p=0.3))
                    assert pool._loaded_store is None
                fresh = QueryEngine(db, vtree=pool.vtree).probability(qs[0])
                assert repr(pool.submit(0, qs[0]).result().probability) == repr(fresh)
            finally:
                pool.close()
            assert pool._loaded_store is None
            del pool, store


class TestPoolWarmStart:
    @pytest.mark.parametrize("mode", ["threads", "spawn"])
    def test_warm_pool_bit_identical_zero_recompiles(self, tmp_path, mode):
        db = _db()
        qs = _queries()
        path, _, exact = _saved_base(tmp_path, db, qs)
        with WorkerPool(db, workers=2, mode=mode, artifact=path) as pool:
            results = pool.run_batch(_items_by_shard(qs, 2), exact=True)
            assert [results[i].probability for i in range(len(qs))] == exact
            assert pool.stats()["pool_artifact_warm"] == 1
            per_worker = pool.worker_stats()
            assert sum(s["cache_misses"] for s in per_worker.values()) == 0
            assert sum(s["frozen_hits"] for s in per_worker.values()) >= len(qs)

    def test_spawn_requires_artifact_path(self):
        db = _db(domain=2)
        engine = QueryEngine(db)
        q = parse_ucq("R(x)")
        engine.probability(q)
        frozen = engine.manager.freeze(
            [engine._roots[q]],
            names=[q.normalized()],
            meta={"db_fingerprint": db.fingerprint()},
        )
        with pytest.raises(ValueError):
            WorkerPool(db, workers=1, mode="spawn", artifact=frozen)

    def test_pool_without_artifact_still_requires_vtree(self):
        with pytest.raises(ValueError):
            WorkerPool(_db(), workers=1)

    def test_engine_built_after_update_shares_artifact_vtree(self, tmp_path):
        db, path, q = _wide_base(tmp_path)
        with WorkerPool(db, workers=2, steal=False, artifact=path) as pool:
            assert pool.submit(0, q).result().worker == 0  # warm engine
            pool.apply_update(db.set_probability("R", 1, p=0.7))
            # Worker 1 builds its engine only now, after the update has
            # dropped the artifact: it must still compile on its vtree.
            late = pool.submit(1, q).result()
            warm = pool.submit(0, q).result()
            fresh = QueryEngine(db, vtree=pool.vtree)
            expect = fresh.probability(q)
            assert (late.worker, warm.worker) == (1, 0)
            assert late.size == warm.size == fresh.compiled_size(q)
            assert repr(late.probability) == repr(warm.probability) == repr(expect)


class TestServiceArtifacts:
    def test_warm_service_vtree_is_every_workers_vtree(self, tmp_path):
        db = _db()
        qs = _queries()
        art_dir = tmp_path / "artifacts"
        art_dir.mkdir()
        engine = QueryEngine(db)
        for q in qs[:2]:
            engine.probability(q)
        engine.save_artifact(art_dir / f"{db.fingerprint()}.rpaf")
        # steal=False: each shard's engine answers its own queries, and
        # the batch spans both shards, so both workers build an engine.
        assert {shard_of(q, 2) for q in qs} == {0, 1}
        with QueryService(
            db, workers=2, mode="threads", steal=False, artifact_dir=art_dir
        ) as svc:
            svc.submit_sync(qs)
            engines = svc.pool.engines()
            assert svc.vtree is not None
            assert sorted(engines) == [0, 1]
            for worker in engines.values():
                assert worker.manager.vtree.to_postfix() == svc.vtree.to_postfix()

    @pytest.mark.parametrize("mode", ["threads", "spawn"])
    def test_cold_save_warm_restart(self, tmp_path, mode):
        db = _db()
        qs = _queries()
        art_dir = tmp_path / "artifacts"
        art_dir.mkdir()
        with QueryService(db, workers=2, mode=mode, artifact_dir=art_dir) as svc:
            cold = svc.submit_sync(qs, exact=True)
            saved = svc.save_artifact()
        assert saved.endswith(".rpaf")

        with QueryService(db, workers=2, mode=mode, artifact_dir=art_dir) as svc:
            warm = svc.submit_sync(qs, exact=True)
            stats = svc.stats()
        assert [a.probability for a in warm] == [a.probability for a in cold]
        assert stats["pool_artifact_warm"] == 1
        assert stats["engine_cache_misses"] == 0
        assert stats["engine_frozen_hits"] >= len(qs)

    def test_cache_ttl_expiry_counts(self):
        db = _db(domain=2)
        qs = _queries()[:2]
        now = [0.0]
        with QueryService(
            db, workers=1, cache_ttl=10.0, cache_clock=lambda: now[0]
        ) as svc:
            svc.submit_sync(qs)
            again = svc.submit_sync(qs)
            assert all(a.cached for a in again)
            now[0] = 11.0
            after = svc.submit_sync(qs)
            assert not any(a.cached for a in after)
            assert svc.stats()["cache_expired"] == len(qs)


class TestTtlCache:
    def test_entries_expire_and_count(self):
        now = [0.0]
        cache = LruStatsCache(4, ttl=5.0, clock=lambda: now[0])
        cache.put("k", 1)
        assert cache.get("k") == 1
        now[0] = 4.9
        assert cache.get("k") == 1
        now[0] = 5.1
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats["cache_expired"] == 1
        assert stats["cache_misses"] >= 1

    def test_no_ttl_never_expires(self):
        cache = LruStatsCache(4)
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.stats()["cache_expired"] == 0


class TestCliArtifacts:
    def test_compile_save_reload(self, tmp_path, capsys):
        path = tmp_path / "c.rpaf"
        with _no_resource_warnings():
            assert main(["compile", "(a & b) | c", "--save", str(path)]) == 0
        out = capsys.readouterr().out
        assert "saved artifact" in out
        assert path.exists()

    def test_query_save_then_load(self, tmp_path, capsys):
        path = tmp_path / "q.rpaf"
        with _no_resource_warnings():
            assert main(
                ["query", "R(x),S(x,y)", "--domain", "2", "--backend", "sdd",
                 "--save", str(path)]
            ) == 0
            first = capsys.readouterr().out
            assert main(
                ["query", "R(x),S(x,y)", "--domain", "2", "--backend", "sdd",
                 "--load", str(path)]
            ) == 0
            second = capsys.readouterr().out
        assert "answered from artifact" in second
        prob = [ln for ln in first.splitlines() if "P(" in ln]
        prob2 = [ln for ln in second.splitlines() if "P(" in ln]
        assert prob and prob == prob2

    def test_query_load_requires_sdd(self, tmp_path, capsys):
        assert main(
            ["query", "R(x)", "--domain", "2", "--backend", "ddnnf",
             "--load", str(tmp_path / "x.rpaf")]
        ) == 1

    def test_serve_artifacts_cold_then_warm(self, tmp_path, capsys):
        art_dir = tmp_path / "arts"
        args = ["serve", "R(x),S(x,y); S(x,y)", "--domain", "2",
                "--artifacts", str(art_dir)]
        with _no_resource_warnings():
            assert main(args) == 0
            cold = capsys.readouterr().out
            assert "artifact" in cold
            assert list(art_dir.glob("*.rpaf"))
            assert main(args) == 0
            warm = capsys.readouterr().out
        assert "pool_artifact_warm=1" in warm or "warm" in warm
