"""Fault-tolerance chaos suite (``-m faults``).

The invariant everything here enforces: **no future is ever stranded** —
for any seeded :class:`~repro.service.faults.FaultPlan` (kills before
and after tasks × dropped and corrupted replies × delays, in both
execution modes), every submitted task resolves, with a value that is
**bit-identical to serial** or with a typed
:class:`~repro.service.errors.ServiceError`.  Because fault plans are
deterministic (addressed by parent-side send ordinals, each firing at
most once), restart counts are asserted *exactly*, not as ``>= 1``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq
from repro.service import (
    DeadlineExceeded,
    FaultPlan,
    PoolClosed,
    QueryService,
    RestartPolicy,
    ServiceSaturated,
    TaskPoisoned,
    WorkerPool,
    WorkerRetired,
)

pytestmark = pytest.mark.faults

QUERIES = [
    "R(x),S(x,y)",
    "S(x,y)",
    "R(x),S(x,x)",
    "R(x),S(x,y) | S(y,y)",
    "S(x,x)",
    "R(x) | S(x,y)",
]

# Plenty of lives and no poison verdicts: determinism tests assert exact
# restart counts, so no fault may be converted into a quarantine.
LENIENT = RestartPolicy(
    max_restarts=100, poison_threshold=100, backoff_base=0.001, backoff_max=0.002
)


def _db(domain: int = 3, p: float = 0.4) -> ProbabilisticDatabase:
    return complete_database({"R": 1, "S": 2}, domain, p=p)


def _queries():
    return [parse_ucq(t) for t in QUERIES]


def _serial_expectations(db, qs, exact=True):
    engine = QueryEngine(db)
    return [engine.probability(q, exact=exact) for q in qs], engine.vtree


def _submit_everywhere(pool, qs, workers, *, exact=True):
    """Every query on every worker's own shard (steal=False pools): all
    task ordinals below ``len(qs)`` are reached on every worker, so every
    planned fault is guaranteed to fire."""
    futures = {}
    for w in range(workers):
        for i, q in enumerate(qs):
            futures[(w, i)] = pool.submit(w, q, exact=exact)
    return futures


class TestFaultPlanDeterminism:
    def test_same_seed_same_plan(self):
        a = FaultPlan.random(17, workers=4, tasks=6, kills=2, drops=1, corruptions=1)
        b = FaultPlan.random(17, workers=4, tasks=6, kills=2, drops=1, corruptions=1)
        assert a == b
        assert a.expected_restarts() == 4

    def test_distinct_slots(self):
        plan = FaultPlan.random(3, workers=2, tasks=6, kills=3, drops=2, corruptions=2)
        slots = (
            list(plan.kills_before)
            + list(plan.kills_after)
            + list(plan.dropped_replies)
            + list(plan.corrupt_replies)
        )
        assert len(slots) == len(set(slots)) == 7

    def test_overfull_plan_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.random(0, workers=1, tasks=2, kills=3)

    def test_plan_pickles(self):
        import pickle

        plan = FaultPlan.random(5, workers=2, tasks=4, kills=1, delayed=2)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestChaosThreads:
    """Hypothesis chaos, threads mode: for random seeded plans, every
    completed batch is bit-identical to serial and the restart count
    matches the plan exactly."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        workers=st.sampled_from([2, 4]),
        kills=st.integers(min_value=0, max_value=3),
        delayed=st.integers(min_value=0, max_value=2),
    )
    def test_chaos_bit_identical_and_counted(self, seed, workers, kills, delayed):
        db = _db()
        qs = _queries()
        expect, vtree = _serial_expectations(db, qs)
        plan = FaultPlan.random(
            seed,
            workers=workers,
            tasks=len(qs),
            kills=kills,
            delayed=delayed,
            max_delay=0.01,
        )
        with WorkerPool(
            db,
            workers=workers,
            vtree=vtree,
            steal=False,
            fault_plan=plan,
            restart=LENIENT,
        ) as pool:
            futures = _submit_everywhere(pool, qs, workers)
            for (w, i), f in futures.items():
                assert f.result(timeout=120).probability == expect[i]
            stats = pool.stats()
        assert stats["pool_restarts"] == plan.expected_restarts()
        assert stats["pool_tasks_replayed"] >= stats["pool_restarts"] - kills
        assert stats["pool_live_workers"] == workers

    def test_steal_enabled_chaos_still_bit_identical(self):
        # With stealing on, which ordinal a fault hits is schedule-
        # dependent — so only the hard invariants are asserted: every
        # future resolves, answers are bit-identical, nothing poisoned.
        db = _db()
        qs = _queries() * 2
        expect, vtree = _serial_expectations(db, qs)
        plan = FaultPlan.random(99, workers=3, tasks=len(qs), kills=3)
        with WorkerPool(
            db, workers=3, vtree=vtree, steal=True, fault_plan=plan, restart=LENIENT
        ) as pool:
            futures = [pool.submit(i % 3, q, exact=True) for i, q in enumerate(qs)]
            got = [f.result(timeout=120).probability for f in futures]
            assert got == expect
            assert pool.stats()["pool_poisoned"] == 0


class TestChaosSpawn:
    """Real child processes, fixed seeds (spawn restarts cost an
    interpreter start each — a handful of deterministic plans, not a
    hypothesis search)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kills_recovered_bit_identical(self, seed):
        db = _db()
        qs = _queries()
        expect, vtree = _serial_expectations(db, qs)
        plan = FaultPlan.random(seed, workers=2, tasks=len(qs), kills=2)
        with WorkerPool(
            db,
            workers=2,
            vtree=vtree,
            mode="spawn",
            steal=False,
            fault_plan=plan,
            restart=LENIENT,
        ) as pool:
            futures = _submit_everywhere(pool, qs, 2)
            for (w, i), f in futures.items():
                assert f.result(timeout=120).probability == expect[i]
            stats = pool.stats()
        assert stats["pool_restarts"] == plan.expected_restarts() == 2

    def test_dropped_and_corrupt_replies_recovered(self):
        db = _db()
        qs = _queries()
        expect, vtree = _serial_expectations(db, qs)
        plan = FaultPlan(
            dropped_replies=frozenset({(0, 1)}),
            corrupt_replies=frozenset({(1, 0)}),
        )
        with WorkerPool(
            db,
            workers=2,
            vtree=vtree,
            mode="spawn",
            steal=False,
            fault_plan=plan,
            restart=LENIENT,
            hang_timeout=1.0,  # the dropped reply is only caught by this
        ) as pool:
            futures = _submit_everywhere(pool, qs, 2)
            for (w, i), f in futures.items():
                assert f.result(timeout=120).probability == expect[i]
            stats = pool.stats()
        assert stats["pool_restarts"] == plan.expected_restarts() == 2

    def test_external_sigkill_mid_batch(self):
        """Not an injected fault: a real ``SIGKILL`` from outside, mid
        batch — the stranded-futures regression test.  Every future must
        still resolve bit-identically."""
        db = _db()
        qs = _queries() * 4
        expect, vtree = _serial_expectations(db, qs)
        with WorkerPool(
            db, workers=2, vtree=vtree, mode="spawn", steal=False, restart=LENIENT
        ) as pool:
            warm = pool.submit(0, qs[0], exact=True)
            assert warm.result(timeout=120).probability == expect[0]
            futures = [
                pool.submit(i % 2, q, exact=True) for i, q in enumerate(qs)
            ]
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            got = [f.result(timeout=120).probability for f in futures]
            assert got == expect
            assert pool.stats()["pool_restarts"] >= 1


class TestPoisonQuarantine:
    @pytest.mark.parametrize("mode", ["threads", "spawn"])
    def test_poison_task_quarantined_pool_survives(self, mode):
        db = _db()
        qs = _queries()
        expect, vtree = _serial_expectations(db, qs)
        # The first task sent to worker 0 dies three times in a row.
        plan = FaultPlan(kills_before=frozenset({(0, 0), (0, 1), (0, 2)}))
        with WorkerPool(
            db,
            workers=2,
            vtree=vtree,
            mode=mode,
            steal=False,
            fault_plan=plan,
            restart=RestartPolicy(
                max_restarts=100, poison_threshold=3, backoff_base=0.001
            ),
        ) as pool:
            doomed = pool.submit(0, qs[0], exact=True)
            bystander = pool.submit(1, qs[1], exact=True)
            with pytest.raises(TaskPoisoned) as ei:
                doomed.result(timeout=120)
            assert ei.value.kills == 3
            # The unrelated future was never harmed...
            assert bystander.result(timeout=120).probability == expect[1]
            # ...and the killer worker was restarted, not retired: the
            # same shard keeps serving.
            after = pool.submit(0, qs[2], exact=True)
            assert after.result(timeout=120).probability == expect[2]
            stats = pool.stats()
        assert stats["pool_poisoned"] == 1
        assert stats["pool_live_workers"] == 2


class TestRetirement:
    def test_out_of_lives_worker_retires_and_work_rehomes(self):
        db = _db()
        qs = _queries()
        expect, vtree = _serial_expectations(db, qs)
        # Worker 0 dies on its first two sends; one restart allowed.
        plan = FaultPlan(kills_before=frozenset({(0, 0), (0, 1)}))
        with WorkerPool(
            db,
            workers=2,
            vtree=vtree,
            steal=False,
            fault_plan=plan,
            restart=RestartPolicy(
                max_restarts=1, poison_threshold=100, backoff_base=0.001
            ),
        ) as pool:
            futures = [pool.submit(0, q, exact=True) for q in qs]
            got = [f.result(timeout=120).probability for f in futures]
            assert got == expect  # rehomed to worker 1, still exact
            stats = pool.stats()
            assert stats["pool_retired_workers"] == 1
            assert stats["pool_live_workers"] == 1
            # New submissions to the retired shard reroute to survivors.
            f = pool.submit(0, qs[0], exact=True)
            assert f.result(timeout=120).probability == expect[0]


class TestHungWorkerClose:
    def test_close_terminates_hung_child_promptly(self):
        """The ``close()`` terminate backstop, exercised for real: a
        fault-wedged child never answers and never reads the shutdown
        sentinel — close must still return promptly, terminate it, and
        resolve the in-flight future with a typed error."""
        db = _db(domain=2)
        _, vtree = _serial_expectations(db, _queries())
        plan = FaultPlan(hangs=frozenset({(0, 0)}))
        pool = WorkerPool(db, workers=1, vtree=vtree, mode="spawn", fault_plan=plan)
        f = pool.submit(0, _queries()[0], exact=True)
        time.sleep(0.5)  # let the child pick the task up and wedge
        t0 = time.monotonic()
        pool.close()
        elapsed = time.monotonic() - t0
        assert elapsed < 8, f"close() stalled {elapsed:.1f}s on a hung child"
        with pytest.raises(PoolClosed):
            f.result(timeout=5)
        assert not pool._procs[0].is_alive()

    def test_hang_timeout_recovers_without_close(self):
        db = _db(domain=2)
        qs = _queries()
        expect, vtree = _serial_expectations(db, qs)
        plan = FaultPlan(hangs=frozenset({(0, 0)}))
        with WorkerPool(
            db,
            workers=1,
            vtree=vtree,
            mode="spawn",
            fault_plan=plan,
            restart=LENIENT,
            hang_timeout=1.0,
        ) as pool:
            f = pool.submit(0, qs[0], exact=True)
            assert f.result(timeout=120).probability == expect[0]
            assert pool.stats()["pool_restarts"] == 1


class TestPoolDeadlines:
    @pytest.mark.parametrize("mode", ["threads", "spawn"])
    def test_impossible_deadline_fails_typed_pool_survives(self, mode):
        db = _db()
        qs = _queries()
        expect, vtree = _serial_expectations(db, qs)
        with WorkerPool(db, workers=2, vtree=vtree, mode=mode, steal=False) as pool:
            doomed = pool.submit(0, qs[0], exact=True, timeout=1e-9)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=120)
            fine = pool.submit(0, qs[0], exact=True, timeout=120.0)
            assert fine.result(timeout=120).probability == expect[0]
            stats = pool.stats()
        assert stats["pool_deadline_exceeded"] == 1
        assert stats["pool_restarts"] == 0  # deadlines never shoot workers


class TestServiceDegradation:
    def test_fallback_backend_answers_degraded(self):
        """``fallback=True`` answers each casualty on a fresh engine whose
        vtree is the query's own hierarchy order, not the service's."""
        db = complete_database({"R": 1, "S": 2, "T": 1, "U": 2}, 3, p=0.4)
        # The service's vtree comes from R(x),T(x); on it S·S·U compiles
        # to 160 nodes, on its own vtree to 128.
        qs = [parse_ucq(t) for t in ("R(x),T(x)", "S(x,y),S(y,z),U(z,w)", "R(x),S(x,y)")]
        own = [QueryEngine(db) for _ in qs]
        expect = [e.probability(q, exact=True) for e, q in zip(own, qs)]
        with QueryService(
            db,
            workers=2,
            default_timeout=1e-9,
            fallback=True,
            degrade_after=1,
        ) as svc:
            answers = svc.submit_sync(qs, exact=True)
            assert [a.probability for a in answers] == expect  # still exact
            assert all(a.degraded and not a.cached for a in answers)
            assert [a.size for a in answers] == [
                e.compiled_size(q) for e, q in zip(own, qs)
            ]
            shared = QueryEngine(db, vtree=svc.vtree)
            assert shared.lineage_size(qs[1]) == 160
            assert answers[1].size == 128
            stats = svc.stats()
        assert stats["service_degraded_answers"] == len(qs)
        assert stats["service_deadline_exceeded"] == len(qs)
        assert stats["admission_in_flight"] == 0
        assert stats["cache_entries"] == 0  # degraded answers stay uncached

    def test_update_waits_for_fallback_in_progress(self, monkeypatch):
        """A casualty keeps its admission slot while its fallback runs, so
        ``apply_update`` drains it before touching the database."""
        import repro.service.service as service_module

        db = _db()
        q = _queries()[0]
        expect = QueryEngine(_db()).probability(q, exact=True)
        started, release = threading.Event(), threading.Event()

        class GatedEngine(QueryEngine):
            def probability(self, *args, **kwargs):
                started.set()
                assert release.wait(60)
                return super().probability(*args, **kwargs)

        monkeypatch.setattr(service_module, "QueryEngine", GatedEngine)
        with QueryService(
            db, workers=1, default_timeout=1e-9, fallback=True, degrade_after=1
        ) as svc:
            answers = []
            client = threading.Thread(
                target=lambda: answers.extend(svc.submit_sync([q], exact=True))
            )
            client.start()
            assert started.wait(60)
            # Built on a twin: the service's database must not move yet.
            delta = _db().set_probability("R", 1, p=0.9)
            updated = threading.Event()
            updater = threading.Thread(
                target=lambda: (svc.apply_update(delta), updated.set())
            )
            updater.start()
            assert not updated.wait(0.3)  # held back by the fallback's slot
            assert svc.stats()["admission_in_flight"] == 1
            release.set()
            client.join(60)
            updater.join(60)
            assert not client.is_alive() and not updater.is_alive()
            assert updated.is_set()
        # Answered against the database as it was before the update.
        assert answers[0].degraded and answers[0].probability == expect

    def test_fallback_leaves_the_pool_thread_serving(self, monkeypatch):
        """A fallback compile runs off the pool thread that resolved the
        casualty: with one worker, a second query answers while the
        first one's fallback is still held at its gate."""
        import repro.service.service as service_module

        db = _db()
        doomed, fine = (parse_ucq(t) for t in ("R(x),S(x,y)", "S(x,y)"))
        expect = QueryEngine(_db()).probability(fine, exact=True)
        started, gate, fell_back = threading.Event(), threading.Event(), threading.Event()

        class GatedEngine(QueryEngine):
            def probability(self, *args, **kwargs):
                started.set()
                gate.wait(1.0)
                try:
                    return super().probability(*args, **kwargs)
                finally:
                    fell_back.set()

        monkeypatch.setattr(service_module, "QueryEngine", GatedEngine)
        with QueryService(db, workers=1, fallback=True, degrade_after=1) as svc:
            answers = []
            client = threading.Thread(
                target=lambda: answers.extend(
                    svc.submit_sync([doomed], exact=True, timeout=1e-9)
                )
            )
            client.start()
            assert started.wait(60)
            second = svc.submit_sync([fine], exact=True, timeout=60)[0]
            assert not fell_back.is_set()  # answered before the gate opened
            gate.set()
            client.join(60)
            assert not client.is_alive()
        assert second.probability == expect and not second.degraded
        assert answers[0].degraded

    def test_per_query_timeout_overrides_default(self):
        db = _db()
        q = _queries()[0]
        serial = QueryEngine(db)
        with QueryService(db, workers=2, default_timeout=1e-9, degrade_after=100) as svc:
            # Generous per-call override beats the hostile default.
            assert svc.probability(q, timeout=120.0) == serial.probability(q)
            with pytest.raises(DeadlineExceeded):
                svc.probability(_queries()[1])

    def test_breaker_trips_without_fallback(self):
        db = _db()
        qs = _queries()
        with QueryService(db, workers=2, default_timeout=1e-9, degrade_after=1) as svc:
            with pytest.raises(DeadlineExceeded):
                svc.probability(qs[0])
            with pytest.raises(ServiceSaturated) as ei:
                svc.probability(qs[1])
            assert ei.value.retry_after > 0
            assert svc.stats()["service_breaker_trips"] == 1
        # The breaker heals with time: not asserted with sleeps here —
        # the window math is deterministic (retry_after_base * streak).

    def test_success_resets_streak(self):
        db = _db()
        qs = _queries()
        with QueryService(db, workers=2, degrade_after=2) as svc:
            with pytest.raises(DeadlineExceeded):
                svc.probability(qs[0], timeout=1e-9)
            svc.probability(qs[1])  # success: streak back to zero
            with pytest.raises(DeadlineExceeded):
                svc.probability(qs[2], timeout=1e-9)  # streak 1 < 2: no trip
            svc.probability(qs[3])
            assert svc.stats()["service_breaker_trips"] == 0


class TestServiceSupervised:
    def test_service_over_faulty_spawn_pool(self):
        db = _db()
        qs = _queries()
        serial = QueryEngine(db)
        expect = [serial.probability(q, exact=True) for q in qs]
        plan = FaultPlan(kills_after=frozenset({(0, 0)}))
        with QueryService(
            db,
            workers=2,
            mode="spawn",
            steal=False,
            restart=LENIENT,
            fault_plan=plan,
        ) as svc:
            answers = svc.submit_sync(qs, exact=True)
            assert [a.probability for a in answers] == expect
            stats = svc.stats()
        assert stats["pool_restarts"] == 1
        assert stats["admission_in_flight"] == 0  # nothing stranded


class TestRestartAfterUpdate:
    def test_restart_after_update_keeps_artifact_vtree(self, tmp_path):
        # The base artifact holds only R(x),S(x,y); the query outside it
        # compiles to 370 nodes on the artifact's vtree and to 418 on its
        # own hierarchy-order vtree.
        db = complete_database({"R": 1, "S": 2, "T": 1, "U": 2}, 3, p=0.4)
        base = QueryEngine(db)
        base.probability(parse_ucq("R(x),S(x,y)"))
        path = tmp_path / "base.rpaf"
        base.save_artifact(path)
        q = parse_ucq("S(x,y),U(y,z),S(z,w)")
        # Ordinal 1 is the first task after the update (control messages
        # take no ordinal): the child dies before it and restarts from the
        # pool's current state, with the artifact already dropped.
        plan = FaultPlan(kills_before=frozenset({(0, 1)}))
        with WorkerPool(
            db, workers=1, mode="spawn", artifact=path, restart=LENIENT, fault_plan=plan
        ) as pool:
            before = pool.submit(0, q).result(timeout=120)
            pool.apply_update(db.set_probability("R", 1, p=0.7))
            after = pool.submit(0, q).result(timeout=120)
            fresh = QueryEngine(db, vtree=pool.vtree)
            expect = fresh.probability(q)
            stats = pool.stats()
        assert stats["pool_restarts"] == 1
        assert before.size == after.size == fresh.compiled_size(q)
        assert repr(after.probability) == repr(expect)


class TestAdmissionOnSubmitFailure:
    """A batch whose ``pool.submit`` raises part-way holds no slot."""

    def test_every_worker_retired_releases_the_batch(self):
        db = _db()
        qs = _queries()
        svc = QueryService(
            db,
            workers=1,
            restart=RestartPolicy(max_restarts=0),
            fault_plan=FaultPlan(kills_before=frozenset({(0, 0)})),
        )
        try:
            with pytest.raises(WorkerRetired):
                svc.submit_sync(qs[:1])
            with pytest.raises(PoolClosed, match="every worker is retired"):
                svc.submit_sync(qs[1:3])
            assert svc.stats()["admission_in_flight"] == 0
            assert svc.shutdown(0.2) is True
        finally:
            svc.close()

    def test_submitted_tasks_keep_their_callbacks(self, monkeypatch):
        db = _db()
        qs = _queries()
        with QueryService(db, workers=1) as svc:
            svc.probability(qs[0])  # answer-cached from here on
            submit = svc.pool.submit
            calls = []

            def flaky(*args, **kwargs):
                calls.append(args)
                if len(calls) == 2:
                    raise PoolClosed("injected")
                return submit(*args, **kwargs)

            monkeypatch.setattr(svc.pool, "submit", flaky)
            # A cache hit, a submitted task, the raise, a query never reached.
            with pytest.raises(PoolClosed, match="injected"):
                svc.submit_sync(qs[:4])
            assert svc.shutdown(drain_timeout=10) is True
            stats = svc.stats()
        assert stats["admission_in_flight"] == 0
        # qs[1]'s task completed through its callback and was cached.
        assert stats["service_queries"] == 3
        assert stats["cache_entries"] == 2


class TestGracefulShutdown:
    def test_shutdown_drains_then_rejects(self):
        db = _db()
        qs = _queries()
        serial = QueryEngine(db)
        with QueryService(db, workers=2) as svc:
            assert svc.probability(qs[0]) == serial.probability(qs[0])
            assert svc.shutdown(drain_timeout=10.0) is True
            with pytest.raises(PoolClosed):
                svc.probability(qs[1])
            assert svc.shutdown() is True  # idempotent

    def test_draining_rejects_with_retry_hint(self):
        db = _db()
        qs = _queries()
        svc = QueryService(db, workers=2)
        try:
            svc.probability(qs[0])
            svc._draining = True  # the window between signal and close
            with pytest.raises(ServiceSaturated):
                svc.probability(qs[1])
        finally:
            svc.close()

    def test_serve_cli_sigterm_smoke(self):
        """End to end: ``serve --forever`` in a real subprocess, SIGTERM,
        graceful drain, exit code 0."""
        repo = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "R(x),S(x,y); S(x,x)",
                "--domain",
                "2",
                "--workers",
                "2",
                "--forever",
                "--deadline-ms",
                "30000",
            ],
            cwd=repo,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            marker = "serving forever"
            lines = []
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                lines.append(line)
                if marker in line:
                    break
            assert any(marker in l for l in lines), f"no marker in {lines!r}"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            proc.wait(timeout=10)
            raise
        assert proc.returncode == 0, out
        assert "graceful shutdown complete (drained=True)" in out
        assert "service stats:" in out
