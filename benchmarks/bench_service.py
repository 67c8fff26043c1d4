"""Always-on query service: warm-pool amortization and serving latency.

The tentpole bench for :class:`~repro.service.QueryService`, two halves:

1. **Warm vs cold spawn** — a fresh spawn-mode
   :class:`~repro.service.QueryService` (``steal=False``) per batch pays
   the full process-pool cost *per batch* (interpreter start, imports,
   db + vtree transfer, cache warm-up); the service's persistent
   :class:`~repro.service.pool.WorkerPool` pays it once and then serves
   every later batch over warm pipes into warm engines.  Criterion:
   serving ``N`` batches through the warm service is at least
   ``WARM_MIN_SPEEDUP`` (3x) faster than ``N`` cold spawn evaluations,
   with bit-identical answers.

2. **Concurrent sessions** — thousands of asyncio sessions hammer one
   threads-mode service at once, each retrying politely on
   :exc:`~repro.service.errors.ServiceSaturated` (the bounded
   in-flight window at work).  Reported: p50/p99 session latency, the
   answer-cache hit rate (asserted ``>= HIT_RATE_FLOOR`` — cross-session
   sharing is the point), admission rejections, and steals.  Every
   session's answers are asserted bit-identical to a serial engine.

Run stand-alone: ``python benchmarks/bench_service.py [--smoke]``
(``--smoke`` uses CI-friendly sizes and keeps every assertion; only the
full run rewrites ``BENCH_service.json``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import time
from pathlib import Path

from repro.queries.database import complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq
from repro.service import QueryService, ServiceSaturated

try:  # pytest run
    from .conftest import report
except ImportError:  # stand-alone smoke run
    from repro.util.report import report

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"

DOMAIN = 3
QUERIES = [
    "R(x),S(x,y)",
    "S(x,y)",
    "R(x),S(x,x)",
    "R(x),S(x,y) | S(y,y)",
    "S(x,x)",
    "R(x) | S(x,y)",
]

# Acceptance floors (measured: warm ~10-30x on this box; hit rate ~0.99).
WARM_MIN_SPEEDUP = 3.0
HIT_RATE_FLOOR = 0.9


def _workload():
    db = complete_database({"R": 1, "S": 2}, DOMAIN, p=0.4)
    qs = [parse_ucq(t) for t in QUERIES]
    return db, qs


def _serial_expectations(db, qs):
    engine = QueryEngine(db)
    return [engine.probability(q, exact=True) for q in qs]


def _percentile(sorted_vals, q):
    idx = min(len(sorted_vals) - 1, round(q * (len(sorted_vals) - 1)))
    return sorted_vals[idx]


# ----------------------------------------------------------------------
# 1. warm service vs cold per-batch spawn
# ----------------------------------------------------------------------
def run_warm_vs_cold(batches: int, *, workers: int = 2) -> dict:
    db, qs = _workload()
    expect = _serial_expectations(db, qs)

    t0 = time.perf_counter()
    for _ in range(batches):
        # Cold baseline: a fresh service, hence a fresh spawn pool, per
        # batch — started, used once, and closed.
        with QueryService(db, workers=workers, mode="spawn", steal=False) as cold:
            answers = cold.submit_sync(qs, exact=True)
        assert [a.probability for a in answers] == expect, "cold spawn diverged from serial"
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    with QueryService(db, workers=workers, mode="spawn") as svc:
        for i in range(batches):
            answers = svc.submit_sync(qs, session=f"batch{i}", exact=True)
            assert [a.probability for a in answers] == expect, (
                "warm service diverged from serial"
            )
        stats = svc.stats()
    warm_s = time.perf_counter() - t0

    speedup = cold_s / max(warm_s, 1e-9)
    report(
        f"warm service vs cold spawn ({batches} batches x {len(qs)} queries, "
        f"{workers} workers, {os.cpu_count()} CPUs)",
        ["path", "time (s)", "s/batch", "speedup"],
        [
            ["cold spawn per batch", round(cold_s, 3), round(cold_s / batches, 3), 1.0],
            ["warm QueryService", round(warm_s, 3), round(warm_s / batches, 3),
             round(speedup, 2)],
        ],
    )
    assert speedup >= WARM_MIN_SPEEDUP, (
        f"warm service only {speedup:.1f}x faster than cold spawn; "
        f"need >= {WARM_MIN_SPEEDUP}x"
    )
    return {
        "batches": batches,
        "workers": workers,
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "speedup": round(speedup, 2),
        "cache_hits": stats["cache_hits"],
        "cache_misses": stats["cache_misses"],
    }


# ----------------------------------------------------------------------
# 2. thousands of concurrent sessions with admission control
# ----------------------------------------------------------------------
def run_concurrent_sessions(
    n_sessions: int, *, workers: int = 4, max_in_flight: int = 64
) -> dict:
    db, qs = _workload()
    expect = _serial_expectations(db, qs)
    latencies: list[float] = []

    with QueryService(
        db, workers=workers, max_in_flight=max_in_flight
    ) as svc:

        async def one_session(i: int):
            t0 = time.perf_counter()
            while True:
                try:
                    answers = await svc.submit(qs, session=f"s{i}", exact=True)
                    break
                except ServiceSaturated as exc:
                    # The admission contract: back off for the hinted
                    # interval, then resubmit the whole batch.
                    await asyncio.sleep(exc.retry_after)
            latencies.append(time.perf_counter() - t0)
            return answers

        async def drive():
            return await asyncio.gather(
                *(one_session(i) for i in range(n_sessions))
            )

        all_answers = asyncio.run(drive())
        stats = svc.stats()

    for answers in all_answers:
        assert [a.probability for a in answers] == expect, (
            "a session's answers diverged from serial"
        )

    lat = sorted(latencies)
    p50 = _percentile(lat, 0.50)
    p99 = _percentile(lat, 0.99)
    lookups = stats["cache_hits"] + stats["cache_misses"]
    hit_rate = stats["cache_hits"] / max(lookups, 1)
    report(
        f"{n_sessions} concurrent sessions x {len(qs)} queries "
        f"({workers} workers, in-flight window {max_in_flight})",
        ["sessions", "p50 (ms)", "p99 (ms)", "hit rate", "rejected", "steals"],
        [[n_sessions, round(p50 * 1e3, 2), round(p99 * 1e3, 2),
          round(hit_rate, 4), stats["admission_rejected"], stats["pool_steals"]]],
    )
    assert hit_rate >= HIT_RATE_FLOOR, (
        f"answer-cache hit rate {hit_rate:.3f} below {HIT_RATE_FLOOR} — "
        f"cross-session sharing is not working"
    )
    assert stats["service_sessions"] == n_sessions
    return {
        "sessions": n_sessions,
        "workers": workers,
        "max_in_flight": max_in_flight,
        "p50_ms": round(p50 * 1e3, 3),
        "p99_ms": round(p99 * 1e3, 3),
        "cache_hit_rate": round(hit_rate, 4),
        "cache_hits": stats["cache_hits"],
        "cache_misses": stats["cache_misses"],
        "admission_rejected": stats["admission_rejected"],
        "admission_peak_in_flight": stats["admission_peak_in_flight"],
        "pool_steals": stats["pool_steals"],
    }


# pytest wrappers (CI-friendly sizes; same assertions as the full run)
def test_warm_service_beats_cold_spawn():
    run_warm_vs_cold(batches=5)


def test_thousand_concurrent_sessions():
    run_concurrent_sessions(1000)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-friendly sizes (keeps every acceptance assertion)",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    warm = run_warm_vs_cold(batches=5 if args.smoke else 8)
    sessions = run_concurrent_sessions(1000 if args.smoke else 2000)
    payload = {
        "benchmark": "QueryService warm pool + admission control vs classic spawn",
        "smoke": args.smoke,
        "cpus": os.cpu_count(),
        "warm_vs_cold_spawn": warm,
        "concurrent_sessions": sessions,
    }
    if args.smoke:
        # Don't clobber the committed full-run regression data.
        print("\n--smoke: assertions checked, JSON not rewritten")
    else:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {OUTPUT}")
    print(f"bench_service finished in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
