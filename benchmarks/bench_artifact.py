"""Compiled artifacts: load-vs-recompile and spawn-pool warm start.

The tentpole bench for :mod:`repro.artifact`, two halves:

1. **Load vs recompile** — a query engine warm-started from a saved
   artifact (``QueryEngine(db, frozen=path)``) answers the whole
   workload by mmap-ing precompiled tables; the cold path recompiles
   every lineage from scratch.  Criterion: loading is at least
   ``LOAD_MIN_SPEEDUP`` (5x) faster than recompiling, with bit-identical
   float probabilities and **zero** cache misses on the warm engine.

2. **Spawn warm start** — a cold spawn :class:`~repro.service.WorkerPool`
   makes every child compile its shard's lineages; the warm pool ships
   only the artifact *path* and every child mmaps the same file (the OS
   shares one physical copy of the page cache).  Criterion: bit-identical
   answers and zero per-worker recompiles (``cache_misses == 0`` summed
   over workers, every answer served via ``frozen_hits``).

Run stand-alone: ``python benchmarks/bench_artifact.py [--smoke]``
(``--smoke`` uses CI-friendly sizes and keeps every assertion; only the
full run rewrites ``BENCH_artifact.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.queries.database import complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq
from repro.service import WorkerPool, shard_of

try:  # pytest run
    from .conftest import report
except ImportError:  # stand-alone smoke run
    from repro.util.report import report

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_artifact.json"

DOMAIN = 4
QUERIES = [
    "R(x),S(x,y)",
    "S(x,y)",
    "R(x),S(x,x)",
    "R(x),S(x,y) | S(y,y)",
    "S(x,x)",
    "R(x) | S(x,y)",
]

# Acceptance floor (measured: warm engine ~20-100x on this box).
LOAD_MIN_SPEEDUP = 5.0


def _workload():
    db = complete_database({"R": 1, "S": 2}, DOMAIN, p=0.4)
    qs = [parse_ucq(t) for t in QUERIES]
    return db, qs


def _items_by_shard(qs, workers, seed=0):
    items: dict[int, list] = {}
    for i, q in enumerate(qs):
        items.setdefault(shard_of(q, workers, seed), []).append((i, q))
    return items


# ----------------------------------------------------------------------
# 1. artifact load vs full recompile
# ----------------------------------------------------------------------
def run_load_vs_recompile(rounds: int, tmp_dir: Path) -> dict:
    db, qs = _workload()

    # Produce the artifact once (this is the compile cost being amortized).
    base = QueryEngine(db)
    expect = [base.probability(q) for q in qs]
    path = tmp_dir / "bench-base.rpaf"
    base.save_artifact(path)
    artifact_bytes = path.stat().st_size

    # Timed halves: recompiling every lineage vs loading the saved base.
    # (Answer bit-identity is asserted once below, outside the timers.)
    t0 = time.perf_counter()
    for _ in range(rounds):
        cold = QueryEngine(db)
        for q in qs:
            cold.compile(q)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(rounds):
        warm = QueryEngine(db, frozen=path)
        try:
            for q in qs:
                assert warm.cached_root(q) is not None, "artifact missing a root"
        finally:
            warm.close()
    warm_s = time.perf_counter() - t0

    check = QueryEngine(db, frozen=path)
    try:
        got = [check.probability(q) for q in qs]
        stats = check.stats()
    finally:
        check.close()
    assert [repr(g) for g in got] == [repr(e) for e in expect], (
        "artifact answers diverged from live compile"
    )
    assert stats["cache_misses"] == 0, "warm engine recompiled something"
    assert stats["frozen_hits"] >= len(qs)

    speedup = cold_s / max(warm_s, 1e-9)
    report(
        f"artifact load vs recompile ({rounds} rounds x {len(qs)} queries, "
        f"domain {DOMAIN}, artifact {artifact_bytes} bytes)",
        ["path", "time (s)", "s/round", "speedup"],
        [
            ["recompile from scratch", round(cold_s, 3),
             round(cold_s / rounds, 4), 1.0],
            ["mmap saved artifact", round(warm_s, 3),
             round(warm_s / rounds, 4), round(speedup, 2)],
        ],
    )
    assert speedup >= LOAD_MIN_SPEEDUP, (
        f"artifact load only {speedup:.1f}x faster than recompile; "
        f"need >= {LOAD_MIN_SPEEDUP}x"
    )
    return {
        "rounds": rounds,
        "queries": len(qs),
        "artifact_bytes": artifact_bytes,
        "recompile_seconds": round(cold_s, 3),
        "load_seconds": round(warm_s, 3),
        "speedup": round(speedup, 2),
    }


# ----------------------------------------------------------------------
# 2. spawn-pool warm start from one shared artifact file
# ----------------------------------------------------------------------
def run_spawn_warm_start(batches: int, tmp_dir: Path, *, workers: int = 2) -> dict:
    db, qs = _workload()
    base = QueryEngine(db)
    expect = [base.probability(q, exact=True) for q in qs]
    vtree = base.vtree
    path = tmp_dir / "bench-pool.rpaf"
    base.save_artifact(path)

    t0 = time.perf_counter()
    with WorkerPool(db, workers=workers, vtree=vtree, mode="spawn") as pool:
        for _ in range(batches):
            results = pool.run_batch(_items_by_shard(qs, workers), exact=True)
            assert [results[i].probability for i in range(len(qs))] == expect
        cold_stats = pool.worker_stats()
    cold_s = time.perf_counter() - t0
    cold_misses = sum(s["cache_misses"] for s in cold_stats.values())

    t0 = time.perf_counter()
    with WorkerPool(db, workers=workers, mode="spawn", artifact=path) as pool:
        for _ in range(batches):
            results = pool.run_batch(_items_by_shard(qs, workers), exact=True)
            assert [results[i].probability for i in range(len(qs))] == expect, (
                "warm spawn pool diverged from serial"
            )
        warm_stats = pool.worker_stats()
        assert pool.stats()["pool_artifact_warm"] == 1
    warm_s = time.perf_counter() - t0

    warm_misses = sum(s["cache_misses"] for s in warm_stats.values())
    warm_frozen = sum(s["frozen_hits"] for s in warm_stats.values())
    assert warm_misses == 0, (
        f"warm spawn children recompiled {warm_misses} lineages; "
        f"the artifact should serve every shard"
    )
    assert warm_frozen >= len(qs), "warm children never touched the artifact"
    assert cold_misses > 0, "cold baseline unexpectedly compiled nothing"

    report(
        f"spawn pool warm start ({batches} batches x {len(qs)} queries, "
        f"{workers} workers, {os.cpu_count()} CPUs)",
        ["path", "time (s)", "per-worker recompiles", "frozen hits"],
        [
            ["cold spawn (compile per child)", round(cold_s, 3), cold_misses, 0],
            ["warm spawn (mmap artifact)", round(warm_s, 3), warm_misses,
             warm_frozen],
        ],
    )
    return {
        "batches": batches,
        "workers": workers,
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "cold_recompiles": cold_misses,
        "warm_recompiles": warm_misses,
        "warm_frozen_hits": warm_frozen,
    }


# pytest wrappers (CI-friendly sizes; same assertions as the full run)
def test_artifact_load_beats_recompile(tmp_path):
    run_load_vs_recompile(3, tmp_path)


def test_spawn_warm_start_zero_recompiles(tmp_path):
    run_spawn_warm_start(2, tmp_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-friendly sizes (keeps every acceptance assertion)",
    )
    args = parser.parse_args(argv)

    import tempfile

    t0 = time.time()
    with tempfile.TemporaryDirectory() as td:
        tmp_dir = Path(td)
        load = run_load_vs_recompile(3 if args.smoke else 10, tmp_dir)
        spawn = run_spawn_warm_start(2 if args.smoke else 4, tmp_dir)
    payload = {
        "benchmark": "compiled-artifact load vs recompile + spawn warm start",
        "smoke": args.smoke,
        "load_vs_recompile": load,
        "spawn_warm_start": spawn,
    }
    if args.smoke:
        # Don't clobber the committed full-run regression data.
        print("\n--smoke: assertions checked, JSON not rewritten")
    else:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {OUTPUT}")
    print(f"bench_artifact finished in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
