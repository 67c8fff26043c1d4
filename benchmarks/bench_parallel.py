"""Parallel sharded query evaluation: throughput and determinism.

The bench for sharded batches, one ``submit_sync`` on a
:class:`~repro.service.QueryService` with ``steal=False``: a 500-query
rolling session over the 56-tuple complete database (domain 7,
``R``/``S`` schema — the same 4-shape × domain-constant pool as
``bench_session.py``) evaluated at 1, 2 and 4 workers under a *per-worker*
``max_nodes`` budget.

Why sharding wins even before extra cores: the budget (550 nodes) is
deliberately below the 28-query pool's ~700-node working set, so one
serial engine LRU-*thrashes* — a cyclic scan over more queries than fit
evicts every query right before it comes around again (479 evictions /
500 queries).  Sharded, each worker owns the full budget for its ~1/N of
the pool, the shard working sets (~400 nodes at 2 workers, ~130–360 at 4)
fit, and recompilation vanishes — a genuine architectural throughput win
that holds even on a single-CPU host in ``threads`` mode, and compounds
with real parallelism in ``spawn`` mode on multi-core machines.

Asserted invariants (the PR's acceptance criteria):

1. probabilities are **bit-identical** (exact ``Fraction``) across
   ``workers ∈ {1, 2, 4}`` — sharding and shard-local GC never change an
   answer;
2. ≥ ``SPEEDUP_FLOOR`` (1.5×) throughput at 4 workers over the serial
   budgeted session;
3. the mechanism is the claimed one: the serial session evicts, the
   4-worker session does not.

An *unbudgeted* 1-vs-4-worker pair is reported too (no assertion): with no
thrash to eliminate, it isolates what raw parallelism contributes on the
current host (≈1× on one CPU, more on real cores).

Run stand-alone: ``python benchmarks/bench_parallel.py [--smoke]``
(``--smoke`` runs the same 500-query workload and all assertions but
leaves the committed JSON untouched).
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
from repro.service import QueryService

try:  # pytest run
    from .conftest import report
except ImportError:  # stand-alone smoke run
    from repro.util.report import report

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

DOMAIN = 7  # 7 + 49 = 56 tuples
N_QUERIES = 500
MAX_NODES = 550  # below the full pool's ~700-node working set: serial thrashes
WORKER_COUNTS = (1, 2, 4)
SPEEDUP_FLOOR = 1.5

SHAPES = (
    "R({c}),S({c},y)",
    "S({c},y)",
    "S(x,{c})",
    "R({c}),S({c},{c}) | R({c}),S({c},y),S(y,{c})",
)


def query_pool(domain: int) -> list:
    return [
        parse_ucq(shape.format(c=c))
        for c in range(1, domain + 1)
        for shape in SHAPES
    ]


def rolling_workload(domain: int, n_queries: int) -> list:
    pool = query_pool(domain)
    return [pool[i % len(pool)] for i in range(n_queries)]


def run_once(workload, db, *, workers: int, max_nodes, mode: str = "threads"):
    """One timed evaluation; ``workers=1`` is the serial engine path.  A
    parallel run includes starting and closing its service's worker pool."""
    t0 = time.perf_counter()
    if workers == 1:
        batch = QueryEngine(db, max_nodes=max_nodes).evaluate(workload, exact=True)
        probabilities = batch.probabilities
        stats = batch.stats
        mode_used = "serial"
    else:
        with QueryService(
            db, workers=workers, max_nodes=max_nodes, mode=mode, steal=False
        ) as svc:
            answers = svc.submit_sync(workload, exact=True)
            # The workers' summed engine counters, under the serial names.
            stats = {k.removeprefix("engine_"): v for k, v in svc.stats().items()}
        probabilities = [a.probability for a in answers]
        mode_used = stats["pool_mode"]
    elapsed = time.perf_counter() - t0
    return {
        "probabilities": probabilities,
        "seconds": round(elapsed, 3),
        "mode": mode_used,
        "evicted": stats["queries_evicted"],
        "gc_runs": stats.get("gc_runs", 0),
        "live_nodes": stats["manager_nodes"],
    }


def run_benchmark(*, mode: str = "threads") -> dict:
    db = complete_database({"R": 1, "S": 2}, DOMAIN, p=0.5)
    workload = rolling_workload(DOMAIN, N_QUERIES)
    distinct = len(query_pool(DOMAIN))

    runs = {w: run_once(workload, db, workers=w, max_nodes=MAX_NODES, mode=mode)
            for w in WORKER_COUNTS}
    serial = runs[1]

    # 1. Determinism: every worker count answers bit-identically.
    for w in WORKER_COUNTS[1:]:
        assert runs[w]["probabilities"] == serial["probabilities"], (
            f"{w}-worker probabilities differ from serial"
        )

    # 2. Throughput: >= SPEEDUP_FLOOR at 4 workers over the serial session.
    speedup4 = serial["seconds"] / max(runs[4]["seconds"], 1e-9)
    assert speedup4 >= SPEEDUP_FLOOR, (
        f"4-worker speedup {speedup4:.2f}x below the {SPEEDUP_FLOOR}x floor "
        f"(serial {serial['seconds']}s vs {runs[4]['seconds']}s)"
    )

    # 3. Mechanism: the serial budget thrashes, the 4-worker shards fit.
    assert serial["evicted"] > 0, "serial session should overflow its budget"
    assert runs[4]["evicted"] == 0, "4-worker shards should fit their budgets"

    # Unbudgeted pair: what raw parallelism alone contributes on this host.
    unb_serial = run_once(workload, db, workers=1, max_nodes=None, mode=mode)
    unb_par = run_once(workload, db, workers=4, max_nodes=None, mode=mode)
    assert unb_par["probabilities"] == unb_serial["probabilities"]
    assert unb_serial["probabilities"] == serial["probabilities"], (
        "budgeted and unbudgeted sessions disagree"
    )

    rows = [
        [w, runs[w]["mode"], runs[w]["seconds"],
         round(serial["seconds"] / max(runs[w]["seconds"], 1e-9), 2),
         runs[w]["evicted"], runs[w]["gc_runs"], runs[w]["live_nodes"]]
        for w in WORKER_COUNTS
    ]
    report(
        f"parallel session: {N_QUERIES} queries over {distinct} distinct "
        f"({db.size} tuples, per-worker budget {MAX_NODES}, "
        f"{os.cpu_count()} CPUs)",
        ["workers", "mode", "time (s)", "speedup", "evicted", "gc runs",
         "live nodes"],
        rows,
    )
    print(
        f"unbudgeted 1 vs 4 workers: {unb_serial['seconds']}s vs "
        f"{unb_par['seconds']}s (pure-parallelism contribution on this host)"
    )
    return {
        "domain": DOMAIN,
        "tuples": db.size,
        "n_queries": N_QUERIES,
        "distinct_queries": distinct,
        "max_nodes_per_worker": MAX_NODES,
        "speedup_floor": SPEEDUP_FLOOR,
        "cpus": os.cpu_count(),
        "budgeted": {
            str(w): {
                "mode": runs[w]["mode"],
                "seconds": runs[w]["seconds"],
                "speedup_vs_serial": round(
                    serial["seconds"] / max(runs[w]["seconds"], 1e-9), 2
                ),
                "queries_evicted": runs[w]["evicted"],
                "gc_runs": runs[w]["gc_runs"],
                "live_nodes": runs[w]["live_nodes"],
            }
            for w in WORKER_COUNTS
        },
        "unbudgeted": {
            "serial_seconds": unb_serial["seconds"],
            "workers4_seconds": unb_par["seconds"],
        },
    }


# pytest wrapper (returning None keeps PytestReturnNotNoneWarning away)
def test_parallel_speedup_smoke():
    run_benchmark()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-friendly run (same workload + assertions, JSON untouched)",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    entry = run_benchmark()
    if args.smoke:
        print("\n--smoke: assertions checked, JSON not rewritten")
    else:
        payload = {
            "benchmark": "QueryService(steal=False) sharded session (rolling workload)",
            "session": entry,
        }
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {OUTPUT}")
    print(f"bench_parallel finished in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
