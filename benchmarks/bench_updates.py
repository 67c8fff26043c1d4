"""Live updates: delta-patched re-evaluation vs recompiling from scratch.

The tentpole bench for the incremental-update layer, two halves:

1. **Weight-only re-sweep** — after ``db.set_probability`` the engine's
   :meth:`~repro.queries.engine.QueryEngine.apply_update` evicts only the
   WMC memo entries on the changed variable's leaf-to-root path and
   re-sweeps; the baseline rebuilds a fresh engine and recompiles every
   lineage.  Criterion: the re-sweep path is at least ``MIN_SPEEDUP``
   (5x) faster over a round of updates, with bit-identical float
   probabilities, **zero** recompilations (``update_recompiles == 0``)
   and zero new compiled-cache misses on the live engine.

2. **Structural delta-patch** — inserts disjoin the factorized lineage
   with one atom bound to the new tuple onto the cached root, deletes
   condition the root on the removed tuple's variable; both re-pin
   through the manager instead of recompiling, and neither grounds the
   DNF.  Criterion: every patched answer is bit-identical (float
   *and* exact Fractions) to a fresh engine compiled against the updated
   database on the same extended vtree, with ``delta_patched_roots > 0``
   and ``update_recompiles == 0`` across the sequence.

Run stand-alone: ``python benchmarks/bench_updates.py [--smoke]``
(``--smoke`` uses CI-friendly sizes and keeps every assertion; only the
full run rewrites ``BENCH_updates.json``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq

try:  # pytest run
    from .conftest import report
except ImportError:  # stand-alone smoke run
    from repro.util.report import report

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_updates.json"

QUERIES = [
    "R(x),S(x,y)",
    "S(x,y)",
    "R(x),S(x,x)",
    "R(x),S(x,y) | S(y,y)",
    "R(x) | S(x,y)",
]

# Acceptance floor (measured: re-sweep ~20-200x on this box).
MIN_SPEEDUP = 5.0

# A deterministic probability rotation for the weight rounds.
PROBS = [0.15, 0.35, 0.55, 0.75, 0.95, 0.25, 0.45, 0.65]


def _workload(domain: int):
    db = complete_database({"R": 1, "S": 2}, domain, p=0.4)
    qs = [parse_ucq(t) for t in QUERIES]
    return db, qs


def _tuples(db: ProbabilisticDatabase) -> list[tuple[str, tuple]]:
    out = []
    for rel in sorted(db.relations):
        for tup in sorted(db.relations[rel], key=repr):
            out.append((rel, tup))
    return out


# ----------------------------------------------------------------------
# 1. weight-only updates: targeted memo re-sweep vs full recompile
# ----------------------------------------------------------------------
def run_weight_resweep(rounds: int, domain: int) -> dict:
    db, qs = _workload(domain)
    engine = QueryEngine(db)
    for q in qs:
        engine.probability(q)
    misses_before = engine.stats()["cache_misses"]
    targets = _tuples(db)

    # Shadow database replaying the same mutations for the baseline.
    shadow, _ = _workload(domain)
    vtree = engine.vtree

    t0 = time.perf_counter()
    live: list[list[float]] = []
    for r in range(rounds):
        rel, tup = targets[r % len(targets)]
        delta = db.set_probability(rel, *tup, p=PROBS[r % len(PROBS)])
        engine.apply_update(delta)
        live.append([engine.probability(q) for q in qs])
    inc_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fresh: list[list[float]] = []
    for r in range(rounds):
        rel, tup = targets[r % len(targets)]
        shadow.set_probability(rel, *tup, p=PROBS[r % len(PROBS)])
        base = QueryEngine(shadow, vtree=vtree)
        fresh.append([base.probability(q) for q in qs])
    full_s = time.perf_counter() - t0

    assert [[repr(p) for p in row] for row in live] == [
        [repr(p) for p in row] for row in fresh
    ], "delta-patched answers diverged from recompile-from-scratch"
    stats = engine.stats()
    assert stats["updates_applied"] == rounds, stats
    assert stats["update_recompiles"] == 0, (
        f"weight-only updates recompiled {stats['update_recompiles']} roots"
    )
    assert stats["cache_misses"] == misses_before, (
        "weight-only updates missed the compiled-query cache"
    )
    assert stats["memo_invalidations"] > 0, "re-sweep evicted nothing"

    speedup = full_s / max(inc_s, 1e-9)
    report(
        f"weight update: memo re-sweep vs recompile ({rounds} rounds x "
        f"{len(qs)} queries, domain {domain}, {db.size} tuples)",
        ["path", "time (s)", "s/round", "speedup"],
        [
            ["recompile every lineage", round(full_s, 3),
             round(full_s / rounds, 4), 1.0],
            ["apply_update + re-sweep", round(inc_s, 3),
             round(inc_s / rounds, 4), round(speedup, 2)],
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"re-sweep only {speedup:.1f}x faster than recompiling; "
        f"need >= {MIN_SPEEDUP}x"
    )
    return {
        "rounds": rounds,
        "domain": domain,
        "queries": len(qs),
        "tuples": db.size,
        "recompile_seconds": round(full_s, 3),
        "resweep_seconds": round(inc_s, 3),
        "speedup": round(speedup, 2),
        "memo_invalidations": stats["memo_invalidations"],
    }


# ----------------------------------------------------------------------
# 2. structural updates: condition/disjoin patches vs fresh compiles
# ----------------------------------------------------------------------
def run_structural_patch(rounds: int, domain: int) -> dict:
    db, qs = _workload(domain)
    engine = QueryEngine(db)
    for q in qs:
        engine.probability(q)

    extra = domain + 1  # domain values unseen by the complete database
    t0 = time.perf_counter()
    for r in range(rounds):
        # One insert of a brand-new S-tuple, then its deletion: the insert
        # disjoins the tuple's lineage in, the delete conditions it out.
        delta = db.insert("S", extra + r, 1, p=PROBS[r % len(PROBS)])
        engine.apply_update(delta)
        mid = [engine.probability(q) for q in qs]
        check = QueryEngine(db, vtree=engine.vtree)
        assert [repr(p) for p in mid] == [
            repr(check.probability(q)) for q in qs
        ], "patched insert diverged from fresh compile"
        assert [engine.probability(q, exact=True) for q in qs] == [
            check.probability(q, exact=True) for q in qs
        ], "patched insert diverged on exact Fractions"
        delta = db.delete("S", extra + r, 1)
        engine.apply_update(delta)
        end = [engine.probability(q) for q in qs]
        check = QueryEngine(db, vtree=engine.vtree)
        assert [repr(p) for p in end] == [
            repr(check.probability(q)) for q in qs
        ], "patched delete diverged from fresh compile"
    elapsed = time.perf_counter() - t0

    stats = engine.stats()
    assert stats["delta_patched_roots"] > 0, "nothing was delta-patched"
    assert stats["update_recompiles"] == 0, (
        f"structural patches fell back to {stats['update_recompiles']} recompiles"
    )
    report(
        f"structural update: insert/delete delta-patch ({rounds} rounds, "
        f"domain {domain}, {db.size} tuples)",
        ["counter", "value"],
        [
            ["updates applied", stats["updates_applied"]],
            ["delta-patched roots", stats["delta_patched_roots"]],
            ["update recompiles", stats["update_recompiles"]],
            ["memo invalidations", stats["memo_invalidations"]],
            ["seconds", round(elapsed, 3)],
        ],
    )
    return {
        "rounds": rounds,
        "domain": domain,
        "updates_applied": stats["updates_applied"],
        "delta_patched_roots": stats["delta_patched_roots"],
        "update_recompiles": stats["update_recompiles"],
        "seconds": round(elapsed, 3),
    }


# pytest wrappers (CI-friendly sizes; same assertions as the full run)
def test_weight_resweep_beats_recompile():
    run_weight_resweep(6, 3)


def test_structural_patch_zero_recompiles():
    run_structural_patch(2, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-friendly sizes (keeps every acceptance assertion)",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    weight = run_weight_resweep(6 if args.smoke else 16, 3 if args.smoke else 4)
    structural = run_structural_patch(2 if args.smoke else 5, 3 if args.smoke else 4)
    payload = {
        "benchmark": "live updates: delta-patch vs recompile",
        "smoke": args.smoke,
        "weight_resweep": weight,
        "structural_patch": structural,
    }
    if args.smoke:
        # Don't clobber the committed full-run regression data.
        print("\n--smoke: assertions checked, JSON not rewritten")
    else:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {OUTPUT}")
    print(f"bench_updates finished in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
