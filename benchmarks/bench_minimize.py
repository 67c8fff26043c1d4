"""Dynamic vtree minimization: in-manager search vs recompile-per-neighbor.

Two searches exist over the vtree's extra freedom.  The recompile
baseline, :func:`repro.core.vtree_search.minimize_vtree` with
:func:`~repro.core.vtree_search.apply_size_objective`, hill-climbs over
local rotations/swaps and evaluates every candidate neighbor by compiling
the whole circuit from scratch in a fresh
:class:`~repro.sdd.manager.SddManager`: O(|neighbors| × full-compile) per
round.  The in-manager search (:meth:`~repro.sdd.manager.SddManager.minimize`)
compiles **once** and transforms the live SDD with the same local moves,
so a candidate costs local re-normalization instead of a recompile.

This bench runs both searches on four workload families (chain, ladder,
grid, and a UCQ lineage) from the same start vtree and asserts:

1. **Quality:** the in-manager search reaches an SDD at most as large as
   the baseline's final size (it is handed that size as an *anytime
   target*, so the clock stops the moment quality is matched — the honest
   time-to-quality comparison).
2. **Speed:** it gets there at ≥ ``SPEEDUP_FLOOR``× less wall-clock,
   *including* its single compilation.
3. **Exactness:** the exact (Fraction) probability of the compiled root
   is bit-identical before and after minimization, and the unique table
   stays canonical.

Run stand-alone: ``python benchmarks/bench_minimize.py [--smoke]``
(``--smoke`` shrinks the workloads for CI and leaves the committed JSON
untouched).
"""

from __future__ import annotations

import argparse
import json
import time
from fractions import Fraction
from pathlib import Path

from repro.circuits.build import chain_and_or, grid, ladder
from repro.compiler.strategies import natural_variable_order
from repro.core.vtree import Vtree
from repro.core.vtree_search import apply_size_objective, minimize_vtree
from repro.queries.database import complete_database
from repro.queries.lineage import lineage_circuit
from repro.queries.syntax import parse_ucq
from repro.sdd.manager import SddManager
from repro.sdd.wmc import SddWmcEvaluator, exact_weights, float_weights

try:  # pytest run
    from .conftest import report
except ImportError:  # stand-alone smoke run
    from repro.util.report import report

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_minimize.json"

# The acceptance floor: in-manager search must reach the baseline's SDD
# size in at most 1/SPEEDUP_FLOOR of the baseline's wall-clock.
SPEEDUP_FLOOR = 5.0
# Hill-climb rounds given to the recompile-per-neighbor baseline (3 keeps
# the bench short, and it converges earlier on every workload here) and
# sift rounds allowed to the in-manager search (an upper bound — the
# anytime target stops it much earlier).
BASELINE_ROUNDS = 3
SIFT_ROUNDS = 8


def lineage_workload(domain: int):
    db = complete_database({"R": 1, "S": 2}, domain, p=0.5)
    return lineage_circuit(parse_ucq("R(x),S(x,y) | S(x,y),R(y)"), db)


def workloads(smoke: bool):
    """(name, circuit, start vtree) triples.

    Starts are deliberately *plausible defaults*, not tuned: balanced over
    the natural order for chain/ladder (and the naive lexicographic order
    for the small grid), right-linear — the OBDD regime the paper
    contrasts against — for the big grid and the lineages, where vtree
    flexibility is exactly what the search is supposed to buy.
    """
    if smoke:
        cases = [
            ("chain(60)", chain_and_or(60), "balanced-natural"),
            ("ladder(16)", ladder(16), "balanced-natural"),
            ("grid(4x5)", grid(4, 5), "balanced-lex"),
            ("lineage-d5", lineage_workload(5), "right-linear-natural"),
        ]
    else:
        cases = [
            ("chain(100)", chain_and_or(100), "balanced-natural"),
            ("ladder(30)", ladder(30), "balanced-natural"),
            ("grid(5x8)", grid(5, 8), "right-linear-natural"),
            ("lineage-d6", lineage_workload(6), "right-linear-natural"),
        ]
    out = []
    for name, c, start in cases:
        if start == "balanced-natural":
            t = Vtree.balanced(natural_variable_order(c))
        elif start == "balanced-lex":
            t = Vtree.balanced(sorted(map(str, c.variables)))
        else:
            t = Vtree.right_linear(natural_variable_order(c))
        out.append((name, c, start, t))
    return out


def probability_map(circuit):
    """Deterministic, deliberately non-uniform tuple probabilities."""
    return {
        v: Fraction((i % 5) + 1, 7)
        for i, v in enumerate(sorted(map(str, circuit.variables)))
    }


def run_workload(name, circuit, start_name, start):
    prob = probability_map(circuit)

    # --- baseline: the fresh-manager-per-neighbor hill climb -----------
    t0 = time.perf_counter()
    baseline_size, _ = minimize_vtree(
        start, apply_size_objective(circuit), max_rounds=BASELINE_ROUNDS
    )
    baseline_seconds = time.perf_counter() - t0

    # --- in-manager: one compile, then live rotations/swaps ------------
    # The timed window covers exactly what the search costs — compile once
    # plus the sift; the probability probes before/after are the bench's
    # *verification* (the baseline computes no probabilities either).
    t0 = time.perf_counter()
    mgr = SddManager(start)
    root = mgr.pin(mgr.compile_circuit(circuit))
    compile_seconds = time.perf_counter() - t0
    start_size = mgr.size(root)
    exact = SddWmcEvaluator(mgr, exact_weights(prob))
    approx = SddWmcEvaluator(mgr, float_weights(prob))
    p_exact_before = Fraction(exact.value(root))
    p_float_before = float(approx.value(root))

    t0 = time.perf_counter()
    mapping = mgr.minimize(rounds=SIFT_ROUNDS, target_size=baseline_size)
    root = mapping.get(root, root)
    in_manager_seconds = compile_seconds + (time.perf_counter() - t0)
    in_manager_size = mgr.size(root)

    # --- acceptance criteria -------------------------------------------
    mgr.check_unique_table()
    mgr.validate(root)
    p_exact_after = Fraction(exact.value(root))
    p_float_after = float(approx.value(root))
    assert p_exact_after == p_exact_before, (
        f"{name}: minimization changed the exact probability "
        f"({p_exact_before} -> {p_exact_after})"
    )
    assert in_manager_size <= baseline_size, (
        f"{name}: in-manager search stopped at size {in_manager_size}, "
        f"worse than the baseline's {baseline_size}"
    )
    speedup = baseline_seconds / in_manager_seconds
    assert speedup >= SPEEDUP_FLOOR, (
        f"{name}: in-manager search only {speedup:.1f}x faster "
        f"({in_manager_seconds:.2f}s vs {baseline_seconds:.2f}s); "
        f"need >= {SPEEDUP_FLOOR}x"
    )

    stats = mgr.stats()
    return {
        "workload": name,
        "variables": len(circuit.variables),
        "start_vtree": start_name,
        "start_size": start_size,
        "baseline_size": baseline_size,
        "baseline_seconds": round(baseline_seconds, 3),
        "in_manager_size": in_manager_size,
        "in_manager_seconds": round(in_manager_seconds, 3),
        "speedup": round(speedup, 1),
        "vtree_moves": stats["vtree_moves"],
        "exact_probability": str(p_exact_after),
        "exact_probability_identical": True,
        "float_probability_drift": abs(p_float_after - p_float_before),
    }


def run_benchmark(smoke: bool) -> list[dict]:
    entries = []
    for name, circuit, start_name, start in workloads(smoke):
        entries.append(run_workload(name, circuit, start_name, start))
    rows = [
        [e["workload"], e["variables"], e["start_size"], e["baseline_size"],
         e["baseline_seconds"], e["in_manager_size"], e["in_manager_seconds"],
         f"{e['speedup']}x", e["vtree_moves"]]
        for e in entries
    ]
    report(
        f"dynamic vtree minimization: in-manager search vs "
        f"recompile-per-neighbor (floor {SPEEDUP_FLOOR}x)",
        ["workload", "vars", "start", "recompile size", "recompile (s)",
         "sift size", "sift (s)", "speedup", "moves"],
        rows,
    )
    return entries


# pytest wrapper: the smoke run carries every acceptance assertion and
# lives in the minimize CI job (own timeout, like the parallel suite).
import pytest  # noqa: E402


@pytest.mark.minimize
def test_minimize_speedup_smoke():
    run_benchmark(smoke=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-friendly workloads (keeps every assertion, JSON untouched)",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    entries = run_benchmark(smoke=args.smoke)
    if args.smoke:
        print("\n--smoke: assertions checked, JSON not rewritten")
    else:
        payload = {
            "benchmark": "in-manager dynamic vtree minimization",
            "speedup_floor": SPEEDUP_FLOOR,
            "baseline": (
                "minimize_vtree with apply_size_objective: hill climb "
                "recompiling every neighbor in a fresh manager, "
                f"{BASELINE_ROUNDS} rounds"
            ),
            "in_manager": (
                "SddManager.minimize: one compile, live rotate/swap sift "
                "with the baseline's final size as anytime target"
            ),
            "workloads": entries,
        }
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {OUTPUT}")
    print(f"bench_minimize finished in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
