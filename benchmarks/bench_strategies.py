"""Vtree-strategy shoot-out on bounded-treewidth circuit families.

The ``best-of`` strategy races candidates under a node budget and stops
early once one reaches linear size.  Since the Lemma-1 vtree is oriented
(the child with fewer variables on the left), heuristic ``lemma1``
compiles ``chain(100)`` to natural's 392 elements; what it still pays
for, and ``best-of`` skips, is its tree decomposition.  On ``grid(3x5)``
the Lemma-1 candidate wins the race (180 elements against natural's 218).

This bench compares ``lemma1-heuristic`` / ``natural`` / ``balanced`` /
``best-of`` on the chain, ladder and grid families through the unified
``Compiler`` facade, asserts the acceptance criterion (``chain(100)``
≥ 10× faster under ``best-of`` and ``natural`` than under plain heuristic
``lemma1``), and emits ``BENCH_strategies.json`` next to the repository
root for regression tracking.

Run stand-alone: ``python benchmarks/bench_strategies.py [--smoke]``
(``--smoke`` trims the slow full-lemma1 baselines to CI-friendly sizes
while keeping the chain(100) acceptance assertion, and leaves the
committed JSON untouched).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.circuits.build import chain_and_or, grid, ladder
from repro.compiler import Compiler

try:  # pytest run
    from .conftest import report
except ImportError:  # stand-alone smoke run
    from repro.util.report import report

STRATEGIES = ("lemma1-heuristic", "natural", "balanced", "best-of")

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_strategies.json"


def _time_compile(circuit, strategy: str) -> dict:
    t0 = time.perf_counter()
    compiled = Compiler(backend="apply", strategy=strategy).compile(circuit)
    elapsed = time.perf_counter() - t0
    count = compiled.model_count()
    return {
        "seconds": round(elapsed, 4),
        "sdd_size": compiled.size,
        "sdd_width": compiled.width,
        "manager_nodes": compiled.stats()["nodes"],
        "via": compiled.strategy,
        # As a string: exact (a 100-var count overflows many JSON readers).
        "model_count": str(count),
        "model_count_bits": count.bit_length(),
    }


def run_family(name: str, circuit, strategies=STRATEGIES) -> dict:
    """Compile one circuit under each strategy; verify identical counts."""
    results = {s: _time_compile(circuit, s) for s in strategies}
    counts = {r["model_count"] for r in results.values()}
    assert len(counts) == 1, f"{name}: strategies disagree on the model count"
    rows = [
        [s, r["seconds"], r["sdd_size"], r["sdd_width"], r["manager_nodes"], r["via"]]
        for s, r in results.items()
    ]
    report(
        f"vtree strategies / {name} ({len(circuit.variables)} vars, apply backend)",
        ["strategy", "time (s)", "SDD size", "SDD width", "mgr nodes", "winner"],
        rows,
    )
    return {
        "family": name,
        "n_vars": len(circuit.variables),
        "strategies": results,
    }


def _run_chain_100() -> dict:
    """Acceptance criterion: chain(100) compiles ≥ 10× faster under both
    ``natural`` and ``best-of`` than under plain heuristic ``lemma1``."""
    entry = run_family("chain(100)", chain_and_or(100))
    slow = entry["strategies"]["lemma1-heuristic"]["seconds"]
    for fast_name in ("natural", "best-of"):
        fast = entry["strategies"][fast_name]["seconds"]
        speedup = slow / fast
        print(f"chain(100): {fast_name} is {speedup:.0f}x faster than lemma1-heuristic")
        assert speedup >= 10.0, (
            f"{fast_name} only {speedup:.1f}x faster than heuristic lemma1"
        )
    # The race must also find the small SDD, not merely return fast.
    assert (
        entry["strategies"]["best-of"]["sdd_size"]
        <= entry["strategies"]["lemma1-heuristic"]["sdd_size"]
    )
    return entry


def _run_ladder(n: int = 60) -> dict:
    entry = run_family(f"ladder({n})", ladder(n))
    best = entry["strategies"]["best-of"]
    assert best["sdd_size"] <= min(
        r["sdd_size"] for s, r in entry["strategies"].items() if s != "best-of"
    ) or best["seconds"] <= entry["strategies"]["lemma1-heuristic"]["seconds"]
    return entry


def _run_grid(rows: int = 3, cols: int = 5) -> dict:
    entry = run_family(f"grid({rows}x{cols})", grid(rows, cols))
    # Grids are the hard case for linear orders; best-of must still return
    # something no larger than its own candidate pool's best.
    sizes = {s: r["sdd_size"] for s, r in entry["strategies"].items()}
    assert sizes["best-of"] <= max(sizes["natural"], sizes["balanced"])
    return entry


# pytest wrappers (returning None keeps PytestReturnNotNoneWarning away)
def test_chain_100_speedup_over_heuristic_lemma1():
    _run_chain_100()


def test_ladder_family():
    _run_ladder(30)


def test_grid_family():
    _run_grid(3, 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-friendly sizes (keeps the chain(100) acceptance assertion)",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    entries = [
        _run_chain_100(),
        _run_ladder(30 if args.smoke else 60),
        _run_grid(3, 4) if args.smoke else _run_grid(3, 5),
    ]
    payload = {
        "benchmark": "vtree strategies (apply backend, Compiler facade)",
        "smoke": args.smoke,
        "families": entries,
        "chain100_speedup_vs_heuristic_lemma1": {
            s: round(
                entries[0]["strategies"]["lemma1-heuristic"]["seconds"]
                / entries[0]["strategies"][s]["seconds"],
                1,
            )
            for s in ("natural", "balanced", "best-of")
        },
    }
    if args.smoke:
        # Don't clobber the committed full-run regression data.
        print("\n--smoke: assertions checked, JSON not rewritten")
    else:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {OUTPUT}")
    print(f"bench_strategies finished in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
