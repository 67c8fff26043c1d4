"""d-DNNF bag-by-bag builder vs SDD apply at fixed decomposition width.

The predicted win (arXiv 1811.02944 §5.1 vs the Lemma-1 apply fold): the
bag-by-bag builder touches each friendly bag once with a state table bounded
by ``2^{O(width)}``, while the apply backend folds the same decomposition
through ``SddManager.apply`` and pays for every *intermediate* SDD it
materialises — on grids the heuristic Lemma-1 leaf order scrambles the fold
and the intermediates blow up even though the final SDD is small.

Measured shape (this is what the assertions pin):

* ``grid(3xN)`` — ddnnf wins big and the gap *grows* with N (~6x at 3x4,
  >100x at 3x5): apply's intermediate blowup at fixed width is the paper's
  motivation for structured compilation.
* ``chain(N)`` — ddnnf modestly ahead (~2x): no blowup to dodge, both
  linear; the bag walk just has lower constants than the apply fold.
* ``ladder(N)``, UCQ lineage — parity: honest columns, no cherry-picking.

Every family cross-checks the model count between the two backends and
reports an apply ``best-of`` column too, so the comparison cannot quietly
degrade into "ddnnf vs a strawman vtree".

Run stand-alone: ``python benchmarks/bench_ddnnf.py [--smoke]`` (``--smoke``
uses CI-friendly sizes and keeps the grid acceptance assertion; only the
full run rewrites ``BENCH_ddnnf.json``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.circuits.build import chain_and_or, grid, ladder
from repro.compiler import Compiler
from repro.queries.database import complete_database
from repro.queries.lineage import lineage_circuit
from repro.queries.syntax import parse_ucq

try:  # pytest run
    from .conftest import report
except ImportError:  # stand-alone smoke run
    from repro.util.report import report

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_ddnnf.json"

# Acceptance floor for the grid family (measured ~6x at 3x4, >100x at 3x5).
GRID_MIN_SPEEDUP = 2.0


def _time_ddnnf(circuit) -> dict:
    t0 = time.perf_counter()
    compiled = Compiler(backend="ddnnf", strategy="natural").compile(circuit)
    elapsed = time.perf_counter() - t0
    count = compiled.model_count()
    stats = compiled.stats()
    return {
        "seconds": round(elapsed, 4),
        "size": compiled.size,
        "width": compiled.width,
        "friendly_width": stats["friendly_width"],
        "states_peak": stats["states_peak"],
        "model_count": str(count),
    }


def _time_apply(circuit, strategy: str) -> dict:
    t0 = time.perf_counter()
    compiled = Compiler(backend="apply", strategy=strategy).compile(circuit)
    elapsed = time.perf_counter() - t0
    count = compiled.model_count()
    return {
        "seconds": round(elapsed, 4),
        "size": compiled.size,
        "width": compiled.width,
        "via": compiled.strategy,
        "model_count": str(count),
    }


def run_family(name: str, circuit) -> dict:
    """ddnnf vs apply(lemma1-heuristic) — the fixed-decomposition-width
    comparison — plus apply(best-of) so apply gets its best shot too."""
    results = {
        "ddnnf": _time_ddnnf(circuit),
        "apply-lemma1": _time_apply(circuit, "lemma1-heuristic"),
        "apply-best-of": _time_apply(circuit, "best-of"),
    }
    counts = {r["model_count"] for r in results.values()}
    assert len(counts) == 1, f"{name}: backends disagree on the model count"
    rows = [
        [b, r["seconds"], r["size"], r["width"], r.get("friendly_width", "-")]
        for b, r in results.items()
    ]
    report(
        f"ddnnf vs apply / {name} ({len(circuit.variables)} vars)",
        ["backend", "time (s)", "size", "width", "fr.width"],
        rows,
    )
    return {"family": name, "n_vars": len(circuit.variables), "backends": results}


def _speedup(entry: dict) -> float:
    return entry["backends"]["apply-lemma1"]["seconds"] / max(
        entry["backends"]["ddnnf"]["seconds"], 1e-9
    )


def _run_grid(rows: int, cols: int) -> dict:
    """Acceptance criterion: at the same decomposition, ddnnf beats apply
    where apply's intermediate SDDs blow up."""
    entry = run_family(f"grid({rows}x{cols})", grid(rows, cols))
    speedup = _speedup(entry)
    print(f"grid({rows}x{cols}): ddnnf {speedup:.1f}x faster than apply-lemma1")
    assert speedup >= GRID_MIN_SPEEDUP, (
        f"ddnnf only {speedup:.1f}x faster than apply on grid({rows}x{cols}); "
        f"need >= {GRID_MIN_SPEEDUP}x"
    )
    return entry


def _run_chain(n: int) -> dict:
    entry = run_family(f"chain({n})", chain_and_or(n))
    # Both are linear here; ddnnf must at least not lose badly.
    assert _speedup(entry) >= 0.5
    return entry


def _run_ladder(n: int) -> dict:
    return run_family(f"ladder({n})", ladder(n))


def _run_lineage(domain: int) -> dict:
    q = parse_ucq("R(x),S(x,y)")
    db = complete_database({"R": 1, "S": 2}, domain, p=0.5)
    return run_family(f"lineage(R(x),S(x,y), domain {domain})", lineage_circuit(q, db))


# Acceptance floor for the budgeted-early-abandon race: cutting off the
# blown-up apply candidate must make the whole race visibly faster than
# running every candidate to completion (measured ~2-6x on grid(3x4)).
RACE_ABANDON_MIN_SPEEDUP = 1.2


def _run_race_abandon(rows: int, cols: int) -> dict:
    """Budgeted early abandon in the race backend: on the grid family the
    d-DNNF candidate finishes small and fast, then the apply candidate's
    intermediate SDDs blow straight past ``budget_slack x best_size`` — the
    abandoning race cuts it off mid-compilation, the non-abandoning race
    pays for the full blowup.  Same winner, same size, less wall-clock."""
    from repro.compiler.backends import RaceBackend
    from repro.compiler.strategies import get_strategy

    circuit = grid(rows, cols)
    choice = get_strategy("lemma1-heuristic")(circuit)
    runs = {}
    for label, abandon in (("race-full", False), ("race-abandon", True)):
        backend = RaceBackend(candidates=("ddnnf", "apply"), abandon=abandon)
        t0 = time.perf_counter()
        compiled = backend.compile(
            circuit, choice.vtree, decomposition_width=choice.decomposition_width
        )
        elapsed = time.perf_counter() - t0
        log = compiled.race_log
        runs[label] = {
            "seconds": round(elapsed, 4),
            "size": compiled.size,
            "model_count": str(compiled.model_count()),
            "apply_abandoned": log.get("race_abandoned_apply", 0),
            "won_ddnnf": log.get("race_won_ddnnf", 0),
        }
    assert runs["race-full"]["model_count"] == runs["race-abandon"]["model_count"]
    assert runs["race-full"]["size"] == runs["race-abandon"]["size"], (
        "early abandon changed the race winner"
    )
    assert runs["race-abandon"]["apply_abandoned"] == 1, (
        "apply blowup was expected to hit the abandon budget on the grid"
    )
    speedup = runs["race-full"]["seconds"] / max(
        runs["race-abandon"]["seconds"], 1e-9
    )
    report(
        f"race early abandon / grid({rows}x{cols})",
        ["race", "time (s)", "size", "apply abandoned"],
        [[k, r["seconds"], r["size"], r["apply_abandoned"]] for k, r in runs.items()],
    )
    print(f"race abandon: {speedup:.1f}x faster than full race")
    assert speedup >= RACE_ABANDON_MIN_SPEEDUP, (
        f"abandoning race only {speedup:.1f}x faster; "
        f"need >= {RACE_ABANDON_MIN_SPEEDUP}x"
    )
    return {
        "family": f"race-abandon-grid({rows}x{cols})",
        "n_vars": len(circuit.variables),
        "runs": runs,
        "speedup": round(speedup, 2),
    }


# pytest wrappers (CI-friendly sizes; the grid assertion is the criterion)
def test_grid_ddnnf_beats_apply_at_fixed_width():
    _run_grid(3, 4)


def test_chain_family():
    _run_chain(100)


def test_lineage_family():
    _run_lineage(4)


def test_race_abandon_wall_clock_win():
    _run_race_abandon(3, 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-friendly sizes (keeps the grid acceptance assertion)",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    # Untimed warm-up: the first compile in a process pays one-time imports
    # (networkx, for the decomposition), which would otherwise be charged
    # to whichever backend the first family times.
    _time_ddnnf(grid(2, 2))
    _time_apply(grid(2, 2), "lemma1-heuristic")
    entries = [
        _run_grid(3, 4) if args.smoke else _run_grid(3, 5),
        _run_chain(100 if args.smoke else 200),
        _run_ladder(30 if args.smoke else 60),
        _run_lineage(4 if args.smoke else 5),
        _run_race_abandon(3, 4),
    ]
    payload = {
        "benchmark": "ddnnf (bag-by-bag) vs apply (Lemma-1 fold), fixed decomposition",
        "smoke": args.smoke,
        "families": entries,
        "ddnnf_speedup_vs_apply_lemma1": {
            e["family"]: round(_speedup(e), 2) for e in entries if "backends" in e
        },
    }
    if args.smoke:
        # Don't clobber the committed full-run regression data.
        print("\n--smoke: assertions checked, JSON not rewritten")
    else:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {OUTPUT}")
    print(f"bench_ddnnf finished in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
