"""d-DNNF bag-by-bag builder vs SDD apply at fixed decomposition width.

The predicted win (arXiv 1811.02944 §5.1 vs the Lemma-1 apply fold): the
bag-by-bag builder touches each friendly bag once with a state table bounded
by ``2^{O(width)}``, while the apply backend folds the circuit through
``SddManager.apply`` and pays for every *intermediate* SDD it materialises.
That win needs a fold whose intermediates blow up.  On the oriented Lemma-1
vtree (the child with fewer variables on the left, see
:mod:`repro.core.pipeline`) they do not: apply-lemma1's manager holds fewer
than two nodes per element of its final SDD on grids, and its SDDs are less
than half the size of the d-DNNFs.

Measured shape (full run, 2 CPUs; this is what the assertions pin):

* ``grid(3xN)`` — apply-lemma1 wins (d-DNNF/apply-lemma1 speed ratio
  0.25-0.35x at 3x4 and 3x5).  The gate: apply-lemma1's manager nodes
  stay within ``GRID_MAX_NODES_PER_ELEMENT`` times its final size.  The
  unoriented fold held 5.3 nodes per element on grid(3x4) (2456 for 463),
  10.2 on grid(3x5).
* ``chain(N)`` — both linear; the ratio read 0.56 on chain(200), and
  single runs of chain(100) read 0.4-1.4 on a busy 2-CPU host, so each
  backend is timed as the median of ``CHAIN_REPEATS`` compiles.  The gate
  keeps d-DNNF within 2x of apply.
* ``ladder(N)``, UCQ lineage — apply ahead; honest columns, no
  cherry-picking.
* Race early abandon — on ``ladder(20)`` over the right-linear vtree of its
  rails-apart order (``a1..a20`` then ``b1..b20``), apply's SDD grows
  exponentially while the d-DNNF stays linear, so the abandoning race cuts
  apply off at its budget and beats the full race by several times.

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
import statistics
import time
from pathlib import Path

from repro.circuits.build import chain_and_or, grid, ladder
from repro.compiler import Compiler
from repro.core.vtree import Vtree
from repro.queries.database import complete_database
from repro.queries.lineage import lineage_circuit
from repro.queries.syntax import parse_ucq

try:  # pytest run
    from .conftest import report
except ImportError:  # stand-alone smoke run
    from repro.util.report import report

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_ddnnf.json"

# Acceptance bound for the grid family: apply-lemma1's manager nodes per
# element of its final SDD (oriented: 1.7 at 3x4, 1.4 at 3x5; the unoriented
# fold read 5.3 and 10.2).
GRID_MAX_NODES_PER_ELEMENT = 3.0

# Compiles per backend in the chain gate, which compares their medians: a
# single compile per side let a busy host decide the ratio.
CHAIN_REPEATS = 5


def _timed(compile_once, repeats: int):
    """The median wall-clock of ``repeats`` runs of ``compile_once``, and
    the last result."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        compiled = compile_once()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), compiled


def _time_ddnnf(circuit, repeats: int = 1) -> dict:
    elapsed, compiled = _timed(
        lambda: Compiler(backend="ddnnf", strategy="natural").compile(circuit), repeats
    )
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


def _time_apply(circuit, strategy: str, repeats: int = 1) -> dict:
    elapsed, compiled = _timed(
        lambda: Compiler(backend="apply", strategy=strategy).compile(circuit), repeats
    )
    count = compiled.model_count()
    return {
        "seconds": round(elapsed, 4),
        "size": compiled.size,
        "width": compiled.width,
        "manager_nodes": compiled.stats()["nodes"],
        "via": compiled.strategy,
        "model_count": str(count),
    }


def run_family(name: str, circuit, repeats: int = 1) -> dict:
    """ddnnf vs apply(lemma1-heuristic) — the fixed-decomposition-width
    comparison — plus apply(best-of) so apply gets its best shot too; each
    timed as the median of ``repeats`` compiles."""
    results = {
        "ddnnf": _time_ddnnf(circuit, repeats),
        "apply-lemma1": _time_apply(circuit, "lemma1-heuristic", repeats),
        "apply-best-of": _time_apply(circuit, "best-of", repeats),
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
    """Acceptance criterion: on the oriented Lemma-1 vtree, apply's
    intermediate SDDs stay small — its manager holds at most
    ``GRID_MAX_NODES_PER_ELEMENT`` nodes per element of the final SDD."""
    entry = run_family(f"grid({rows}x{cols})", grid(rows, cols))
    apply = entry["backends"]["apply-lemma1"]
    per_element = apply["manager_nodes"] / apply["size"]
    report(
        f"ddnnf / apply-lemma1 / grid({rows}x{cols})",
        ["ddnnf/apply speed", "apply mgr nodes", "apply size", "nodes/element"],
        [[f"{_speedup(entry):.2f}x", apply["manager_nodes"], apply["size"],
          f"{per_element:.2f}"]],
    )
    assert per_element <= GRID_MAX_NODES_PER_ELEMENT, (
        f"apply-lemma1 holds {per_element:.1f} manager nodes per element on "
        f"grid({rows}x{cols}); need <= {GRID_MAX_NODES_PER_ELEMENT}"
    )
    return entry


def _run_chain(n: int) -> dict:
    entry = run_family(f"chain({n})", chain_and_or(n), CHAIN_REPEATS)
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
# running every candidate to completion (measured ~3-7x on ladder(20)).
RACE_ABANDON_MIN_SPEEDUP = 1.2


def rails_apart_vtree(circuit) -> Vtree:
    """The right-linear vtree of a ladder's rails-apart order: ``a1..an``,
    then ``b1..bn``.  Every rung and cross wire joins the two halves, so
    the apply fold carries all of one rail into the other: SDD size grows
    exponentially in ``n`` while the d-DNNF stays linear."""
    return Vtree.right_linear(
        sorted(map(str, circuit.variables), key=lambda v: (v[0], int(v[1:])))
    )


def _run_race_abandon(n: int) -> dict:
    """Budgeted early abandon in the race backend, on the input it exists
    for: ``ladder(n)`` over :func:`rails_apart_vtree`.  The d-DNNF
    candidate finishes small and fast, then the apply candidate's SDD grows
    straight past ``budget_slack x best_size`` — the abandoning race cuts
    it off mid-compilation, the non-abandoning race pays for the full
    blowup.  Same winner, same size, less wall-clock."""
    from repro.compiler.backends import RaceBackend

    circuit = ladder(n)
    vtree = rails_apart_vtree(circuit)
    runs = {}
    for label, abandon in (("race-full", False), ("race-abandon", True)):
        backend = RaceBackend(candidates=("ddnnf", "apply"), abandon=abandon)
        t0 = time.perf_counter()
        compiled = backend.compile(circuit, vtree)
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
        "apply blowup was expected to hit the abandon budget on the "
        "rails-apart ladder"
    )
    speedup = runs["race-full"]["seconds"] / max(
        runs["race-abandon"]["seconds"], 1e-9
    )
    report(
        f"race early abandon / ladder({n}), rails-apart vtree",
        ["race", "time (s)", "size", "apply abandoned"],
        [[k, r["seconds"], r["size"], r["apply_abandoned"]] for k, r in runs.items()],
    )
    print(f"race abandon: {speedup:.1f}x faster than full race")
    assert speedup >= RACE_ABANDON_MIN_SPEEDUP, (
        f"abandoning race only {speedup:.1f}x faster; "
        f"need >= {RACE_ABANDON_MIN_SPEEDUP}x"
    )
    return {
        "family": f"race-abandon-ladder({n})-rails-apart",
        "n_vars": len(circuit.variables),
        "runs": runs,
        "speedup": round(speedup, 2),
    }


# pytest wrappers (CI-friendly sizes; the grid assertion is the criterion)
def test_grid_apply_lemma1_intermediates_stay_small():
    _run_grid(3, 4)


def test_chain_family():
    _run_chain(100)


def test_lineage_family():
    _run_lineage(4)


def test_race_abandon_wall_clock_win():
    _run_race_abandon(20)


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
        _run_race_abandon(20),
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
