"""Apply-backend scaling: compilation and exact counting far beyond the
truth-table regime.

The canonical ``S_{F,T}`` construction needs all ``2^n`` function values, so
the repository's paper-faithful pipeline silently caps at ~20 variables.
This bench drives the truth-table-free pipeline end-to-end on instances the
canonical path cannot touch:

- bounded-treewidth circuit families (``chain_and_or``, ``ladder``) with
  50–200 variables, through the Lemma-1 vtree extraction *and* through
  explicit natural-order vtrees;
- a UCQ workload against a 56-tuple database (lineages over 56 Boolean
  variables — a ``2^56`` truth table), batch-evaluated with exact
  :class:`~fractions.Fraction` probabilities.

Correctness at this scale cannot be cross-checked against brute force, so
the assertions use self-consistency instead: ``#models(F) + #models(¬F) =
2^n``, vtree-independence of exact probabilities, and SDD/OBDD agreement.

Run stand-alone for the CI smoke (<60 s):
``python benchmarks/bench_apply_scaling.py --smoke`` (the flag trims the
slowest Lemma-1 baseline; without it every study runs at full size).
"""

from __future__ import annotations

import argparse
import re
import time
from fractions import Fraction

from repro.circuits.build import chain_and_or, ladder
from repro.compiler import Compiler, Lemma1Strategy
from repro.core.vtree import Vtree
from repro.queries.database import complete_database
from repro.queries.engine import QueryEngine
from repro.queries.evaluate import probability_exact_fraction
from repro.queries.syntax import parse_ucq

try:  # pytest run
    from .conftest import report
except ImportError:  # stand-alone smoke run
    from repro.util.report import report


def _natural(v: str) -> tuple[str, int]:
    m = re.match(r"([a-zA-Z]+)(\d+)", v)
    assert m is not None
    return (m.group(1), int(m.group(2)))


# The Lemma-1 extraction with the elimination heuristics, compiled by apply.
LEMMA1_APPLY = Compiler("apply", Lemma1Strategy(exact=False))


def _natural_vtree(circuit) -> Vtree:
    return Vtree.right_linear(sorted(map(str, circuit.variables), key=_natural))


def _self_consistent(res) -> int:
    """Check ``#models(F) + #models(¬F) == 2^n``; returns the model count."""
    mgr, root = res.manager, res.root
    n = len(res.circuit.variables)
    mc = res.model_count()
    mc_neg = mgr.count_models(mgr.negate(root), res.circuit.variables)
    assert mc + mc_neg == 1 << n, "model counts of F and ¬F do not partition 2^n"
    # Exact WMC at p=1/2 must equal mc / 2^n.
    p = res.probability({str(v): 0.5 for v in res.circuit.variables}, exact=True)
    assert p == Fraction(mc, 1 << n)
    return mc


def test_chain_lemma1_scaling(sizes_to_run=(50, 75, 100)):
    """Chains through the full Lemma-1 extraction, 50–100 variables."""
    rows, sizes = [], []
    for n in sizes_to_run:
        t0 = time.time()
        res = LEMMA1_APPLY.compile(chain_and_or(n))
        mc = _self_consistent(res)
        rows.append([n, res.decomposition_width, res.size, res.width,
                     mc.bit_length(), f"{time.time() - t0:.2f}s"])
        sizes.append((n, res.size))
    report(
        "apply backend / chain family via Lemma-1 vtree (truth table infeasible)",
        ["vars", "TD width", "SDD size", "SDD width", "mc bits", "time"],
        rows,
    )
    (n0, s0), (n1, s1) = sizes[0], sizes[-1]
    # Result 1 regime: size grows linearly in n at bounded width, not 2^n.
    assert s1 / s0 <= (n1 / n0) * 2.0


def test_chain_natural_vtree_200_vars():
    """Chains under a natural-order vtree: 200 variables in well under a
    second — the regime an explicit vtree unlocks."""
    rows, sizes = [], []
    for n in (50, 100, 200):
        c = chain_and_or(n)
        t0 = time.time()
        res = Compiler("apply").compile(c, vtree=_natural_vtree(c))
        mc = _self_consistent(res)
        rows.append([n, res.size, res.width, mc.bit_length(),
                     f"{time.time() - t0:.2f}s"])
        sizes.append((n, res.size))
    report(
        "apply backend / chain family, natural right-linear vtree",
        ["vars", "SDD size", "SDD width", "mc bits", "time"],
        rows,
    )
    (n0, s0), (n1, s1) = sizes[0], sizes[-1]
    assert s1 / s0 <= (n1 / n0) * 1.5  # tightly linear in the natural order


def test_ladder_200_vars_lemma1():
    """Ladders (treewidth ≤ 3): 200 variables through the Lemma-1 vtree."""
    t0 = time.time()
    res = LEMMA1_APPLY.compile(ladder(100))
    mc = _self_consistent(res)
    report(
        "apply backend / ladder(100) = 200 vars via Lemma-1 vtree",
        ["vars", "TD width", "SDD size", "SDD width", "mc bits", "time"],
        [[200, res.decomposition_width, res.size, res.width,
          mc.bit_length(), f"{time.time() - t0:.2f}s"]],
    )
    assert res.size < 10_000  # linear regime, not exponential


def test_ucq_workload_56_tuples():
    """A UCQ workload over a 56-tuple database: exact batch evaluation where
    the lineage truth table would have 2^56 rows."""
    q_join = parse_ucq("R(x),S(x,y)")
    q_proj = parse_ucq("S(x,y)")
    q_self = parse_ucq("R(x),S(x,x)")
    db = complete_database({"R": 1, "S": 2}, 7, p=0.3)
    assert db.size >= 50

    t0 = time.time()
    batch = QueryEngine(db).evaluate([q_join, q_proj, q_self], exact=True)
    elapsed = time.time() - t0

    # Vtree independence: a balanced vtree must give identical Fractions.
    from repro.queries.compile import lineage_vtree

    balanced = lineage_vtree(q_join, db, shape="balanced")
    batch2 = QueryEngine(db, vtree=balanced).evaluate([q_join, q_proj, q_self], exact=True)
    assert batch.probabilities == batch2.probabilities

    # SDD/OBDD agreement on the join query.
    assert probability_exact_fraction(q_join, db) == batch.probabilities[0]
    # Single-query path agrees with the batch.
    assert QueryEngine(db).probability(q_proj, exact=True) == batch.probabilities[1]

    rows = [
        [str(q), batch.sizes[i], f"{float(batch.probabilities[i]):.6f}"]
        for i, q in enumerate(batch.queries)
    ]
    report(
        f"apply backend / UCQ workload, {db.size} tuples, exact Fractions "
        f"({elapsed:.2f}s)",
        ["query", "SDD size", "P(q)"],
        rows,
    )
    s = batch.stats
    print(f"shared manager: {s['manager_nodes']} nodes, "
          f"{s['apply_cache_entries']} apply-cache entries")


def test_batch_sharing_beats_isolated_compilation():
    """The batched API's shared manager does strictly less apply work than
    compiling each query in isolation."""
    queries = [parse_ucq("R(x),S(x,y)"), parse_ucq("R(x),S(x,x)"),
               parse_ucq("S(x,y)"), parse_ucq("R(x),S(x,y),T(y)")]
    db = complete_database({"R": 1, "S": 2, "T": 1}, 5, p=0.4)
    batch = QueryEngine(db).evaluate(queries, exact=True)
    shared_entries = batch.stats["apply_cache_entries"]

    from repro.queries.compile import compile_lineage_sdd

    isolated_entries = 0
    for q in queries:
        mgr, _ = compile_lineage_sdd(q, db, batch.vtree)
        isolated_entries += mgr.stats()["apply_cache_entries"]
    report(
        "apply backend / batch sharing vs isolated compilation",
        ["mode", "apply-cache entries"],
        [["shared manager (QueryEngine)", shared_entries],
         ["four isolated managers", isolated_entries]],
    )
    assert shared_entries < isolated_entries


def test_chain_100_best_of_strategy_fast():
    """Strategy-regression guard: the ``best-of`` race on ``chain(100)``
    must settle on the natural order (small manager, no scrambled-fold
    blowup) — the full 10× comparison lives in ``bench_strategies.py``."""
    t0 = time.time()
    compiled = Compiler(backend="apply", strategy="best-of").compile(chain_and_or(100))
    elapsed = time.time() - t0
    report(
        "apply backend / chain(100) via best-of strategy",
        ["strategy", "SDD size", "mgr nodes", "time"],
        [[compiled.strategy, compiled.size, compiled.stats()["nodes"],
          f"{elapsed:.2f}s"]],
    )
    assert compiled.strategy == "best-of:natural"
    # A scrambled Lemma-1 fold allocates >100k nodes; the race must not.
    assert compiled.stats()["nodes"] < 30_000


def main(argv=None) -> int:
    """CI smoke: run every study once; must finish well under 60 s."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="trim the slowest Lemma-1 baseline for CI")
    args = parser.parse_args(argv)
    t0 = time.time()
    test_chain_lemma1_scaling((50, 75) if args.smoke else (50, 75, 100))
    test_chain_natural_vtree_200_vars()
    test_ladder_200_vars_lemma1()
    test_ucq_workload_56_tuples()
    test_batch_sharing_beats_isolated_compilation()
    test_chain_100_best_of_strategy_fast()
    print(f"\nbench_apply_scaling smoke passed in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
