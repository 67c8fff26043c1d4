"""E13 (ablation) — vtree flexibility vs variable orders.

The paper motivates SDDs over OBDDs by "the additional flexibility offered
by variable trees compared to variable orders" (Section 1, citing Choi &
Darwiche's dynamic minimization).  This ablation quantifies that on our
engines:

- for each function, the best right-linear vtree (= best OBDD order) is
  compared against balanced vtrees and hill-climbed vtrees (local
  rotations/swaps, `core.vtree_search`);
- on the disjointness family the searched vtree recovers the interleaved
  structure automatically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.build import disjointness
from repro.core.boolfunc import BooleanFunction
from repro.core.sdd_compile import compile_canonical_sdd
from repro.core.vtree import Vtree
from repro.core.vtree_search import minimize_vtree, sdd_size_objective
from repro.obdd.ordering import best_order_exhaustive

from .conftest import report


def test_search_beats_bad_starts(benchmark):
    rng = np.random.default_rng(99)
    rows = []
    improvements = []
    for trial in range(4):
        f = BooleanFunction.random([f"v{i}" for i in range(5)], rng)
        start = Vtree.right_linear(sorted(f.variables))
        s0 = compile_canonical_sdd(f, start).size
        best, _ = minimize_vtree(start, sdd_size_objective(f), max_rounds=6)
        improvements.append(s0 - best)
        rows.append([trial, s0, best, s0 - best])
    report(
        "Ablation / vtree local search from right-linear starts (random f)",
        ["trial", "start size", "searched size", "improvement"],
        rows,
    )
    assert all(i >= 0 for i in improvements)
    f = BooleanFunction.random([f"v{i}" for i in range(4)], rng)
    start = Vtree.balanced(sorted(f.variables))
    benchmark(lambda: minimize_vtree(start, sdd_size_objective(f), max_rounds=3))


def test_vtrees_vs_orders_on_disjointness(benchmark):
    """Orders alone already solve D_n (interleaving); the point is that
    vtree search starting from the *worst* shape recovers a size close to
    the best order without being told the interleaving."""
    n = 2
    f = disjointness(n).function()
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]
    best_order_width, best_order = best_order_exhaustive(f, "size", limit=6)
    obdd_as_vtree = compile_canonical_sdd(f, Vtree.right_linear(list(best_order))).size
    bad = Vtree.internal(Vtree.balanced(xs), Vtree.balanced(ys))
    bad_size = compile_canonical_sdd(f, bad).size
    searched, _ = minimize_vtree(bad, sdd_size_objective(f), max_rounds=8)
    report(
        "Ablation / D_2: best order vs bad vtree vs searched vtree",
        ["variant", "canonical SDD size"],
        [
            ["best OBDD order (right-linear vtree)", obdd_as_vtree],
            ["separated vtree (worst case)", bad_size],
            ["searched vtree from the worst case", searched],
        ],
    )
    assert searched < bad_size
    assert searched <= obdd_as_vtree * 2
    benchmark(lambda: minimize_vtree(bad, sdd_size_objective(f), max_rounds=4))


def test_balanced_vs_linear_defaults(benchmark):
    """Across random functions, neither default dominates — the search
    objective is what matters (reported, not asserted beyond sanity)."""
    rng = np.random.default_rng(7)
    rows = []
    for trial in range(4):
        f = BooleanFunction.random([f"v{i}" for i in range(4)], rng)
        lin = compile_canonical_sdd(f, Vtree.right_linear(sorted(f.variables))).size
        bal = compile_canonical_sdd(f, Vtree.balanced(sorted(f.variables))).size
        rows.append([trial, lin, bal])
        assert lin > 0 and bal > 0
    report(
        "Ablation / right-linear vs balanced default vtrees (random f)",
        ["trial", "right-linear size", "balanced size"],
        rows,
    )
    f = BooleanFunction.random([f"v{i}" for i in range(4)], rng)
    benchmark(lambda: compile_canonical_sdd(f, Vtree.balanced(sorted(f.variables))))
