"""E6 — eq. (1) vs eq. (2)/(4): pathwidth, OBDD width, and where SDDs win.

Jha–Suciu's eq. (2): bounded circuit pathwidth ⇔ bounded OBDD width, with
OBDD size ``O(f(k)·n)``.  The paper's construction, run on *linear*
vtrees, reproduces exactly the OBDD case.  We measure:

- bounded-pathwidth families keep constant OBDD width (eq. 2);
- the canonical construction on right-linear vtrees yields
  deterministic structured forms whose width tracks the OBDD width;
- eq. (1)'s weakness: on a fixed bounded-treewidth family, OBDD size under
  a *bad but legal* order grows much faster than the Result-1 SDD size —
  the ``n^{O(f(k))}`` vs ``O(f(k)·n)`` contrast.
"""

from __future__ import annotations

import pytest

from repro.circuits.build import chain_and_or, cnf_chain, disjointness
from repro.compiler import Compiler, Lemma1Strategy
from repro.core.sdd_compile import compile_canonical_sdd
from repro.core.vtree import Vtree
from repro.graphs.pathwidth import exact_pathwidth, heuristic_pathwidth
from repro.obdd.obdd import obdd_from_function

from .conftest import report


def test_bounded_pathwidth_implies_bounded_obdd_width(benchmark):
    rows = []
    widths = []
    for n in (4, 6, 8, 10):
        c = chain_and_or(n)
        g = c.graph()
        pw = exact_pathwidth(g) if g.number_of_nodes() <= 18 else heuristic_pathwidth(g)
        f = c.function()
        mgr, root = obdd_from_function(f)  # natural chain order
        widths.append(mgr.width(root))
        rows.append([n, pw, mgr.width(root), mgr.size(root)])
    report(
        "eq. (2) / chain family: bounded pathwidth ⇒ bounded OBDD width",
        ["n", "circuit pathwidth", "OBDD width", "OBDD size"],
        rows,
    )
    assert max(widths) <= 4
    benchmark(lambda: obdd_from_function(chain_and_or(8).function()))


def test_linear_vtree_reduces_to_obdd_shape(benchmark):
    """The canonical construction on a right-linear vtree has width within
    a constant factor of the OBDD width (the paper's 'effectively
    encompasses Jha–Suciu' remark)."""
    rows = []
    for n in (4, 6, 8):
        f = chain_and_or(n).function()
        order = sorted(f.variables)
        sdd = compile_canonical_sdd(f, Vtree.right_linear(order))
        mgr, root = obdd_from_function(f, order)
        rows.append([n, mgr.width(root), sdd.sdw, mgr.size(root), sdd.size])
        assert sdd.sdw <= 4 * max(mgr.width(root), 1)
    report(
        "eq. (2) / canonical construction on linear vtrees vs OBDD",
        ["n", "OBDD width", "SDD width (linear vtree)", "OBDD size", "SDD size"],
        rows,
    )
    f = chain_and_or(6).function()
    benchmark(lambda: compile_canonical_sdd(f, Vtree.right_linear(sorted(f.variables))))


def test_eq1_bad_order_vs_result1_sdd(benchmark):
    """D_n is a tree circuit (treewidth 1).  Under the separated order the
    OBDD has width 2^{n-1} (eq. (1)'s polynomial blow-up visible as
    exponential-in-k width), while the Result-1 pipeline keeps the SDD
    linear in n."""
    rows = []
    obdd_sizes, sdd_sizes = [], []
    for n in (2, 3, 4, 5):
        f = disjointness(n).function()
        xs = [f"x{i}" for i in range(1, n + 1)]
        ys = [f"y{i}" for i in range(1, n + 1)]
        mgr, root = obdd_from_function(f, xs + ys)  # separated (bad) order
        res = Compiler("canonical", Lemma1Strategy(exact=False)).compile(disjointness(n))
        rows.append([n, mgr.width(root), mgr.size(root), res.sdd.sdw, res.sdd.size])
        obdd_sizes.append(mgr.size(root))
        sdd_sizes.append(res.sdd.size)
    report(
        "eq. (1) vs eq. (4) / D_n: separated-order OBDD vs Lemma-1 SDD",
        ["n", "OBDD width (separated)", "OBDD size", "SDD width", "SDD size"],
        rows,
    )
    # OBDD grows exponentially, SDD roughly linearly.
    assert obdd_sizes[-1] / obdd_sizes[0] > sdd_sizes[-1] / sdd_sizes[0]
    benchmark(lambda: Compiler("canonical", Lemma1Strategy(exact=False)).compile(disjointness(4)))


def test_bounded_sdd_width_implies_poly_obdd(benchmark):
    """The conclusion's containment: bounded width SDDs are polynomially
    simulated by OBDDs.  Measured: the chain family has bounded SDD width
    (E5) and its OBDD size grows linearly — comfortably polynomial."""
    rows = []
    obdd_sizes, ns = [], []
    for n in (4, 6, 8, 10):
        res = Compiler("canonical", Lemma1Strategy(exact=False)).compile(chain_and_or(n))
        f = res.function
        mgr, root = obdd_from_function(f)
        rows.append([n, res.sdd.sdw, mgr.size(root)])
        obdd_sizes.append(mgr.size(root))
        ns.append(n)
    report(
        "Conclusion / bounded SDD width => polynomial OBDD size (chain family)",
        ["n", "SDD width", "OBDD size"],
        rows,
    )
    # linear fit: the size ratio tracks the n ratio
    assert obdd_sizes[-1] / obdd_sizes[0] <= (ns[-1] / ns[0]) ** 2
    benchmark(lambda: obdd_from_function(chain_and_or(8).function()))
