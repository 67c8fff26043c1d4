"""Regenerate the paper's Figures 1–3 as measured, annotated text panoramas.

Each region of each figure is instantiated with a witness measured by this
repository's engines.

Run:  python examples/panorama.py
"""

from repro.circuits.build import and_or_tree, parity
from repro.compiler import Compiler, Lemma1Strategy
from repro.graphs.exact_tw import exact_treewidth
from repro.graphs.pathwidth import exact_pathwidth
from repro.isa.sdd_construction import build_isa_sdd
from repro.obdd.obdd import obdd_from_function
from repro.queries.compile import compile_lineage_obdd
from repro.queries.database import complete_database
from repro.queries.families import (
    chain_database,
    hierarchical_query,
    inequality_query,
    inversion_chain_query,
)


def figure1() -> None:
    print("=" * 66)
    print("Figure 1 — Boolean functions")
    print("=" * 66)
    mgr, root = obdd_from_function(parity(8).function())
    print(f"CPW(O(1)) = OBDD(O(1))     witness: parity_8, OBDD width {mgr.width(root)}")
    c = and_or_tree(3)
    print(f"CTW(O(1)) = SDD(O(1))      witness: and/or tree (8 leaves), "
          f"treewidth {exact_treewidth(c.graph())}, "
          f"pathwidth {exact_pathwidth(c.graph(), limit=18)} (grows with depth)")
    res = Compiler("canonical", Lemma1Strategy(exact=False)).compile(c)
    print(f"                           Result-1 SDD width {res.sdd.sdw}, size {res.sdd.size}")
    s = build_isa_sdd(2, 4)
    print(f"SDD(n^O(1))                witness: ISA_18, explicit SDD size {s.size} "
          f"(OBDDs grow exponentially in the limit)")


def figure2() -> None:
    print("\n" + "=" * 66)
    print("Figure 2 — lineages of UCQs (all four classes collapse)")
    print("=" * 66)
    q = hierarchical_query()
    widths = []
    for n in (2, 4, 6):
        db = complete_database({"R": 1, "S": 2}, n)
        mgr, root = compile_lineage_obdd(q, db)
        widths.append(mgr.width(root))
    print(f"inversion-free R(x),S(x,y): OBDD widths {widths} — constant")
    q = inversion_chain_query(1)
    sizes = []
    for n in (1, 2, 3, 4):
        db = chain_database(1, n)
        mgr, root = compile_lineage_obdd(q, db)
        sizes.append(mgr.size(root))
    print(f"inversion h_1: OBDD sizes {sizes} — exponential (gray region empty)")


def figure3() -> None:
    print("\n" + "=" * 66)
    print("Figure 3 — lineages of UCQs with inequalities")
    print("=" * 66)
    q = inequality_query()
    rows = []
    for n in (2, 4, 6):
        db = complete_database({"R": 1, "S": 1}, n)
        mgr, root = compile_lineage_obdd(q, db)
        rows.append((mgr.width(root), mgr.size(root)))
    print(f"inversion-free R(x),S(y),x≠y: (width, size) = {rows}")
    print("  width grows (escapes OBDD(O(1))), size stays polynomial —")
    print("  the middle annulus of Figure 3.")


def main() -> None:
    figure1()
    figure2()
    figure3()


if __name__ == "__main__":
    main()
