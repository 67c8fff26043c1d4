"""Result 1 end to end: a circuit of small treewidth, compiled through the
Lemma-1 pipeline into a linear-size SDD.

Run:  python examples/treewidth_to_sdd.py
"""

from repro.circuits.build import chain_and_or, ladder
from repro.compiler import Compiler, Lemma1Strategy
from repro.core.widths import factor_width, lemma1_bound
from repro.graphs.exact_tw import exact_treewidth


def study(name: str, builder, sizes) -> None:
    print(f"\n--- {name} ---")
    print(f"{'n':>4} {'vars':>5} {'tw(C)':>6} {'fw(F,T)':>8} {'Lemma-1 bound':>14} "
          f"{'sdw':>4} {'SDD size':>9}")
    for n in sizes:
        circuit = builder(n)
        res = Compiler("canonical", Lemma1Strategy(exact=False)).compile(circuit)
        g = circuit.graph()
        tw = exact_treewidth(g) if g.number_of_nodes() <= 14 else res.decomposition_width
        bound = lemma1_bound(res.decomposition_width)
        bound_str = f"2^{bound.bit_length() - 1}" if bound > 10 ** 6 else str(bound)
        fw = factor_width(res.function, res.vtree)
        print(f"{n:>4} {len(res.function.variables):>5} {tw:>6} {fw:>8} "
              f"{bound_str:>14} {res.sdd.sdw:>4} {res.sdd.size:>9}")
        # The certified Lemma-1 inequality:
        assert fw <= bound
        # And the compilation is exact:
        vs = sorted(res.function.variables)
        assert res.sdd.root.function(vs) == res.function


def main() -> None:
    print("Result 1: treewidth-k circuits have SDD size O(f(k) n).")
    print("Watch the SDD size column grow linearly while widths stay put.")
    study("chain (x1&x2)|(x2&x3)|...  [pathwidth O(1)]", chain_and_or, (4, 6, 8, 10, 12))
    study("ladder circuits  [treewidth <= 3]", ladder, (2, 3, 4, 5))


if __name__ == "__main__":
    main()
