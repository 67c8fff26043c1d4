"""Tour of the knowledge compilation map with this library's engines.

Compiles one function into every language the paper touches — DNF/IP,
OBDD, canonical deterministic structured NNF, canonical SDD — and shows
which queries each form answers in polynomial time.

Run:  python examples/knowledge_compilation.py
"""

from repro.circuits.implicants import minimal_dnf_size, prime_implicants
from repro.circuits.kcmap import classify, clausal_entailment, consistency, model_count
from repro.core.boolfunc import BooleanFunction
from repro.core.nnf_compile import compile_canonical_nnf
from repro.core.sdd_compile import compile_canonical_sdd
from repro.core.vtree import Vtree
from repro.core.vtree_search import minimize_vtree, sdd_size_objective
from repro.obdd.obdd import obdd_from_function


def main() -> None:
    f = BooleanFunction.from_callable(
        ["a", "b", "c", "d"],
        lambda a, b, c, d: (a and b) or (b and c) or (c and d),
    )
    vs = sorted(f.variables)
    print(f"target: chain matching on {vs} ({f.count_models()} models)\n")

    # --- DNF / IP ------------------------------------------------------
    primes = prime_implicants(f)
    print(f"IP form: {len(primes)} prime implicants: "
          f"{', '.join(str(p) for p in primes)}")
    print(f"minimal DNF: {minimal_dnf_size(f)} terms")

    # --- OBDD ----------------------------------------------------------
    mgr, root = obdd_from_function(f)
    print(f"OBDD (sorted order): size {mgr.size(root)}, width {mgr.width(root)}")
    nnf_view = mgr.to_nnf(root)
    print(f"  as NNF: {classify(nnf_view).languages()}")

    # --- canonical deterministic structured NNF -------------------------
    t = Vtree.balanced(vs)
    cnnf = compile_canonical_nnf(f, t)
    print(f"C_(F,T): size {cnnf.size}, fiw {cnnf.fiw} "
          f"(budget {cnnf.theorem3_size_bound()})")

    # --- canonical SDD (+ dynamic vtree minimization) -------------------
    sdd = compile_canonical_sdd(f, t)
    best, _ = minimize_vtree(t, sdd_size_objective(f), max_rounds=6)
    print(f"S_(F,T): size {sdd.size}, sdw {sdd.sdw}; "
          f"after vtree search: size {best}")

    # --- the map's queries on the compiled d-DNNF -----------------------
    print("\nqueries on the compiled form (all polynomial-time):")
    print(f"  CO  (consistent?)        {consistency(sdd.root)}")
    print(f"  CT  (model count)        {model_count(sdd.root, vs)}")
    print(f"  CE  (entails b ∨ c?)     "
          f"{clausal_entailment(sdd.root, [('b', True), ('c', True)])}")
    p = sdd.root.probability({v: 0.5 for v in vs}, vs)
    print(f"  WMC (P under p=1/2)      {p}")
    assert model_count(sdd.root, vs) == f.count_models()


if __name__ == "__main__":
    main()
