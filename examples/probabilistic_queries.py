"""Query compilation over a probabilistic database (Section 4's setting).

An e-commerce-ish scenario: customers, orders, and a Boolean UCQ asking
"is there a premium customer with an order?".  The lineage is compiled to
an OBDD whose width stays constant as the database grows (the query is
inversion-free), and the query probability is computed in linear time on
the compiled form.  We then show what goes wrong for a query *with* an
inversion.

Run:  python examples/probabilistic_queries.py
"""

import numpy as np

from repro.queries.analysis import find_inversion, is_inversion_free
from repro.queries.compile import compile_lineage_obdd
from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.evaluate import probability_brute_force, probability_via_obdd
from repro.queries.families import chain_database, inversion_chain_query
from repro.queries.syntax import parse_ucq


def easy_query() -> None:
    print("--- inversion-free query: Premium(x), Order(x, y) ---")
    q = parse_ucq("Premium(x),Order(x,y)")
    print(f"query: {q}    inversion-free: {is_inversion_free(q)}")

    rng = np.random.default_rng(1)
    db = ProbabilisticDatabase()
    for customer in range(1, 5):
        db.add("Premium", customer, p=float(rng.uniform(0.2, 0.9)))
        for order in range(1, 4):
            if rng.random() < 0.7:
                db.add("Order", customer, order, p=float(rng.uniform(0.3, 0.95)))
    print(f"database: {db.size} uncertain tuples")

    p_exact = probability_brute_force(q, db)
    p_obdd = probability_via_obdd(q, db)
    p_sdd = QueryEngine(db).probability(q)
    print(f"P(q) brute force = {p_exact:.6f}")
    print(f"P(q) via OBDD    = {p_obdd:.6f}")
    print(f"P(q) via SDD     = {p_sdd:.6f}")
    assert abs(p_exact - p_obdd) < 1e-9 and abs(p_exact - p_sdd) < 1e-9

    print("\nOBDD width as the database grows (constant = compilable):")
    for n in (2, 3, 4, 5, 6):
        big = complete_database({"Premium": 1, "Order": 2}, n)
        mgr, root = compile_lineage_obdd(parse_ucq("Premium(x),Order(x,y)"), big)
        print(f"  domain {n}: {big.size:>3} tuples, OBDD width {mgr.width(root)}, "
              f"size {mgr.size(root)}")


def hard_query() -> None:
    print("\n--- query with an inversion: h_1 = R(x),S(x,y) | S(x,y),T(y) ---")
    q = inversion_chain_query(1)
    w = find_inversion(q)
    print(f"query: {q}    inversion length: {w.length}")
    print("lineage OBDD size as the domain grows (exponential = hard):")
    for n in (1, 2, 3, 4):
        db = chain_database(1, n)
        mgr, root = compile_lineage_obdd(q, db)
        print(f"  domain {n}: {db.size:>3} tuples, OBDD width {mgr.width(root)}, "
              f"size {mgr.size(root)}")
    print("(Theorem 5: every deterministic structured form is 2^Ω(n/k).)")

    # Probability is still computable at small n — hardness is about size.
    db = chain_database(1, 2, p=0.4)
    p0 = probability_brute_force(q, db)
    p1 = probability_via_obdd(q, db)
    print(f"P(h_1) at n=2: brute={p0:.6f} obdd={p1:.6f}")
    assert abs(p0 - p1) < 1e-9


def main() -> None:
    easy_query()
    hard_query()


if __name__ == "__main__":
    main()
