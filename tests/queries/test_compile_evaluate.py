"""Query compilation and probabilistic evaluation tests (the Figure 2/3
positive sides + end-to-end probability agreement)."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.queries.compile import (
    compile_lineage_obdd,
    compile_lineage_sdd,
    hierarchy_order,
    lineage_obdd_width,
    lineage_sdd_size,
)
from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.evaluate import (
    probability_brute_force,
    probability_exact_fraction,
    probability_via_obdd,
)
from repro.queries.families import (
    hierarchical_query,
    inequality_query,
    inversion_chain_query,
)
from repro.queries.lineage import lineage_function
from repro.queries.syntax import parse_ucq


class TestHierarchyOrder:
    def test_covers_all_tuples(self):
        db = complete_database({"R": 1, "S": 2}, 3)
        order = hierarchy_order(hierarchical_query(), db)
        assert sorted(order) == db.all_tuple_variables()

    def test_groups_by_root_value(self):
        db = complete_database({"R": 1, "S": 2}, 2)
        order = hierarchy_order(hierarchical_query(), db)
        # R(1) and all S(1,·) precede R(2) and S(2,·)
        block1 = {o for o in order[: len(order) // 2]}
        assert "R(1)" in block1 and "S(1,1)" in block1 and "S(1,2)" in block1


class TestCompilationCorrectness:
    @pytest.mark.parametrize("query_text", [
        "R(x),S(x,y)",
        "R(x) | T(y)",
        "R(x),S(y),x!=y",
        "R(x),S1(x,y) | S1(x,y),T(y)",
    ])
    def test_obdd_and_sdd_compute_lineage(self, query_text):
        q = parse_ucq(query_text)
        schema = {}
        for cq in q.disjuncts:
            for atom in cq.atoms:
                schema[atom.relation] = atom.arity
        db = complete_database(schema, 2)
        f = lineage_function(q, db)
        mgr, root = compile_lineage_obdd(q, db)
        assert mgr.function(root, f.variables) == f
        smgr, sroot = compile_lineage_sdd(q, db)
        assert smgr.function(sroot, f.variables) == f


class TestFigure2Shapes:
    def test_hierarchical_constant_width(self):
        """Inversion-free UCQ ⇒ OBDD width O(1) as the database grows."""
        widths = []
        for n in (2, 3, 4, 5):
            db = complete_database({"R": 1, "S": 2}, n)
            widths.append(lineage_obdd_width(hierarchical_query(), db))
        assert max(widths) == min(widths)  # constant

    def test_inversion_query_width_grows(self):
        """The inversion chain's lineage width grows with n under *any*
        practical order we try (here: the hierarchy order)."""
        widths = []
        for n in (1, 2, 3):
            from repro.queries.families import chain_database

            db = chain_database(1, n)
            widths.append(lineage_obdd_width(inversion_chain_query(1), db))
        assert widths[-1] > widths[0]

    def test_inequality_query_width_grows_polynomially(self):
        """Figure 3: inversion-free + inequalities gives poly OBDDs but not
        constant width."""
        widths = []
        for n in (2, 3, 4, 5):
            db = complete_database({"R": 1, "S": 1}, n)
            widths.append(lineage_obdd_width(inequality_query(), db))
        assert widths == sorted(widths)
        assert widths[-1] > widths[0]
        # sub-exponential: width grows at most linearly on this family
        assert widths[-1] <= 2 * 5


class TestEvaluation:
    @pytest.mark.parametrize("query_text,schema", [
        ("R(x),S(x,y)", {"R": 1, "S": 2}),
        ("R(x) | T(y)", {"R": 1, "T": 1}),
        ("R(x),S(y),x!=y", {"R": 1, "S": 1}),
    ])
    def test_three_evaluators_agree(self, query_text, schema):
        rng = np.random.default_rng(42)
        q = parse_ucq(query_text)
        db = ProbabilisticDatabase.random(schema, 3, rng, tuple_density=0.9)
        p0 = probability_brute_force(q, db)
        assert probability_via_obdd(q, db) == pytest.approx(p0)
        assert QueryEngine(db).probability(q) == pytest.approx(p0)

    def test_exact_fraction(self):
        db = ProbabilisticDatabase()
        db.add("R", 1, p=0.5)
        db.add("S", 1, 1, p=0.5)
        q = hierarchical_query()
        assert probability_exact_fraction(q, db) == Fraction(1, 4)

    def test_impossible_query(self):
        db = ProbabilisticDatabase()
        db.add("R", 1, p=0.9)
        q = parse_ucq("T(x)")
        assert probability_brute_force(q, db) == 0.0
        assert probability_via_obdd(q, db) == 0.0

    def test_certain_query(self):
        db = ProbabilisticDatabase()
        db.add("R", 1, p=1.0)
        q = parse_ucq("R(x)")
        assert probability_via_obdd(q, db) == pytest.approx(1.0)

    def test_inversion_chain_probability(self):
        """Even the hard query evaluates correctly at small n (hardness is
        about size, not correctness)."""
        from repro.queries.families import chain_database

        q = inversion_chain_query(1)
        db = chain_database(1, 2, p=0.5)
        p0 = probability_brute_force(q, db)
        assert probability_via_obdd(q, db) == pytest.approx(p0)
        assert QueryEngine(db).probability(q) == pytest.approx(p0)
