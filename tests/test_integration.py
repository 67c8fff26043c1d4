"""Cross-module integration tests: the paper's storyline end to end.

Each test stitches several subsystems together the way the paper does:
Result 1's pipeline feeding probability computation, Figure 1's panorama
witnesses, Theorem 5's lower bounds against measured sizes, and the
query-compilation journey from SQL-ish UCQs to exact probabilities.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.build import chain_and_or, disjointness, h_function, parity
from repro.comm.lowerbounds import analyze_vtree_for_h
from repro.comm.matrix import cm_rank
from repro.core.boolfunc import BooleanFunction
from repro.compiler import Compiler, Lemma1Strategy
from repro.core.widths import factor_width, lemma1_bound
from repro.core.sdd_compile import compile_canonical_sdd
from repro.core.vtree import Vtree
from repro.obdd.ordering import min_obdd_width
from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.evaluate import probability_brute_force, probability_via_obdd
from repro.queries.families import (
    chain_database,
    hierarchical_query,
    inversion_chain_query,
)
from repro.sdd.manager import SddManager


class TestResult1Story:
    """Circuit of small treewidth → vtree → canonical SDD → probability."""

    def test_full_pipeline_with_probability(self):
        c = chain_and_or(6)
        res = Compiler("canonical", "lemma1").compile(c)
        # Lemma 1 bound respected
        assert factor_width(res.function, res.vtree) <= lemma1_bound(res.decomposition_width)
        # probability computed on the compiled deterministic structured NNF
        prob = {v: 0.5 for v in res.function.variables}
        p_compiled = res.nnf.root.probability(prob, res.function.variables)
        assert p_compiled == pytest.approx(res.function.probability(prob))
        # and the SDD manager agrees when compiling the same circuit
        mgr = SddManager(res.vtree)
        root = mgr.compile_circuit(c)
        assert mgr.probability(root, prob) == pytest.approx(p_compiled)

    def test_sdd_width_bounded_along_family(self):
        widths = []
        for n in (4, 6, 8):
            res = Compiler("canonical", Lemma1Strategy(exact=False)).compile(chain_and_or(n))
            widths.append(res.sdd.sdw)
        assert max(widths) <= 16


class TestFigure1Witnesses:
    def test_parity_in_cpw_region(self):
        """Parity: constant OBDD width — the innermost region."""
        assert min_obdd_width(parity(4).function(), exact_limit=4) <= 3

    def test_disjointness_obdd_vs_sdd(self):
        """D_n has small OBDD (interleaved) hence small SDD."""
        n = 3
        f = disjointness(n).function()
        xs = [f"x{i}" for i in range(1, n + 1)]
        ys = [f"y{i}" for i in range(1, n + 1)]
        inter = [v for p in zip(xs, ys) for v in p]
        t = Vtree.right_linear(inter)
        sdd = compile_canonical_sdd(f, t)
        assert sdd.sdw <= 8


class TestTheorem5Story:
    def test_rank_lower_bound_vs_measured_sdd(self):
        """For H^0_{1,n}: the (X, Z) communication rank grows exponentially
        and measured SDD sizes respect it."""
        for n in (1, 2):
            f = h_function(1, n, 0)
            xs = [f"x{l}" for l in range(1, n + 1)]
            zs = [v for v in f.variables if v.startswith("z")]
            rank = cm_rank(f, xs, zs)
            assert rank >= 2 ** n - 1
            # The Lemma-8 analysis works on a vtree over X ∪ Y ∪ Z.
            all_vars = sorted(set(f.variables) | {f"y{m}" for m in range(1, n + 1)})
            t = Vtree.balanced(all_vars)
            res = analyze_vtree_for_h(t, 1, n)
            sdd = compile_canonical_sdd(h_function(1, n, res.hard_index), t)
            assert sdd.size >= res.bound

    def test_exponential_growth_signal(self):
        """Measured canonical SDD size of H^0_{1,n} under the *separated*
        vtree (X block left, Z block right) grows at least 2^n-ish."""
        sizes = []
        for n in (1, 2, 3):
            f = h_function(1, n, 0)
            xs = sorted(v for v in f.variables if v.startswith("x"))
            zs = sorted(v for v in f.variables if v.startswith("z"))
            t = Vtree.internal(Vtree.balanced(xs), Vtree.balanced(zs))
            sizes.append(compile_canonical_sdd(f, t).size)
        assert sizes[2] > sizes[1] > sizes[0]
        assert sizes[2] / sizes[1] >= 1.5


class TestQueryJourney:
    def test_easy_query_full_journey(self):
        rng = np.random.default_rng(7)
        db = ProbabilisticDatabase.random({"R": 1, "S": 2}, 3, rng, 0.8)
        q = hierarchical_query()
        truth = probability_brute_force(q, db)
        assert probability_via_obdd(q, db) == pytest.approx(truth)
        assert QueryEngine(db).probability(q) == pytest.approx(truth)

    def test_hard_query_still_correct_small(self):
        q = inversion_chain_query(2)
        db = chain_database(2, 2, p=0.3)
        truth = probability_brute_force(q, db)
        assert probability_via_obdd(q, db) == pytest.approx(truth)

    def test_lineage_count_as_model_count(self):
        """Counting possible worlds satisfying the query via the OBDD."""
        from repro.queries.compile import compile_lineage_obdd
        from repro.queries.lineage import lineage_function

        db = complete_database({"R": 1, "S": 2}, 2)
        q = hierarchical_query()
        mgr, root = compile_lineage_obdd(q, db)
        f = lineage_function(q, db)
        assert mgr.count_models(root, f.variables) == f.count_models()
