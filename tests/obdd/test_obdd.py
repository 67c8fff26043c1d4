"""OBDD manager tests: canonicity, apply, width/size, counting, WMC."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.build import chain_and_or, disjointness, grid, parity
from repro.circuits.circuit import Circuit
from repro.compiler import Compiler, get_backend
from repro.core.boolfunc import BooleanFunction
from repro.core.vtree import Vtree
from repro.obdd.obdd import ObddManager, obdd_from_function, obdd_width_of_function
from repro.sdd.manager import CompilationBudgetExceeded

from ..conftest import boolean_functions


class TestBasics:
    def test_terminals(self):
        mgr = ObddManager(["x"])
        assert mgr.false == 0 and mgr.true == 1

    def test_var_and_literal(self):
        mgr = ObddManager(["x"])
        v = mgr.var("x")
        assert mgr.evaluate(v, {"x": 1}) and not mgr.evaluate(v, {"x": 0})
        nl = mgr.literal("x", False)
        assert mgr.evaluate(nl, {"x": 0})

    def test_reduction_lo_eq_hi(self):
        mgr = ObddManager(["x"])
        assert mgr.node(0, 1, 1) == 1

    def test_unique_table(self):
        mgr = ObddManager(["x", "y"])
        a = mgr.node(0, 0, 1)
        b = mgr.node(0, 0, 1)
        assert a == b

    def test_duplicate_order_rejected(self):
        with pytest.raises(ValueError):
            ObddManager(["x", "x"])


class TestFromFunction:
    @settings(max_examples=40, deadline=None)
    @given(boolean_functions(min_vars=1, max_vars=5), st.integers(0, 100))
    def test_roundtrip(self, f, seed):
        rng = np.random.default_rng(seed)
        order = list(f.variables)
        rng.shuffle(order)
        mgr = ObddManager(order)
        root = mgr.from_function(f)
        assert mgr.function(root, f.variables) == f

    def test_canonicity_same_function_same_node(self):
        mgr = ObddManager(["a", "b", "c"])
        f = BooleanFunction.from_callable(["a", "b", "c"], lambda a, b, c: (a and b) or c)
        assert mgr.from_function(f) == mgr.from_function(f)

    def test_compile_circuit_equals_from_function(self):
        c = disjointness(3)
        f = c.function()
        mgr = ObddManager(sorted(f.variables))
        assert mgr.compile_circuit(c) == mgr.from_function(f)


class TestApply:
    @settings(max_examples=30, deadline=None)
    @given(boolean_functions(min_vars=2, max_vars=4), boolean_functions(min_vars=2, max_vars=4))
    def test_apply_ops(self, f, g):
        vs = sorted(set(f.variables) | set(g.variables))
        mgr = ObddManager(vs)
        u, v = mgr.from_function(f.extend(vs)), mgr.from_function(g.extend(vs))
        assert mgr.function(mgr.apply(u, v, "and"), vs) == (f & g).extend(vs)
        assert mgr.function(mgr.apply(u, v, "or"), vs) == (f | g).extend(vs)
        assert mgr.function(mgr.apply(u, v, "xor"), vs) == (f ^ g).extend(vs)
        assert mgr.function(mgr.negate(u), vs) == ~(f.extend(vs))

    def test_bad_op(self):
        mgr = ObddManager(["x"])
        with pytest.raises(ValueError):
            mgr.apply(0, 1, "nand")

    @settings(max_examples=25, deadline=None)
    @given(boolean_functions(min_vars=2, max_vars=4))
    def test_restrict_and_exists(self, f):
        vs = sorted(f.variables)
        mgr = ObddManager(vs)
        u = mgr.from_function(f)
        v0 = vs[0]
        r1 = mgr.restrict(u, v0, True)
        assert mgr.function(r1, vs).project([x for x in vs if x != v0]) == f.cofactor({v0: 1})
        e = mgr.exists(u, [v0])
        assert mgr.function(e, vs).project([x for x in vs if x != v0]) == f.exists([v0])


class TestMeasures:
    def test_parity_width_two(self):
        f = parity(6).function()
        mgr, root = obdd_from_function(f)
        assert mgr.width(root) == 2

    def test_disjointness_order_sensitivity(self):
        """Separated order (all x then all y) blows up; interleaved order
        keeps D_n narrow — the classic OBDD order effect."""
        n = 4
        f = disjointness(n).function()
        xs = [f"x{i}" for i in range(1, n + 1)]
        ys = [f"y{i}" for i in range(1, n + 1)]
        separated = obdd_width_of_function(f, xs + ys)
        interleaved = obdd_width_of_function(f, [v for p in zip(xs, ys) for v in p])
        # At the y1 boundary the 2^{n-1} cofactors that depend on y1 each
        # need a node; interleaving keeps a constant frontier.
        assert separated == 2 ** (n - 1)
        assert interleaved <= 3
        assert interleaved < separated

    def test_level_profile(self):
        f = parity(3).function()
        mgr, root = obdd_from_function(f)
        profile = mgr.level_profile(root)
        assert profile[0] == 1 and max(profile) == 2

    def test_size_counts_terminals(self):
        mgr = ObddManager(["x"])
        assert mgr.size(mgr.var("x")) == 3  # node + two terminals


class TestCountingWMC:
    @settings(max_examples=30, deadline=None)
    @given(boolean_functions(min_vars=1, max_vars=5))
    def test_count_models(self, f):
        mgr, root = obdd_from_function(f)
        assert mgr.count_models(root) == f.count_models()

    def test_count_with_scope(self):
        f = BooleanFunction.var("x")
        mgr, root = obdd_from_function(f)
        assert mgr.count_models(root, ["x", "y", "z"]) == 4

    @settings(max_examples=20, deadline=None)
    @given(boolean_functions(min_vars=1, max_vars=4))
    def test_probability(self, f):
        mgr, root = obdd_from_function(f)
        prob = {v: 0.3 for v in f.variables}
        assert mgr.probability(root, prob) == pytest.approx(f.probability(prob))

    def test_exact_fraction_wmc(self):
        f = BooleanFunction.var("x") | BooleanFunction.var("y")
        mgr, root = obdd_from_function(f)
        w = {"x": (Fraction(1, 2), Fraction(1, 2)), "y": (Fraction(1, 2), Fraction(1, 2))}
        assert mgr.weighted_count(root, w) == Fraction(3, 4)

    def test_counts_on_a_chain_deeper_than_the_recursion_limit(self):
        """The counts are iterative sweeps: a 1500-variable conjunction
        chain (one OBDD level per variable) counts without recursion."""
        order = [f"x{i}" for i in range(1500)]
        mgr = ObddManager(order)
        # Conjoin bottom-up so apply itself stays shallow.
        root = mgr.conjoin(*(mgr.var(v) for v in reversed(order)))
        assert mgr.size(root) == len(order) + 2
        assert mgr.count_models(root) == 1
        assert mgr.count_models(root, order + ["y", "z"]) == 4
        weights = {v: (Fraction(1, i + 2), Fraction(1, i + 3)) for i, v in enumerate(order)}
        expect = Fraction(1)
        for i in range(len(order)):
            expect *= Fraction(1, i + 3)
        assert mgr.weighted_count(root, weights) == expect
        frozen = mgr.freeze([root])
        assert frozen.count_models(frozen.roots[0]) == 1
        assert frozen.weighted_count(frozen.roots[0], weights) == expect


class TestDeepAndBudgeted:
    def test_chain_deeper_than_the_recursion_limit_compiles(self):
        """apply and negate are iterative: chain_and_or(600) (one OBDD
        level per variable, 1200 of them) compiles, and counts the same
        as the apply backend."""
        c = chain_and_or(600)
        obdd = Compiler(backend="obdd", strategy="natural").compile(c)
        apply = Compiler(backend="apply", strategy="natural").compile(c)
        assert obdd.model_count() == apply.model_count()
        mgr = obdd.manager
        assert mgr.negate(mgr.negate(obdd.root)) == obdd.root

    def test_node_budget_is_enforced(self):
        """The budget is checked at every new node: grid(3,4) needs more
        than 50, so the compile stops with the typed error."""
        c = grid(3, 4)
        vtree = Vtree.right_linear(sorted(map(str, c.variables)))
        backend = get_backend("obdd")
        full = backend.compile(c, vtree)
        assert full.manager.stats()["nodes"] > 50
        with pytest.raises(CompilationBudgetExceeded):
            backend.compile(c, vtree, node_budget=50)
        assert backend.compile(c, vtree, node_budget=10_000).size == full.size

    def test_race_abandons_a_blown_up_obdd(self):
        """A budgeted race cuts the OBDD off mid-compile once apply has
        set a small front-runner size."""
        compiled = Compiler(backend=("apply", "obdd"), strategy="natural").compile(
            chain_and_or(100)
        )
        stats = compiled.stats()
        assert stats["race_won_apply"] == 1
        assert stats["race_abandoned_obdd"] == 1


class TestToNNF:
    @settings(max_examples=20, deadline=None)
    @given(boolean_functions(min_vars=1, max_vars=4))
    def test_obdds_are_deterministic_decomposable(self, f):
        mgr, root = obdd_from_function(f)
        nnf = mgr.to_nnf(root)
        assert nnf.function(f.variables) == f
        assert nnf.is_decomposable()
        assert nnf.is_deterministic()
