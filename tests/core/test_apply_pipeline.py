"""Property tests for the apply-based compilation backend.

The canonical truth-table pipeline is ground truth at small ``n``; the
apply backend must agree with it exactly — same function against the
canonical ``S_{F,T}``, same size per :class:`SddManager` conventions
(hash-consed managers are canonical per vtree, so two compilations of the
same function over the same vtree must coincide).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.build import chain_and_or, ladder, parity
from repro.circuits.circuit import Circuit
from repro.circuits.random_circuits import random_circuit
from repro.compiler import Compiler, Lemma1Strategy
from repro.core.vtree import Vtree
from repro.sdd.manager import SddManager

from ..conftest import boolean_functions

# The Lemma-1 pipeline under both backends (auto-selected decomposition, or
# pinned to the elimination heuristics).
CANONICAL = Compiler("canonical", "lemma1")
APPLY = Compiler("apply", "lemma1")
CANONICAL_HEURISTIC = Compiler("canonical", Lemma1Strategy(exact=False))
APPLY_HEURISTIC = Compiler("apply", Lemma1Strategy(exact=False))


@st.composite
def small_circuits(draw, max_vars: int = 12):
    """Random circuits with up to ``max_vars`` variables (seed-driven so
    shrinking stays meaningful)."""
    n_vars = draw(st.integers(min_value=2, max_value=max_vars))
    n_gates = draw(st.integers(min_value=2, max_value=18))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_circuit(rng, n_vars=n_vars, n_gates=n_gates)


class TestAgainstCanonical:
    @settings(max_examples=40, deadline=None)
    @given(small_circuits(max_vars=7))
    def test_same_function_as_canonical_pipeline(self, circuit):
        res_c = CANONICAL_HEURISTIC.compile(circuit)
        res_a = APPLY_HEURISTIC.compile(circuit)
        assert res_a.backend == "apply" and res_c.backend == "canonical"
        f_apply = res_a.manager.function(
            res_a.root, sorted(map(str, circuit.variables))
        )
        assert f_apply.equivalent(res_c.sdd.function)
        assert res_a.model_count() == res_c.model_count()

    @settings(max_examples=40, deadline=None)
    @given(small_circuits(max_vars=12))
    def test_same_size_per_manager_conventions(self, circuit):
        """Apply-compiling the circuit and compiling its truth-table DNF
        into a fresh manager over the same vtree give the same canonical
        SDD (equal size, equal function)."""
        res_a = APPLY_HEURISTIC.compile(circuit)
        f = circuit.function()
        fresh = SddManager(res_a.vtree)
        root_tt = fresh.compile_circuit(Circuit.from_function_dnf(f))
        assert fresh.size(root_tt) == res_a.size
        assert fresh.count_models(root_tt, circuit.variables) == res_a.model_count()

    @settings(max_examples=25, deadline=None)
    @given(boolean_functions(max_vars=4))
    def test_same_node_in_same_manager(self, f):
        """Canonicity inside one manager: two different circuits of the
        same function compile to the *same node id* (here: the DNF of
        ``f`` versus the negated DNF of ``¬f``)."""
        vt = Vtree.balanced(sorted(f.variables))
        mgr = SddManager(vt)
        root_dnf = mgr.compile_circuit(Circuit.from_function_dnf(f))
        root_neg = mgr.negate(mgr.compile_circuit(Circuit.from_function_dnf(~f)))
        assert root_dnf == root_neg


class TestUnifiedInterface:
    def test_probability_matches_function(self):
        circuit = chain_and_or(6)
        prob = {str(v): 0.3 for v in circuit.variables}
        res_c = CANONICAL.compile(circuit)
        res_a = APPLY.compile(circuit)
        assert res_a.probability(prob) == pytest.approx(res_c.probability(prob))
        exact = res_a.probability(prob, exact=True)
        assert float(exact) == pytest.approx(res_c.probability(prob))

    def test_evaluate_matches(self):
        circuit = parity(5)
        res_c = CANONICAL.compile(circuit)
        res_a = APPLY.compile(circuit)
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = {str(v): int(rng.integers(0, 2)) for v in circuit.variables}
            assert res_a.evaluate(a) == res_c.evaluate(a)

    def test_lazy_function_on_apply_backend(self):
        """The apply result carries no truth table; the circuit's own
        function, built on demand, agrees with its count."""
        res = APPLY.compile(chain_and_or(5))
        assert not hasattr(res, "function")
        assert res.circuit.function().count_models() == res.model_count()

    def test_explicit_vtree_override(self):
        circuit = chain_and_or(8)
        vs = sorted(map(str, circuit.variables))
        res = APPLY.compile(circuit, vtree=Vtree.right_linear(vs))
        assert res.decomposition_width is None  # no decomposition involved
        assert res.vtree.is_right_linear()
        assert res.model_count() == circuit.function().count_models()

    def test_vtree_must_cover_variables(self):
        with pytest.raises(ValueError):
            APPLY.compile(chain_and_or(4), vtree=Vtree.leaf("x1"))

    def test_manager_reuse_shares_nodes(self):
        """One manager compiles several circuits into one node table; a
        recompilation returns the very same canonical node."""
        c1, c2 = chain_and_or(6), parity(6)
        vs = sorted({str(v) for v in c1.variables} | {str(v) for v in c2.variables})
        mgr = SddManager(Vtree.balanced(vs))
        r1 = mgr.compile_circuit(c1)
        nodes = mgr.stats()["nodes"]
        mgr.compile_circuit(c2)
        assert mgr.stats()["nodes"] > nodes
        assert mgr.compile_circuit(c1) == r1
        assert mgr.count_models(r1, c1.variables) == c1.function().count_models()

    def test_counting_on_wider_vtree(self):
        """A vtree covering extra variables must not inflate model counts
        or break probabilities (the circuit does not depend on the
        extras)."""
        circuit = chain_and_or(4)  # x1..x4
        vs = sorted(map(str, circuit.variables)) + ["z1", "z2", "z3"]
        res = APPLY.compile(circuit, vtree=Vtree.balanced(vs))
        assert res.model_count() == circuit.function().count_models()
        prob = {str(v): 0.3 for v in circuit.variables}  # no entry for z*
        expected = circuit.function().probability(prob)
        assert res.probability(prob) == pytest.approx(expected)
        exact = res.probability(prob, exact=True)
        assert float(exact) == pytest.approx(expected)

    def test_counting_with_unpruned_dummies(self):
        """prune_dummies=False leaves Lemma-1 dummy leaves in the vtree;
        counting must still be over the circuit's variables."""
        circuit = chain_and_or(4)
        compiler = Compiler("apply", Lemma1Strategy(exact=False, prune_dummies=False))
        res = compiler.compile(circuit)
        assert res.vtree.variables > set(map(str, circuit.variables))
        assert res.model_count() == circuit.function().count_models()
        prob = {str(v): 0.5 for v in circuit.variables}
        assert res.probability(prob) == pytest.approx(
            circuit.function().probability(prob)
        )


class TestBeyondTruthTable:
    """The acceptance criterion: a >= 50-variable bounded-treewidth circuit
    compiles and exactly counts end-to-end."""

    def test_chain_50_vars_lemma1(self):
        res = APPLY_HEURISTIC.compile(chain_and_or(50))
        n = len(res.circuit.variables)
        assert n >= 50
        mc = res.model_count()
        mc_neg = res.manager.count_models(
            res.manager.negate(res.root), res.circuit.variables
        )
        assert mc + mc_neg == 1 << n
        from fractions import Fraction

        p = res.probability({str(v): 0.5 for v in res.circuit.variables}, exact=True)
        assert p == Fraction(mc, 1 << n)

    def test_ladder_60_vars(self):
        res = APPLY_HEURISTIC.compile(ladder(30))
        assert len(res.circuit.variables) == 60
        assert res.size < 3000  # linear regime
