"""In-manager dynamic vtree minimization: moves, invariants, search.

Three layers:

- deterministic unit tests for ``rotate_left`` / ``rotate_right`` /
  ``swap`` / ``minimize`` semantics (mapping, pins, rollback);
- a hypothesis property suite (marked ``minimize``, own CI job) asserting
  that model count, exact-Fraction WMC and ``evaluate()`` are bit-identical
  across *any* sequence of moves, and that the unique table stays canonical
  after rollbacks;
- a quality check of the sift against the recompile-per-neighbor hill
  climb (:func:`repro.core.vtree_search.minimize_vtree`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.build import chain_and_or, disjointness, ladder
from repro.circuits.random_circuits import random_circuit
from repro.core.vtree import Vtree
from repro.core.vtree_search import apply_size_objective, minimize_vtree
from repro.sdd.manager import SddManager
from repro.sdd.wmc import SddWmcEvaluator, exact_weights

MOVES = ("rotate-right", "rotate-left", "swap")
INVERSE = {"rotate-right": "rotate-left", "rotate-left": "rotate-right", "swap": "swap"}


def compiled(circuit, vtree=None):
    vs = sorted(map(str, circuit.variables))
    mgr = SddManager(vtree if vtree is not None else Vtree.balanced(vs))
    root = mgr.pin(mgr.compile_circuit(circuit))
    return mgr, root, vs


def brute_wmc(circuit, weights):
    """Ground-truth WMC by exhaustive enumeration (exact Fractions)."""
    vs = sorted(map(str, circuit.variables))
    f = circuit.function()
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(vs)):
        asg = dict(zip(vs, bits))
        if f(asg):
            w = Fraction(1)
            for v, b in asg.items():
                w *= weights[v][b]
            total += w
    return total


def internal_indices(mgr):
    return [i for i in range(len(mgr.v_nodes)) if mgr.v_left[i] is not None]


class TestSingleMoves:
    def test_every_move_preserves_semantics(self):
        c = chain_and_or(7)
        mgr, root, vs = compiled(c)
        weights = exact_weights({v: Fraction(1, 3) for v in vs})
        ev = SddWmcEvaluator(mgr, weights)
        truth = brute_wmc(c, weights)
        mc = mgr.count_models(root)
        for v in internal_indices(mgr):
            for name in MOVES:
                mapping = mgr._move(name, v)
                if mapping is None:
                    continue
                root = mapping.get(root, root)
                mgr.check_unique_table()
                mgr.validate(root)
                assert mgr.count_models(root) == mc
                assert ev.value(root) == truth

    def test_inapplicable_moves_return_none(self):
        c = chain_and_or(3)
        vs = sorted(map(str, c.variables))
        mgr, root, _ = compiled(c, Vtree.right_linear(vs))
        leaf = mgr.leaf_of_var[vs[0]]
        assert mgr.rotate_left(leaf) is None
        assert mgr.rotate_right(leaf) is None
        assert mgr.swap(leaf) is None
        # right-linear root: left child is a leaf, right rotation inapplicable
        assert mgr.rotate_right(mgr.v_root) is None

    def test_rotation_roundtrip_restores_size_and_leaf_order(self):
        c = ladder(4)
        mgr, root, vs = compiled(c)
        order0 = mgr.vtree.leaf_order()
        size0 = mgr.size(root)
        for v in internal_indices(mgr):
            for name in MOVES:
                mapping = mgr._move(name, v)
                if mapping is None:
                    continue
                root = mapping.get(root, root)
                back = mgr._move(INVERSE[name], v)
                assert back is not None
                root = back.get(root, root)
                mgr.check_unique_table()
                assert mgr.size(root) == size0
                assert mgr.vtree.leaf_order() == order0

    def test_swap_changes_leaf_order(self):
        c = chain_and_or(4)
        mgr, root, _ = compiled(c)
        order0 = mgr.vtree.leaf_order()
        mapping = mgr.swap(mgr.v_root)
        assert mapping is not None
        assert mgr.vtree.leaf_order() != order0
        assert set(mgr.vtree.leaf_order()) == set(order0)

    def test_pins_travel_with_the_mapping(self):
        c = chain_and_or(6)
        mgr, root, _ = compiled(c)
        for v in internal_indices(mgr):
            mapping = mgr.rotate_right(v)
            if mapping:
                break
        else:
            pytest.skip("no rotation re-normalized a pinned node")
        new_root = mapping.get(root, root)
        if new_root != root:
            assert root not in mgr.pinned_roots()
        assert new_root in mgr.pinned_roots()
        # the pin protects the remapped root across a full collection
        mgr.gc()
        mgr.validate(new_root)

    def test_literal_and_constant_roots_survive(self):
        c = chain_and_or(3)
        mgr, root, vs = compiled(c)
        lit = mgr.literal(vs[0])
        mgr.pin(lit)
        for v in internal_indices(mgr):
            for name in MOVES:
                m = mgr._move(name, v)
                if m is not None:
                    assert lit not in m  # literals are never re-normalized
        assert mgr.node_kind[lit] == "lit"


class TestMinimize:
    def test_minimize_never_grows_and_stays_canonical(self):
        c = chain_and_or(12)
        mgr, root, vs = compiled(c)
        weights = exact_weights({v: Fraction(2, 7) for v in vs})
        ev = SddWmcEvaluator(mgr, weights)
        before = ev.value(root)
        size0 = mgr.size(root)
        mapping = mgr.minimize(rounds=2)
        root = mapping.get(root, root)
        mgr.check_unique_table()
        mgr.validate(root)
        assert mgr.size(root) <= size0
        assert ev.value(root) == before  # bit-identical exact WMC

    def test_minimize_budget_caps_exploration(self):
        c = chain_and_or(10)
        mgr, root, _ = compiled(c)
        moves_before = mgr.stats()["vtree_moves"]
        mgr.minimize(budget=3, rounds=5)
        # exploration is capped; the only extra moves allowed are the
        # rollback/settle ones for the node in flight
        assert mgr.stats()["vtree_moves"] - moves_before <= 3 * 3
        mgr.check_unique_table()

    def test_minimize_rejects_bad_arguments(self):
        c = chain_and_or(3)
        mgr, _, _ = compiled(c)
        with pytest.raises(ValueError, match="rounds"):
            mgr.minimize(rounds=0)
        with pytest.raises(ValueError, match="max_growth"):
            mgr.minimize(max_growth=0.5)

    def test_minimize_rejects_node_order(self):
        """The sift always walks every internal vtree node; the subsampling
        ``node_order`` argument is gone with its only caller."""
        c = chain_and_or(8)
        mgr, _, _ = compiled(c)
        with pytest.raises(TypeError, match="node_order"):
            mgr.minimize(rounds=1, node_order=[])
        assert mgr.stats()["vtree_moves"] == 0


    def test_restore_returns_to_the_snapshot_coherently(self):
        """The sift returns to a seen shape by restoring a snapshot: the
        tables come back verbatim, and an evaluator that swept nodes built
        in between (their ids recycled) still answers exactly."""
        c = chain_and_or(12)
        mgr, root, vs = compiled(c)
        # Unnormalized weights: stale per-vtree-node tables would show.
        weights = {v: (Fraction(i % 3 + 1, 5), Fraction(i % 4 + 1, 3)) for i, v in enumerate(vs)}
        total = Fraction(1)
        for w0, w1 in weights.values():
            total *= w0 + w1
        ev = SddWmcEvaluator(mgr, weights)
        before = ev.value(root)
        tables = (list(mgr.node_kind), list(mgr.node_elements), mgr.vtree)
        snap = mgr._snapshot()
        moved = root
        for v in internal_indices(mgr):
            mapping = mgr.rotate_right(v)
            if mapping is None:
                mapping = mgr.swap(v)
            moved = mapping.get(moved, moved)
            mgr.gc()
            assert ev.value(moved) == before
        assert moved != root
        mgr._restore(snap)
        assert (mgr.node_kind, mgr.node_elements, mgr.vtree) == tables
        mgr.check_unique_table()
        assert ev.value(root) == before
        fresh = SddWmcEvaluator(mgr, weights)
        assert fresh.value(root) == before
        neg = mgr.negate(root)  # swept on the restored vtree
        assert ev.value(neg) == fresh.value(neg) == total - before
        for v in vs:
            assert ev.value(mgr.literal(v)) == fresh.value(mgr.literal(v))


class TestInManagerCircuitSearch:
    def test_matches_fresh_search_quality(self):
        """The in-manager sift must reach at most the recompile baseline's
        size (the benchmark's acceptance criterion in miniature)."""
        c = disjointness(3)
        xs = [f"x{i}" for i in range(1, 4)]
        ys = [f"y{i}" for i in range(1, 4)]
        bad = Vtree.internal(Vtree.balanced(xs), Vtree.balanced(ys))
        fresh_size, _ = minimize_vtree(bad, apply_size_objective(c), max_rounds=4)
        mgr, root, _ = compiled(c, bad)
        root = mgr.minimize(rounds=4).get(root, root)
        in_mgr_size = mgr.size(root)
        assert in_mgr_size <= fresh_size
        # the sifted vtree really compiles to the reported size
        fresh = SddManager(mgr.vtree)
        assert fresh.size(fresh.compile_circuit(c)) == in_mgr_size


@st.composite
def circuits(draw):
    seed = draw(st.integers(0, 2**16))
    n_vars = draw(st.integers(3, 5))
    n_gates = draw(st.integers(3, 9))
    rng = np.random.default_rng(seed)
    return random_circuit(rng, n_vars=n_vars, n_gates=n_gates)


@pytest.mark.minimize
class TestMoveInvariantProperties:
    """Hypothesis suite: any move sequence preserves the compiled function
    bit for bit, and the unique table stays canonical throughout."""

    @given(
        circuits(),
        st.lists(
            st.tuples(st.sampled_from(MOVES), st.integers(0, 10**6)),
            min_size=1,
            max_size=10,
        ),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_move_sequence_is_semantics_preserving(self, c, moves, vseed):
        vs = sorted(map(str, c.variables))
        vtree = Vtree.random(vs, np.random.default_rng(vseed))
        mgr = SddManager(vtree)
        root = mgr.pin(mgr.compile_circuit(c))
        weights = exact_weights(
            {v: Fraction(i + 1, len(vs) + 2) for i, v in enumerate(vs)}
        )
        ev = SddWmcEvaluator(mgr, weights)
        truth_wmc = brute_wmc(c, weights)
        truth_mc = mgr.count_models(root)
        f = c.function()
        assignments = list(itertools.product((0, 1), repeat=len(vs)))
        for name, pick in moves:
            targets = internal_indices(mgr)
            mapping = mgr._move(name, targets[pick % len(targets)])
            if mapping is None:
                continue
            root = mapping.get(root, root)
            mgr.check_unique_table()
            mgr.validate(root)
            assert mgr.count_models(root) == truth_mc
            assert ev.value(root) == truth_wmc
            for bits in assignments:
                asg = dict(zip(vs, bits))
                assert mgr.evaluate(root, asg) == bool(f(asg))

    @given(circuits(), st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_rollback_restores_canonical_unique_table(self, c, vseed):
        vs = sorted(map(str, c.variables))
        vtree = Vtree.random(vs, np.random.default_rng(vseed))
        mgr = SddManager(vtree)
        root = mgr.pin(mgr.compile_circuit(c))
        size0 = mgr.size(root)
        nnf0 = None
        for v in internal_indices(mgr):
            for name in MOVES:
                mapping = mgr._move(name, v)
                if mapping is None:
                    continue
                root = mapping.get(root, root)
                back = mgr._move(INVERSE[name], v)
                assert back is not None
                root = back.get(root, root)
                mgr.check_unique_table()
                mgr.validate(root)
                assert mgr.size(root) == size0
                if nnf0 is None:
                    nnf0 = mgr.function(root, vs)
                else:
                    assert mgr.function(root, vs) == nnf0

    @given(circuits())
    @settings(max_examples=25, deadline=None)
    def test_minimize_preserves_exact_probabilities(self, c):
        vs = sorted(map(str, c.variables))
        mgr = SddManager(Vtree.balanced(vs))
        root = mgr.pin(mgr.compile_circuit(c))
        weights = exact_weights({v: Fraction(1, 3) for v in vs})
        ev = SddWmcEvaluator(mgr, weights)
        before = ev.value(root)
        size0 = mgr.size(root)
        mapping = mgr.minimize(rounds=2)
        root = mapping.get(root, root)
        mgr.check_unique_table()
        mgr.validate(root)
        assert mgr.size(root) <= size0
        assert ev.value(root) == before
        assert SddWmcEvaluator(mgr, weights).value(root) == before
