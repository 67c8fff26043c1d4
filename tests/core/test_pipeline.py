"""Tests for the Lemma-1 pipeline (circuit → nice TD → vtree → SDD)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.build import (
    chain_and_or,
    disjointness,
    implication,
    ladder,
    parity,
)
from repro.circuits.circuit import Circuit
from repro.circuits.random_circuits import random_circuit
from repro.compiler import Compiler, Lemma1Strategy
from repro.core.pipeline import vtree_from_circuit
from repro.core.vtree import Vtree
from repro.core.widths import factor_width, lemma1_bound


class TestVtreeExtraction:
    def test_covers_all_variables(self):
        c = chain_and_or(5)
        t, width = vtree_from_circuit(c)
        assert set(c.variables) <= t.variables

    def test_pruned_vtree_has_no_dummies(self):
        c = chain_and_or(4)
        t, _ = vtree_from_circuit(c, prune_dummies=True)
        assert t.variables == set(c.variables)

    def test_dummies_kept_when_requested(self):
        c = implication()
        t, _ = vtree_from_circuit(c, prune_dummies=False)
        assert set(c.variables) <= t.variables

    def test_constant_circuit_rejected(self):
        c = Circuit()
        c.set_output(c.add_const(True))
        with pytest.raises(ValueError):
            vtree_from_circuit(c)

    def test_exact_and_heuristic_paths(self):
        c = implication()
        t1, w1 = vtree_from_circuit(c, exact=True)
        t2, w2 = vtree_from_circuit(c, exact=False)
        assert w1 <= w2
        assert t1.variables == t2.variables == {"x", "y"}


def _mirror(vtree: Vtree) -> Vtree:
    """Swap the children of every internal node (postorder rebuild)."""
    built: dict[int, Vtree] = {}
    for node in vtree.nodes():
        built[id(node)] = (
            node if node.is_leaf
            else Vtree.internal(built[id(node.right)], built[id(node.left)])
        )
    return built[id(vtree)]


class TestOrientation:
    """The Lemma-1 vtree is oriented: the child with fewer variables goes
    left.  A mirror keeps every subtree's variable set, so factor width
    (which depends only on those sets) cannot tell the orientations apart,
    and both stay within Lemma 1's bound."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12), st.integers(3, 16))
    def test_orientation_keeps_factor_width(self, seed, n_vars, n_gates):
        circuit = random_circuit(
            np.random.default_rng(seed), n_vars=n_vars, n_gates=n_gates
        )
        t, width = vtree_from_circuit(circuit)
        f = circuit.function()
        mirrored = _mirror(t)
        assert mirrored.variables == t.variables
        fw = factor_width(f, t)
        assert fw == factor_width(f, mirrored)
        assert fw <= lemma1_bound(width)
        for node in t.internal_nodes():
            assert len(node.left.variables) <= len(node.right.variables)


class TestLemma1Bound:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_chain_factor_width_within_bound(self, n):
        """Lemma 1: fw(F, T) <= 2^{(w+2)·2^{w+1}} for the extracted vtree."""
        res = Compiler("canonical", "lemma1").compile(chain_and_or(n))
        assert factor_width(res.function, res.vtree) <= lemma1_bound(res.decomposition_width)

    def test_disjointness_within_bound(self):
        res = Compiler("canonical", "lemma1").compile(disjointness(3))
        assert factor_width(res.function, res.vtree) <= lemma1_bound(res.decomposition_width)

    def test_parity_within_bound(self):
        res = Compiler("canonical", "lemma1").compile(parity(4))
        assert factor_width(res.function, res.vtree) <= lemma1_bound(res.decomposition_width)


class TestEndToEnd:
    @pytest.mark.parametrize(
        "builder,arg",
        [(chain_and_or, 4), (chain_and_or, 6), (disjointness, 3), (parity, 4), (ladder, 2)],
    )
    def test_compiled_forms_correct(self, builder, arg):
        c = builder(arg)
        res = Compiler("canonical", "lemma1").compile(c)
        vs = sorted(res.function.variables)
        assert res.sdd.root.function(vs) == res.function
        assert res.nnf.root.function(vs) == res.function
        assert res.nnf.root.is_deterministic()
        assert res.nnf.root.is_structured_by(res.vtree)
        assert res.sdd.root.is_structured_by(res.vtree)

    def test_linear_size_scaling_fixed_width(self):
        """Result 1's point: at fixed decomposition width, SDD size grows
        linearly (not polynomially) in n.  We check sub-quadratic growth
        plus per-n width boundedness on the chain family."""
        sizes = {}
        widths = set()
        for n in (4, 6, 8, 10):
            res = Compiler("canonical", Lemma1Strategy(exact=False)).compile(chain_and_or(n))
            sizes[n] = res.sdd.size
            widths.add(res.sdd.sdw)
        assert max(widths) <= 16  # bounded width across the family
        # size roughly linear: size(10)/size(4) well below the quadratic ratio
        assert sizes[10] <= sizes[4] * (10 / 4) ** 2

    def test_decomposition_width_reported(self):
        res = Compiler("canonical", "lemma1").compile(chain_and_or(4))
        assert res.decomposition_width >= 1
        assert res.decomposition_width == vtree_from_circuit(chain_and_or(4))[1]
