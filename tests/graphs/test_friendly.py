"""The nice → friendly transform the d-DNNF builder consumes.

Pins the three contract points: every bag shape is reachable and counted,
width never increases over the input decomposition, and connectivity (hence
validity) is preserved — including through the Proposition-2 Steiner-closure
fix-up path that PR 4 repaired.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.elimination import heuristic_tree_decomposition
from repro.graphs.treedecomp import FriendlyTreeDecomposition, TreeDecomposition

pytestmark = pytest.mark.ddnnf


def branching_decomposition():
    """A star of three bags — friendlification needs a join."""
    bags = [
        frozenset({"a", "b"}),
        frozenset({"b", "c"}),
        frozenset({"b", "d"}),
    ]
    graph = nx.Graph()
    graph.add_edges_from([("a", "b"), ("b", "c"), ("b", "d")])
    return TreeDecomposition(bags, [-1, 0, 0]), graph


class TestFriendlyTransform:
    def test_every_bag_kind_reachable(self):
        td, graph = branching_decomposition()
        friendly = td.make_friendly()
        friendly.validate(graph)
        counts = friendly.kind_counts()
        for kind in ("leaf", "introduce", "forget", "join"):
            assert counts.get(kind, 0) > 0, kind
        # Friendly invariant: one forget per vertex, no more, no less.
        assert counts["forget"] == graph.number_of_nodes()

    def test_responsible_bag_is_the_forget_node(self):
        td, graph = branching_decomposition()
        friendly = td.make_friendly()
        for v in graph.nodes:
            i = friendly.responsible_bag(v)
            assert friendly.kind[i] == "forget" and friendly.vertex[i] == v
            assert v not in friendly.bag[i]
            assert v in friendly.bag[friendly.children[i][0]]
        with pytest.raises(KeyError):
            friendly.responsible_bag("missing")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_graphs_width_and_validity(self, n, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
        graph = nx.gnm_random_graph(n, m, seed=int(seed % 2**31))
        td = heuristic_tree_decomposition(graph)
        td.validate(graph)
        friendly = td.make_friendly()
        friendly.validate(graph)
        # Every friendly bag is a subset of some original bag.
        assert friendly.width <= max(td.width, 0)
        assert set(friendly.responsible) == set(graph.nodes)

    def test_root_choice_does_not_break_friendliness(self):
        td, graph = branching_decomposition()
        for root in range(len(td.bags)):
            friendly = td.make_friendly(root)
            friendly.validate(graph)


class TestFriendlyRejections:
    def test_double_forget_rejected(self):
        # leaf, introduce a, forget a, introduce a, forget a.
        kinds = ["leaf", "introduce", "forget", "introduce", "forget"]
        bags = [frozenset(), frozenset({"a"})] * 2 + [frozenset()]
        with pytest.raises(ValueError, match="more than once"):
            FriendlyTreeDecomposition(
                kinds, [None] + ["a"] * 4, [(), (0,), (1,), (2,), (3,)], bags
            )

    def test_never_forgotten_rejected(self):
        with pytest.raises(ValueError, match="never forgotten"):
            FriendlyTreeDecomposition(
                ["leaf", "introduce"], [None, "a"], [(), (0,)],
                [frozenset(), frozenset({"a"})],
            )


class TestProp2SteinerRegression:
    """Proposition-2 decompositions go through the Steiner-closure fix-up
    (PR 4); friendlifying them must preserve validity over the *closed*
    graph — this is the decomposition the ddnnf pipeline actually sees for
    compiled circuits."""

    def test_prop2_decompositions_friendlify(self):
        from repro.core.boolfunc import BooleanFunction
        from repro.core.nnf_compile import compile_canonical_nnf
        from repro.core.vtree import Vtree
        from repro.core.widths import prop2_tree_decomposition

        rng = np.random.default_rng(7)
        vs = ["a", "b", "c", "d"]
        for _ in range(5):
            f = BooleanFunction.random(vs, rng)
            compiled = compile_canonical_nnf(f, Vtree.balanced(vs))
            res = prop2_tree_decomposition(compiled)
            res.validate()
            friendly = res.decomposition.make_friendly()
            friendly.validate(res.graph)
            assert friendly.width <= max(res.width, 0)
