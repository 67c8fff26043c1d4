"""Tree decomposition and nice tree decomposition tests."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs.elimination import (
    heuristic_tree_decomposition,
    min_degree_order,
    min_fill_order,
    order_to_tree_decomposition,
)
from repro.graphs.treedecomp import NiceNode, NiceTreeDecomposition, TreeDecomposition


def path_graph(n):
    return nx.path_graph(n)


class TestTreeDecomposition:
    def test_width(self):
        tree = nx.Graph()
        tree.add_edge(0, 1)
        td = TreeDecomposition(tree, {0: frozenset({1, 2}), 1: frozenset({2, 3})})
        assert td.width == 1

    def test_empty(self):
        td = TreeDecomposition(nx.Graph(), {})
        assert td.width == -1

    def test_mismatched_keys(self):
        tree = nx.Graph()
        tree.add_node(0)
        with pytest.raises(ValueError):
            TreeDecomposition(tree, {})

    def test_validate_missing_edge(self):
        g = nx.path_graph(3)
        tree = nx.Graph()
        tree.add_node(0)
        td = TreeDecomposition(tree, {0: frozenset({0, 1, 2})})
        td.validate(g)  # one bag with everything is fine
        tree2 = nx.Graph()
        tree2.add_edge(0, 1)
        bad = TreeDecomposition(tree2, {0: frozenset({0, 1}), 1: frozenset({2})})
        with pytest.raises(AssertionError):
            bad.validate(g)  # edge (1,2) uncovered

    def test_validate_connectivity(self):
        g = nx.path_graph(2)
        tree = nx.path_graph(3)
        bags = {0: frozenset({0}), 1: frozenset(), 2: frozenset({0, 1})}
        td = TreeDecomposition(tree, bags)
        with pytest.raises(AssertionError):
            td.validate(g)


class TestElimination:
    @pytest.mark.parametrize("graph,expected", [
        (nx.path_graph(6), 1),
        (nx.cycle_graph(6), 2),
        (nx.complete_graph(5), 4),
        (nx.balanced_tree(2, 3), 1),
    ])
    def test_heuristics_hit_known_widths(self, graph, expected):
        td = heuristic_tree_decomposition(graph)
        td.validate(graph)
        assert td.width == expected  # heuristics are exact on these

    def test_min_degree_order_complete(self):
        order = min_degree_order(nx.complete_graph(4))
        assert len(order) == 4

    def test_min_fill_avoids_fill(self):
        # a cycle: min-fill should produce width 2
        td = order_to_tree_decomposition(nx.cycle_graph(5), min_fill_order(nx.cycle_graph(5)))
        assert td.width == 2

    def test_order_validation(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError):
            order_to_tree_decomposition(g, [0, 1])  # missing vertex

    def test_order_with_repeated_vertex(self):
        with pytest.raises(ValueError, match="exactly the graph vertices"):
            order_to_tree_decomposition(nx.path_graph(3), [0, 0, 1, 2])

    def test_disconnected_graph(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_node(2)
        td = heuristic_tree_decomposition(g)
        td.validate(g)


class TestNice:
    @pytest.mark.parametrize("graph", [
        nx.path_graph(5),
        nx.cycle_graph(5),
        nx.complete_graph(4),
        nx.balanced_tree(2, 2),
    ])
    def test_make_nice_valid(self, graph):
        td = heuristic_tree_decomposition(graph)
        nice = td.make_nice()
        nice.validate(graph)
        assert nice.width == td.width  # niceness does not change the width

    def test_root_is_empty(self):
        td = heuristic_tree_decomposition(nx.path_graph(4))
        nice = td.make_nice()
        assert nice.root.bag == frozenset()

    def test_each_vertex_forgotten_once(self):
        g = nx.cycle_graph(6)
        nice = heuristic_tree_decomposition(g).make_nice()
        forgotten = [n.vertex for n in nice.forget_nodes()]
        assert sorted(forgotten) == sorted(g.nodes)

    def test_join_nodes_have_equal_bags(self):
        g = nx.balanced_tree(2, 3)
        nice = heuristic_tree_decomposition(g).make_nice()
        for node in nice.nodes():
            if node.kind == "join":
                assert node.children[0].bag == node.bag == node.children[1].bag

    def test_nice_node_guards(self):
        with pytest.raises(ValueError):
            NiceNode("leaf", frozenset({1}), ())
        with pytest.raises(ValueError):
            NiceNode("join", frozenset(), (NiceNode("leaf", frozenset(), ()),))
        with pytest.raises(ValueError):
            NiceNode("weird", frozenset(), ())


def _chain(*steps):
    """A hand-built nice path from a leaf: ``("introduce"|"forget", v)``
    steps, bottom up; returns the top node."""
    node = NiceNode("leaf", frozenset(), ())
    for kind, v in steps:
        bag = node.bag | {v} if kind == "introduce" else node.bag - {v}
        node = NiceNode(kind, bag, (node,), vertex=v)
    return node


class TestValidateRejects:
    """Each validator rejects a decomposition that breaks one rule."""

    def test_non_empty_root(self):
        nice = NiceTreeDecomposition(_chain(("introduce", "a")))
        with pytest.raises(AssertionError, match="root bag is not empty"):
            nice.validate(nx.empty_graph(["a"]))

    def test_uncovered_vertex(self):
        nice = NiceTreeDecomposition(_chain(("introduce", "a"), ("forget", "a")))
        with pytest.raises(AssertionError, match="vertices not covered"):
            nice.validate(nx.empty_graph(["a", "b"]))

    def test_uncovered_edge(self):
        left = _chain(("introduce", "a"), ("forget", "a"))
        right = _chain(("introduce", "b"), ("forget", "b"))
        nice = NiceTreeDecomposition(NiceNode("join", frozenset(), (left, right)))
        with pytest.raises(AssertionError, match="edge .* not covered"):
            nice.validate(nx.Graph([("a", "b")]))

    def test_disconnected_occurrences(self):
        # "a" lives in both branches but is forgotten only on the left.
        left = _chain(("introduce", "a"), ("forget", "a"))
        right = _chain(("introduce", "a"), ("introduce", "b"))
        right = NiceNode("forget", frozenset(), (right,), vertex="b")
        nice = NiceTreeDecomposition(NiceNode("join", frozenset(), (left, right)))
        with pytest.raises(AssertionError, match="not connected"):
            nice.validate(nx.Graph([("a", "b")]))

    def test_vertex_forgotten_twice(self):
        nice = NiceTreeDecomposition(
            _chain(("introduce", "a"), ("forget", "a"), ("forget", "a"))
        )
        with pytest.raises(AssertionError, match="more than once"):
            nice.validate(nx.empty_graph(["a"]))

    def test_vertex_never_forgotten(self):
        # The forget of "b" drops "a" from the bag too.
        top = _chain(("introduce", "a"), ("introduce", "b"))
        nice = NiceTreeDecomposition(
            NiceNode("forget", frozenset(), (top,), vertex="b")
        )
        with pytest.raises(AssertionError, match="never forgotten"):
            nice.validate(nx.Graph([("a", "b")]))

    def test_well_formed_chain_passes(self):
        nice = NiceTreeDecomposition(_chain(
            ("introduce", "a"), ("introduce", "b"), ("forget", "a"), ("forget", "b"),
        ))
        nice.validate(nx.Graph([("a", "b")]))

    def test_tree_with_a_cycle(self):
        bags = {n: frozenset({0, 1}) for n in range(3)}
        td = TreeDecomposition(nx.cycle_graph(3), bags)
        with pytest.raises(AssertionError, match="not a tree"):
            td.validate(nx.path_graph(2))

    def test_two_component_forest(self):
        tree = nx.empty_graph(2)
        td = TreeDecomposition(tree, {0: frozenset({0, 1}), 1: frozenset({1})})
        with pytest.raises(AssertionError, match="not a tree"):
            td.validate(nx.path_graph(2))
