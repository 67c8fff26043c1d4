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
from repro.graphs.treedecomp import NiceTreeDecomposition, TreeDecomposition


class TestTreeDecomposition:
    def test_width(self):
        td = TreeDecomposition([{1, 2}, {2, 3}], [-1, 0])
        assert td.width == 1

    def test_empty(self):
        td = TreeDecomposition([], [])
        assert td.width == -1

    def test_mismatched_keys(self):
        with pytest.raises(ValueError):
            TreeDecomposition([], [-1])

    def test_parent_must_be_a_node(self):
        with pytest.raises(ValueError, match="is not a node"):
            TreeDecomposition([{0}, {1}], [-1, 2])

    def test_children_ascending_then_parent(self):
        td = TreeDecomposition([{0}] * 4, [2, -1, 1, 2])
        assert td.children == [[], [2], [0, 3], []]
        assert td.neighbors(2) == [0, 3, 1]
        assert td.neighbors(1) == [2]

    def test_validate_missing_edge(self):
        g = nx.path_graph(3)
        td = TreeDecomposition([{0, 1, 2}], [-1])
        td.validate(g)  # one bag with everything is fine
        td.validate([[1], [0, 2], [1]])  # the same graph as an adjacency list
        bad = TreeDecomposition([{0, 1}, {2}], [-1, 0])
        with pytest.raises(AssertionError):
            bad.validate(g)  # edge (1,2) uncovered
        with pytest.raises(AssertionError, match=r"edge \(1, 2\) not covered"):
            bad.validate([[1], [0, 2], [1]])

    def test_validate_connectivity(self):
        g = nx.path_graph(2)
        td = TreeDecomposition([{0}, set(), {0, 1}], [-1, 0, 1])
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
        assert nice.bag[nice.root] == frozenset()

    def test_each_vertex_forgotten_once(self):
        g = nx.cycle_graph(6)
        nice = heuristic_tree_decomposition(g).make_nice()
        forgotten = [nice.vertex[i] for i in nice.forget_nodes()]
        assert sorted(forgotten) == sorted(g.nodes)

    def test_join_nodes_have_equal_bags(self):
        g = nx.balanced_tree(2, 3)
        nice = heuristic_tree_decomposition(g).make_nice()
        for i in range(len(nice)):
            if nice.kind[i] == "join":
                left, right = nice.children[i]
                assert nice.bag[left] == nice.bag[i] == nice.bag[right]

    def test_lists_are_postorder(self):
        nice = heuristic_tree_decomposition(nx.balanced_tree(2, 3)).make_nice()
        for i, children in enumerate(nice.children):
            assert all(c < i for c in children)
        assert nice.root == len(nice) - 1

    def test_nice_node_guards(self):
        with pytest.raises(ValueError):
            NiceTreeDecomposition(["leaf"], [None], [()], [frozenset({1})])
        with pytest.raises(ValueError):
            NiceTreeDecomposition(
                ["leaf", "join"], [None, None], [(), (0,)], [frozenset()] * 2
            )
        with pytest.raises(ValueError):
            NiceTreeDecomposition(["weird"], [None], [()], [frozenset()])
        with pytest.raises(ValueError, match="differ in length"):
            NiceTreeDecomposition(["leaf"], [], [()], [frozenset()])

    def test_nice_lists_must_be_one_postorder_tree(self):
        empty = [frozenset()] * 3
        with pytest.raises(ValueError, match="postorder"):
            # The forget's child comes after it.
            NiceTreeDecomposition(["forget", "leaf"], [0, None], [(1,), ()], empty[:2])
        with pytest.raises(ValueError, match="one tree"):
            NiceTreeDecomposition(["leaf", "leaf"], [None, None], [(), ()], empty[:2])
        with pytest.raises(ValueError, match="postorder"):
            # The join's children are swapped.
            NiceTreeDecomposition(
                ["leaf", "leaf", "join"], [None] * 3, [(), (), (1, 0)], empty
            )


def _chain(*steps):
    """A hand-built nice path from a leaf: ``("introduce"|"forget", v)``
    steps, bottom up; returns the top's spec (see :func:`_nice`)."""
    spec = ("leaf",)
    for kind, v in steps:
        spec = (kind, v, spec)
    return spec


def _join(bag, left, right):
    return ("join", frozenset(bag), left, right)


def _nice(spec):
    """The postorder lists of a nested spec: ``("leaf",)``,
    ``("introduce"|"forget", v, child)`` (the bag follows from the
    child's), ``("introduce"|"forget", v, child, bag)`` or
    ``("join", bag, left, right)``."""
    kind, vertex, children, bag = [], [], [], []

    def walk(sp):
        if sp[0] == "leaf":
            v, ch, b = None, (), frozenset()
        elif sp[0] == "join":
            v, ch, b = None, (walk(sp[2]), walk(sp[3])), sp[1]
        else:
            c = walk(sp[2])
            v, ch = sp[1], (c,)
            if len(sp) == 4:
                b = frozenset(sp[3])
            else:
                b = bag[c] | {v} if sp[0] == "introduce" else bag[c] - {v}
        kind.append(sp[0])
        vertex.append(v)
        children.append(ch)
        bag.append(b)
        return len(kind) - 1

    walk(spec)
    return NiceTreeDecomposition(kind, vertex, children, bag)


class TestValidateRejects:
    """Each validator rejects a decomposition that breaks one rule."""

    def test_non_empty_root(self):
        nice = _nice(_chain(("introduce", "a")))
        with pytest.raises(AssertionError, match="root bag is not empty"):
            nice.validate(nx.empty_graph(["a"]))

    def test_uncovered_vertex(self):
        nice = _nice(_chain(("introduce", "a"), ("forget", "a")))
        with pytest.raises(AssertionError, match="vertices not covered"):
            nice.validate(nx.empty_graph(["a", "b"]))

    def test_uncovered_edge(self):
        left = _chain(("introduce", "a"), ("forget", "a"))
        right = _chain(("introduce", "b"), ("forget", "b"))
        nice = _nice(_join((), left, right))
        with pytest.raises(AssertionError, match="edge .* not covered"):
            nice.validate(nx.Graph([("a", "b")]))

    def test_disconnected_occurrences(self):
        # "a" lives in both branches but is forgotten only on the left.
        left = _chain(("introduce", "a"), ("forget", "a"))
        right = _chain(("introduce", "a"), ("introduce", "b"))
        right = ("forget", "b", right, ())
        nice = _nice(_join((), left, right))
        with pytest.raises(AssertionError, match="not connected"):
            nice.validate(nx.Graph([("a", "b")]))

    def test_vertex_forgotten_twice(self):
        nice = _nice(_chain(("introduce", "a"), ("forget", "a"), ("forget", "a")))
        with pytest.raises(AssertionError, match="more than once"):
            nice.validate(nx.empty_graph(["a"]))

    def test_vertex_never_forgotten(self):
        # The forget of "b" drops "a" from the bag too.
        top = _chain(("introduce", "a"), ("introduce", "b"))
        nice = _nice(("forget", "b", top, ()))
        with pytest.raises(AssertionError, match="never forgotten"):
            nice.validate(nx.Graph([("a", "b")]))

    def test_well_formed_chain_passes(self):
        nice = _nice(_chain(
            ("introduce", "a"), ("introduce", "b"), ("forget", "a"), ("forget", "b"),
        ))
        nice.validate(nx.Graph([("a", "b")]))

    def test_tree_with_a_cycle(self):
        # Parent links 0 -> 1 -> 2 -> 0: no root.
        td = TreeDecomposition([frozenset({0, 1})] * 3, [1, 2, 0])
        with pytest.raises(AssertionError, match="not a tree"):
            td.validate(nx.path_graph(2))

    def test_cycle_beside_a_root(self):
        td = TreeDecomposition([frozenset({0, 1})] * 3, [-1, 2, 1])
        with pytest.raises(AssertionError, match="not a tree"):
            td.validate(nx.path_graph(2))

    def test_two_component_forest(self):
        td = TreeDecomposition([frozenset({0, 1}), frozenset({1})], [-1, -1])
        with pytest.raises(AssertionError, match="not a tree"):
            td.validate(nx.path_graph(2))
