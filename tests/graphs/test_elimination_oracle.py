"""The set-based elimination heuristics against the naive reference.

``naive_*`` below is the straightforward networkx implementation: it
recomputes every vertex's degree or fill-in at every step, takes
``min()`` over the graph's nodes, and builds its tree as a networkx graph.
The incremental loop in :mod:`repro.graphs.elimination` must return
exactly its orders, and :func:`heuristic_tree_decomposition` exactly its
bags and tree (each node's neighbours in the networkx tree's order),
including on self-loops, isolated vertices and mixed int/str/tuple labels,
and on a circuit's int adjacency list as on its networkx graph.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.build import chain_and_or, grid, ladder
from repro.graphs.elimination import (
    heuristic_tree_decomposition,
    min_degree_order,
    min_fill_order,
    order_to_tree_decomposition,
)
from repro.queries.database import complete_database
from repro.queries.lineage import lineage_terms, terms_circuit
from repro.queries.syntax import parse_ucq


# -- the reference ---------------------------------------------------------
def _naive_eliminate(g, v):
    neigh = list(g.neighbors(v))
    for i in range(len(neigh)):
        for j in range(i + 1, len(neigh)):
            g.add_edge(neigh[i], neigh[j])
    g.remove_node(v)


def _naive_fill_in(g, v):
    neigh = list(g.neighbors(v))
    missing = 0
    for i in range(len(neigh)):
        for j in range(i + 1, len(neigh)):
            if not g.has_edge(neigh[i], neigh[j]):
                missing += 1
    return missing


def naive_min_degree_order(graph):
    g = nx.Graph(graph)
    g.remove_edges_from(nx.selfloop_edges(g))
    order = []
    while g.number_of_nodes():
        v = min(g.nodes, key=lambda u: (g.degree(u), repr(u)))
        order.append(v)
        _naive_eliminate(g, v)
    return order


def naive_min_fill_order(graph):
    g = nx.Graph(graph)
    g.remove_edges_from(nx.selfloop_edges(g))
    order = []
    while g.number_of_nodes():
        v = min(g.nodes, key=lambda u: (_naive_fill_in(g, u), g.degree(u), repr(u)))
        order.append(v)
        _naive_eliminate(g, v)
    return order


def naive_order_to_tree_decomposition(graph, order):
    g = nx.Graph(graph)
    g.remove_edges_from(nx.selfloop_edges(g))
    position = {v: i for i, v in enumerate(order)}
    bags, bag_neighbors = [], []
    for v in order:
        neigh = set(g.neighbors(v))
        bags.append(frozenset({v} | neigh))
        bag_neighbors.append(neigh)
        _naive_eliminate(g, v)
    tree = nx.Graph()
    tree.add_nodes_from(range(len(bags)))
    for i, v in enumerate(order):
        later = [u for u in bag_neighbors[i] if position[u] > i]
        if later:
            tree.add_edge(i, position[min(later, key=lambda u: position[u])])
        elif i + 1 < len(order):
            tree.add_edge(i, i + 1)
    return bags, tree


def naive_heuristic_tree_decomposition(graph):
    """``(bags, networkx tree)``."""
    if graph.number_of_nodes() == 0:
        return [], nx.Graph()
    candidates = [
        naive_order_to_tree_decomposition(graph, naive_min_degree_order(graph)),
        naive_order_to_tree_decomposition(graph, naive_min_fill_order(graph)),
    ]
    return min(candidates, key=lambda bt: max(map(len, bt[0])))


# -- comparison --------------------------------------------------------------
def shape(td):
    """Bags plus each node's neighbours in order (``make_nice`` walks
    neighbours in that order, so it shapes the nice tree)."""
    return td.bags, [(n, td.neighbors(n)) for n in range(len(td.bags))]


def naive_shape(bags_tree):
    bags, tree = bags_tree
    return bags, [(n, list(tree.neighbors(n))) for n in tree.nodes]


def assert_matches_reference(graph):
    assert min_degree_order(graph) == naive_min_degree_order(graph)
    fill = naive_min_fill_order(graph)
    assert min_fill_order(graph) == fill
    assert shape(order_to_tree_decomposition(graph, fill)) == naive_shape(
        naive_order_to_tree_decomposition(graph, fill)
    )
    td = heuristic_tree_decomposition(graph)
    assert shape(td) == naive_shape(naive_heuristic_tree_decomposition(graph))
    td.validate(graph)


labels = st.one_of(
    st.integers(-5, 30),
    st.text("abcxyz", min_size=1, max_size=2),
    st.tuples(st.integers(0, 3), st.sampled_from("uv")),
)


@st.composite
def graphs(draw):
    nodes = draw(st.lists(labels, min_size=0, max_size=14, unique=True))
    g = nx.Graph()
    g.add_nodes_from(nodes)  # vertices without edges stay isolated
    if nodes:
        index = st.integers(0, len(nodes) - 1)
        pairs = st.lists(st.tuples(index, index), min_size=len(nodes), max_size=3 * len(nodes))
        for i, j in draw(pairs):
            g.add_edge(nodes[i], nodes[j])  # i == j draws a self-loop
    return g


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_random_graphs_match_reference(graph):
    assert_matches_reference(graph)


def _lineage_graph(text, domain):
    # The grounded-DNF circuit: its width-9 graph at domain 3 is the
    # corpus's only lineage graph wide enough to stress min-fill.
    db = complete_database({"R": 1, "S": 2, "T": 1, "U": 2}, domain)
    return terms_circuit(lineage_terms(parse_ucq(text), db)).graph()


CORPUS = {
    "grid(3,4)": lambda: grid(3, 4).graph(),
    "grid(4,3)": lambda: grid(4, 3).graph(),
    "chain_and_or(60)": lambda: chain_and_or(60).graph(),
    "ladder(20)": lambda: ladder(20).graph(),
    "S(x,y),S(y,z),U(z,w)@2": lambda: _lineage_graph("S(x,y),S(y,z),U(z,w)", 2),
    "S(x,y),U(y,z),S(z,w)@3": lambda: _lineage_graph("S(x,y),U(y,z),S(z,w)", 3),
}


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_matches_reference(name):
    assert_matches_reference(CORPUS[name]())


@pytest.mark.parametrize("make", [
    lambda: grid(3, 4), lambda: chain_and_or(60), lambda: ladder(20),
], ids=["grid(3,4)", "chain_and_or(60)", "ladder(20)"])
def test_adjacency_list_matches_networkx_graph(make):
    circuit = make()
    adjacency, graph = circuit.adjacency(), circuit.graph()
    assert adjacency == [list(graph.neighbors(v)) for v in graph]
    assert min_degree_order(adjacency) == min_degree_order(graph)
    assert min_fill_order(adjacency) == min_fill_order(graph)
    td = heuristic_tree_decomposition(adjacency)
    assert shape(td) == shape(heuristic_tree_decomposition(graph))
    td.validate(adjacency)


class SameRepr:
    """Distinct vertices whose reprs tie, so only node order decides."""

    def __repr__(self):
        return "same"


def test_equal_keys_go_to_the_first_vertex_in_node_order():
    a, b, c = SameRepr(), SameRepr(), SameRepr()
    g = nx.Graph()
    g.add_nodes_from([b, c, a])
    g.add_edges_from([(a, b), (b, c), (c, a)])
    assert min_degree_order(g) == naive_min_degree_order(g) == [b, c, a]
    assert min_fill_order(g) == naive_min_fill_order(g) == [b, c, a]


class CountingDeadline:
    """Raises on the ``limit``-th check, like an expiring Deadline."""

    def __init__(self, limit):
        self.limit = limit
        self.checks = []

    def check(self, where="compile"):
        self.checks.append(where)
        if len(self.checks) >= self.limit:
            raise TimeoutError(where)


def test_deadline_is_checked_between_eliminations():
    graph = ladder(20).graph()
    spy = CountingDeadline(limit=10**9)
    heuristic_tree_decomposition(graph, deadline=spy)
    n = graph.number_of_nodes()
    # Every min-degree step plus the min-fill steps until the abandon.
    assert n < len(spy.checks) < 2 * n
    assert set(spy.checks) == {"tree decomposition"}
    with pytest.raises(TimeoutError):
        heuristic_tree_decomposition(graph, deadline=CountingDeadline(limit=5))
