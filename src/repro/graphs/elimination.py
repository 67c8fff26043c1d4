"""Elimination orderings and the heuristic treewidth upper bounds.

A perfect elimination ordering of a triangulation gives a tree decomposition
whose width is the max back-degree.  ``min_degree`` and ``min_fill`` are the
standard greedy heuristics; both return valid tree decomposition orders
(validated in tests against :meth:`TreeDecomposition.validate`).

Everything here runs on a plain ``dict[vertex, set]`` adjacency copied
once from the input graph (a networkx graph or an int adjacency list, see
:func:`repro.graphs.treedecomp.graph_adjacency`), self-loops dropped, keys
in the graph's node order.  No networkx is imported.  One greedy loop
serves both heuristics:

- **Tie-breaking.**  Each step eliminates the vertex with the smallest key,
  ``(degree, repr)`` for min-degree and ``(fill, degree, repr)`` for
  min-fill, where ``fill`` counts the missing edges among the vertex's
  neighbours.  Equal keys go to the vertex that comes first in the graph's
  node order, which is what ``min()`` over the graph's nodes picks.
  ``repr`` is computed once per vertex.
- **Refresh set.**  Keys live in a lazy heap.  After eliminating ``v``,
  only vertices whose key can have changed get a new entry: ``N(v)`` for
  min-degree, ``N(v) ∪ N(N(v))`` (taken after the fill edges are added)
  for min-fill.  Removing ``v`` changes the neighbourhoods in ``N(v)``
  only, and a fill edge ``ab`` changes the fill of ``u`` only when ``u``
  sees both ``a`` and ``b``.
- **Bags.**  The loop records each bag ``{v} ∪ N(v)`` as it eliminates;
  :func:`heuristic_tree_decomposition` builds its tree from those bags
  without eliminating again.  Bag ``i`` (of the ``i``-th eliminated
  vertex) gets as parent the bag of its earliest-eliminated neighbour, so
  parents have larger ids and the last bag is the root.
- **Early abandon.**  :func:`heuristic_tree_decomposition` runs min-degree
  first and stops min-fill as soon as its running width reaches
  min-degree's.  Min-degree wins ties, so min-fill could only have been
  chosen by being strictly narrower: the result is unchanged.
- **Safepoint.**  A ``deadline`` token (anything with
  ``check(where)``, such as :class:`repro.service.errors.Deadline`) is
  checked between eliminations as ``deadline.check("tree decomposition")``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Sequence

from .treedecomp import TreeDecomposition, graph_adjacency

__all__ = [
    "min_degree_order",
    "min_fill_order",
    "order_to_tree_decomposition",
    "heuristic_tree_decomposition",
    "treewidth_upper_bound",
]

_Adjacency = dict[Hashable, set]


def _adjacency(graph) -> _Adjacency:
    adj: _Adjacency = {}
    for v, neighbours in graph_adjacency(graph):
        adj[v] = neigh = set(neighbours)
        neigh.discard(v)
    return adj


def _eliminate(adj: _Adjacency, v: Hashable) -> set:
    """Remove ``v``, turning its neighbourhood into a clique; returns it."""
    neigh = adj.pop(v)
    for u in neigh:
        au = adj[u]
        au.discard(v)
        au |= neigh
        au.discard(u)
    return neigh


def _degree_key(adj: _Adjacency, v: Hashable) -> tuple:
    return (len(adj[v]),)


def _fill_key(adj: _Adjacency, v: Hashable) -> tuple:
    neigh = adj[v]
    d = len(neigh)
    linked = 0  # ordered pairs of adjacent neighbours
    for u in neigh:
        linked += len(neigh & adj[u])
    return ((d * (d - 1) - linked) // 2, d)


def _greedy(
    adj: _Adjacency,
    key: Callable[[_Adjacency, Hashable], tuple],
    *,
    two_hop: bool,
    abandon_at: int | None = None,
    deadline=None,
) -> tuple[list, list[set]] | None:
    """Eliminate all of ``adj`` (consumed) greedily by ``key``.

    Returns the order and each vertex's neighbours at elimination time, or
    ``None`` once the running width reaches ``abandon_at``.  ``two_hop``
    refreshes ``N(v) ∪ N(N(v))`` after each step instead of ``N(v)``.
    """
    ties = {v: (repr(v), i) for i, v in enumerate(adj)}
    current = {v: key(adj, v) for v in adj}
    heap = [(k, ties[v], v) for v, k in current.items()]
    heapq.heapify(heap)
    order: list = []
    neighbours: list[set] = []
    width = -1
    while adj:
        k, _, v = heapq.heappop(heap)
        if current.get(v) != k:
            continue  # stale entry
        if deadline is not None:
            deadline.check("tree decomposition")
        del current[v]
        neigh = _eliminate(adj, v)
        order.append(v)
        neighbours.append(neigh)
        if len(neigh) > width:
            width = len(neigh)
            if abandon_at is not None and width >= abandon_at:
                return None
        touched = neigh
        if two_hop:
            touched = set(neigh)
            for u in neigh:
                touched |= adj[u]
        for u in touched:
            k = key(adj, u)
            if k != current[u]:
                current[u] = k
                heapq.heappush(heap, (k, ties[u], u))
    return order, neighbours


def _decomposition(order: Sequence, neighbours: Sequence[set]) -> TreeDecomposition:
    """Bag of ``order[i]`` = itself plus its neighbours at elimination time;
    each bag attaches to the bag of its earliest-eliminated neighbour."""
    position = {v: i for i, v in enumerate(order)}
    bags = [frozenset({v} | neigh) for v, neigh in zip(order, neighbours)]
    parent = []
    for i, neigh in enumerate(neighbours):
        if neigh:
            parent.append(min(position[u] for u in neigh))
        else:
            # Disconnected remainder: attach anywhere to keep a tree.
            parent.append(i + 1 if i + 1 < len(order) else -1)
    return TreeDecomposition(bags, parent)


def min_degree_order(graph) -> list:
    """Greedy minimum-degree elimination order."""
    return _greedy(_adjacency(graph), _degree_key, two_hop=False)[0]


def min_fill_order(graph) -> list:
    """Greedy minimum-fill-in elimination order."""
    return _greedy(_adjacency(graph), _fill_key, two_hop=True)[0]


def order_to_tree_decomposition(graph, order: Sequence) -> TreeDecomposition:
    """The tree decomposition induced by an elimination order.

    Bag of ``v`` = ``{v} ∪ (neighbors of v at elimination time)``; each bag
    attaches to the bag of the earliest-eliminated vertex in it after ``v``.
    Raises ``ValueError`` unless ``order`` lists every vertex exactly once.
    """
    adj = _adjacency(graph)
    if len(order) != len(adj) or set(order) != adj.keys():
        raise ValueError("order must enumerate exactly the graph vertices")
    return _decomposition(order, [_eliminate(adj, v) for v in order])


def heuristic_tree_decomposition(graph, *, deadline=None) -> TreeDecomposition:
    """Best of min-degree and min-fill; min-degree on equal widths."""
    adj = _adjacency(graph)
    if not adj:
        return TreeDecomposition([], [])
    best = _greedy(
        {v: set(neigh) for v, neigh in adj.items()}, _degree_key,
        two_hop=False, deadline=deadline,
    )
    narrower = _greedy(
        adj, _fill_key, two_hop=True,
        abandon_at=max(map(len, best[1])), deadline=deadline,
    )
    return _decomposition(*(narrower or best))


def treewidth_upper_bound(graph) -> int:
    return heuristic_tree_decomposition(graph).width
