"""Pathwidth via the vertex-separation dynamic program.

Pathwidth equals vertex separation: minimize over linear orders the maximum
boundary size ``|{u ≤ i : u has a neighbor > i}|``.  The subset DP

    g(S) = min_{v in S} max( g(S \\ {v}), b(S) ),
    b(S) = |{u in S : N(u) ⊄ S}|

is exact; a min-degree-style greedy gives the heuristic fallback.  The
paper's equation (2) discussion (circuit pathwidth vs OBDD width) is
exercised against these routines.
"""

from __future__ import annotations

import networkx as nx

from .treedecomp import TreeDecomposition

__all__ = ["exact_pathwidth", "pathwidth", "order_to_path_decomposition", "heuristic_pathwidth"]

_DEFAULT_EXACT_LIMIT = 18


def _bit_adjacency(graph: nx.Graph) -> tuple[list, list[int]]:
    nodes = sorted(graph.nodes, key=repr)
    index = {v: i for i, v in enumerate(nodes)}
    adj = [0] * len(nodes)
    for u, v in graph.edges:
        if u == v:
            continue
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return nodes, adj


def _boundary_size(adj: list[int], s: int) -> int:
    count = 0
    rem = s
    while rem:
        low = rem & -rem
        u = low.bit_length() - 1
        rem ^= low
        if adj[u] & ~s:
            count += 1
    return count


def exact_pathwidth(graph: nx.Graph, limit: int = _DEFAULT_EXACT_LIMIT) -> int:
    """Exact pathwidth (vertex separation number)."""
    g = nx.Graph(graph)
    g.remove_edges_from(nx.selfloop_edges(g))
    n = g.number_of_nodes()
    if n == 0:
        return -1
    if n > limit:
        raise ValueError(f"exact pathwidth limited to {limit} vertices (got {n})")
    nodes, adj = _bit_adjacency(g)
    size = 1 << n
    INF = n + 1
    gdp = [INF] * size
    gdp[0] = 0
    # Iterate masks in increasing numeric order: all submasks precede.
    for s in range(1, size):
        b = _boundary_size(adj, s)
        best = INF
        rem = s
        while rem:
            low = rem & -rem
            rem ^= low
            prev = gdp[s ^ low]
            cost = prev if prev >= b else b
            if cost < best:
                best = cost
        gdp[s] = best
    return gdp[size - 1]


def exact_vertex_order(graph: nx.Graph, limit: int = _DEFAULT_EXACT_LIMIT) -> list:
    """An order witnessing the exact pathwidth."""
    g = nx.Graph(graph)
    g.remove_edges_from(nx.selfloop_edges(g))
    n = g.number_of_nodes()
    if n == 0:
        return []
    target = exact_pathwidth(g, limit)
    nodes, adj = _bit_adjacency(g)

    cache: dict[int, int] = {0: 0}

    def gdp(s: int) -> int:
        if s in cache:
            return cache[s]
        b = _boundary_size(adj, s)
        best = n + 1
        rem = s
        while rem:
            low = rem & -rem
            rem ^= low
            best = min(best, max(gdp(s ^ low), b))
        cache[s] = best
        return best

    order: list = []
    s = (1 << n) - 1
    while s:
        b = _boundary_size(adj, s)
        rem = s
        chosen = None
        while rem:
            low = rem & -rem
            v = low.bit_length() - 1
            rem ^= low
            if max(gdp(s ^ low), b) <= target:
                chosen = v
                break
        assert chosen is not None
        order.append(nodes[chosen])
        s ^= 1 << chosen
    order.reverse()
    return order


def order_to_path_decomposition(graph: nx.Graph, order: list) -> TreeDecomposition:
    """The path decomposition induced by a vertex order: bag ``i`` holds
    ``order[i]`` plus all earlier vertices with a neighbor at or after ``i``."""
    g = nx.Graph(graph)
    g.remove_edges_from(nx.selfloop_edges(g))
    position = {v: i for i, v in enumerate(order)}
    n = len(order)
    bags: list[frozenset] = []
    for i in range(n):
        bag = {order[i]}
        for u in order[: i + 1]:
            if any(position[w] >= i for w in g.neighbors(u)):
                bag.add(u)
        bags.append(frozenset(bag))
    return TreeDecomposition(bags, list(range(1, n)) + [-1] if n else [])


def heuristic_pathwidth(graph: nx.Graph) -> int:
    """Greedy upper bound: repeatedly place the vertex minimizing the
    resulting boundary."""
    g = nx.Graph(graph)
    g.remove_edges_from(nx.selfloop_edges(g))
    nodes, adj = _bit_adjacency(g)
    n = len(nodes)
    placed = 0
    best_width = 0
    remaining = set(range(n))
    while remaining:
        v = min(
            remaining,
            key=lambda u: (_boundary_size(adj, placed | (1 << u)), repr(nodes[u])),
        )
        placed |= 1 << v
        remaining.remove(v)
        best_width = max(best_width, _boundary_size(adj, placed))
    return best_width


def pathwidth(graph: nx.Graph, exact_limit: int = _DEFAULT_EXACT_LIMIT) -> int:
    """Exact when small enough, heuristic upper bound otherwise."""
    g = nx.Graph(graph)
    g.remove_edges_from(nx.selfloop_edges(g))
    if g.number_of_nodes() <= exact_limit:
        return exact_pathwidth(g, exact_limit)
    return heuristic_pathwidth(g)
