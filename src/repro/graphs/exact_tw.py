"""Exact treewidth via dynamic programming over vertex subsets.

Implements the classic elimination-ordering DP (Bodlaender et al.):

    tw(G) = f(V),   f(S) = min_{v in S} max( f(S \\ {v}), q(S \\ {v}, v) )

where ``q(S, v)`` counts the vertices of ``V \\ S \\ {v}`` reachable from
``v`` through internal vertices in ``S``.  Exponential in ``|V|`` but exact;
practical to ~16 vertices, which covers every circuit the tests and benches
measure exactly.  Larger graphs fall back to heuristics via
:func:`treewidth`.

Graphs are networkx graphs or int adjacency lists (see
:func:`repro.graphs.treedecomp.graph_adjacency`); self-loops are ignored.
"""

from __future__ import annotations

from .elimination import heuristic_tree_decomposition, order_to_tree_decomposition
from .treedecomp import TreeDecomposition, graph_adjacency

__all__ = ["exact_treewidth", "treewidth", "exact_tree_decomposition", "tree_decomposition"]

_DEFAULT_EXACT_LIMIT = 16
# ``tree_decomposition(exact=None)`` runs the exact DP up to this many vertices.
_AUTO_EXACT_LIMIT = 12


def _bit_adjacency(graph) -> tuple[list, list[int]]:
    neighbours = dict(graph_adjacency(graph))
    nodes = sorted(neighbours, key=repr)
    index = {v: i for i, v in enumerate(nodes)}
    adj = [0] * len(nodes)
    for u, vs in neighbours.items():
        for v in vs:
            if u != v:
                adj[index[u]] |= 1 << index[v]
    return nodes, adj


def _q(adj: list[int], n: int, s_mask: int, v: int) -> int:
    """``|{w ∉ S ∪ {v} : path v → w with internals in S}|`` via BFS."""
    seen = 1 << v
    frontier = adj[v]
    reach_out = frontier & ~s_mask & ~seen
    frontier &= s_mask & ~seen
    while frontier:
        seen |= frontier
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        nxt &= ~seen
        reach_out |= nxt & ~s_mask
        frontier = nxt & s_mask
    reach_out &= ~(1 << v)
    return bin(reach_out).count("1")


def exact_treewidth(graph, limit: int = _DEFAULT_EXACT_LIMIT) -> int:
    """Exact treewidth (raises ``ValueError`` beyond ``limit`` vertices)."""
    n = len(graph)
    if n == 0:
        return -1
    if n > limit:
        raise ValueError(f"exact treewidth limited to {limit} vertices (got {n})")
    nodes, adj = _bit_adjacency(graph)
    full = (1 << n) - 1
    # f over subsets, iterated by popcount so dependencies are ready.
    f = [0] * (1 << n)
    subsets_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for s in range(1 << n):
        subsets_by_size[bin(s).count("1")].append(s)
    for size in range(1, n + 1):
        for s in subsets_by_size[size]:
            best = n  # upper bound
            rem = s
            while rem:
                low = rem & -rem
                v = low.bit_length() - 1
                rem ^= low
                prev = s ^ low
                cost = max(f[prev], _q(adj, n, prev, v))
                if cost < best:
                    best = cost
            f[s] = best
    return f[full]


def exact_tree_decomposition(graph, limit: int = _DEFAULT_EXACT_LIMIT) -> TreeDecomposition:
    """A width-optimal tree decomposition, reconstructed from the DP."""
    n = len(graph)
    if n == 0:
        return TreeDecomposition([], [])
    if n > limit:
        raise ValueError(f"exact treewidth limited to {limit} vertices (got {n})")
    target = exact_treewidth(graph, limit)
    nodes, adj = _bit_adjacency(graph)
    # Greedy reconstruction of an optimal elimination order (reverse DP):
    # repeatedly pick a vertex whose elimination keeps the bound.
    order: list = []
    f_cache: dict[int, int] = {0: 0}

    def f(s: int) -> int:
        if s in f_cache:
            return f_cache[s]
        best = n
        rem = s
        while rem:
            low = rem & -rem
            v = low.bit_length() - 1
            rem ^= low
            prev = s ^ low
            cost = max(f(prev), _q(adj, n, prev, v))
            if cost < best:
                best = cost
        f_cache[s] = best
        return best

    s = (1 << n) - 1
    while s:
        rem = s
        chosen = None
        while rem:
            low = rem & -rem
            v = low.bit_length() - 1
            rem ^= low
            prev = s ^ low
            if max(f(prev), _q(adj, n, prev, v)) <= target:
                chosen = v
                break
        assert chosen is not None
        order.append(nodes[chosen])
        s ^= 1 << chosen
    order.reverse()  # DP eliminates last-first; elimination order is reversed
    td = order_to_tree_decomposition(graph, order)
    assert td.width == target, (td.width, target)
    return td


def treewidth(graph, exact_limit: int = _DEFAULT_EXACT_LIMIT) -> int:
    """Exact when small enough, heuristic upper bound otherwise."""
    if len(graph) <= exact_limit:
        return exact_treewidth(graph, exact_limit)
    return heuristic_tree_decomposition(graph).width


def tree_decomposition(graph, exact: bool | None = None, deadline=None) -> TreeDecomposition:
    """The decomposition Result 1's pipelines start from.

    ``exact=None`` picks the exact treewidth DP when the graph has at most
    12 vertices and the heuristics otherwise; ``True``/``False`` pin one.
    ``deadline`` is checked between the heuristics' eliminations (see
    :mod:`repro.graphs.elimination`).
    """
    if exact is None:
        exact = len(graph) <= _AUTO_EXACT_LIMIT
    if exact:
        return exact_tree_decomposition(graph)
    return heuristic_tree_decomposition(graph, deadline=deadline)
