"""Tree decompositions and *nice* tree decompositions.

Lemma 1's proof consumes a nice tree decomposition of the circuit whose root
bag is empty, so every input gate (variable) is *forgotten exactly once*;
:class:`NiceTreeDecomposition` guarantees exactly that shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "TreeDecomposition",
    "NiceNode",
    "NiceTreeDecomposition",
    "FriendlyTreeDecomposition",
]


class TreeDecomposition:
    """A tree decomposition: a tree whose nodes carry bags of graph vertices.

    ``tree`` is an undirected :class:`networkx.Graph` on integer node ids;
    ``bags`` maps node id to a frozenset of vertices.
    """

    def __init__(self, tree: nx.Graph, bags: dict[int, frozenset]):
        self.tree = tree
        self.bags = {n: frozenset(b) for n, b in bags.items()}
        if set(tree.nodes) != set(self.bags):
            raise ValueError("tree nodes and bag keys differ")

    @property
    def width(self) -> int:
        """Max bag size minus one (``-1`` for the empty decomposition)."""
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags.values()) - 1

    def vertices(self) -> set:
        out: set = set()
        for b in self.bags.values():
            out |= b
        return out

    def validate(self, graph: nx.Graph) -> None:
        """Raise AssertionError unless this is a valid tree decomposition of
        ``graph`` (a tree; coverage of vertices and edges; connectivity).

        Runs in ``O(Σ|bag|)``: one breadth-first pass roots the tree, and
        :func:`_check_cover` does the rest from each vertex's topmost bags.
        """
        adj = self.tree.adj
        parent: dict = {}
        if adj:
            root = next(iter(adj))
            parent[root] = None
            order = [root]
            for u in order:
                for w in adj[u]:
                    if w not in parent:
                        parent[w] = u
                        order.append(w)
            # Connected with |V| - 1 edges (a self-loop counts as one).
            if len(parent) != len(adj) or self.tree.number_of_edges() != len(adj) - 1:
                raise AssertionError("decomposition tree is not a tree")
        bags = self.bags
        tops: list = []
        for u, p in parent.items():
            bag = bags[u]
            tops.extend((x, bag) for x in (bag if p is None else bag - bags[p]))
        _check_cover(graph, tops)

    # ------------------------------------------------------------------
    def make_nice(self, root: int | None = None) -> "NiceTreeDecomposition":
        """Convert to a nice tree decomposition with an *empty root bag*.

        Node types: ``leaf`` (empty bag), ``introduce`` (adds one vertex),
        ``forget`` (removes one vertex), ``join`` (two children, equal bags).
        """
        if self.tree.number_of_nodes() == 0:
            return NiceTreeDecomposition(root=NiceNode("leaf", frozenset(), ()))
        if root is None:
            root = next(iter(self.tree.nodes))
        built = self._build_nice(root, parent=None)
        # Forget everything remaining on top so the root bag is empty.
        for v in sorted(built.bag, key=repr):
            built = NiceNode("forget", built.bag - {v}, (built,), vertex=v)
        return NiceTreeDecomposition(root=built)

    def make_friendly(self, root: int | None = None) -> "FriendlyTreeDecomposition":
        """Convert to a *friendly* tree decomposition (the shape the
        bag-by-bag d-DNNF builder of :mod:`repro.dnnf` consumes).

        A friendly decomposition is a nice tree decomposition with an empty
        root bag in which every vertex is forgotten exactly once; the forget
        node of a vertex is its *responsible bag* in the terminology of
        provsql / arXiv 1811.02944 §5.1 — the unique place where the vertex
        leaves the bags for good, with all its incident edges already
        covered below.  Width never increases: every friendly bag is a
        subset of one of the original bags.
        """
        return FriendlyTreeDecomposition(self.make_nice(root).root)

    def _build_nice(self, node: int, parent: int | None) -> "NiceNode":
        # Iterative bottom-up construction (an explicit DFS preorder,
        # consumed in reverse): deep decompositions of large circuits blow
        # Python's recursion limit otherwise.
        preorder: list[tuple[int, int | None]] = []
        stack: list[tuple[int, int | None]] = [(node, parent)]
        while stack:
            n, par = stack.pop()
            preorder.append((n, par))
            stack.extend((c, n) for c in self.tree.neighbors(n) if c != par)
        built: dict[int, NiceNode] = {}
        for n, par in reversed(preorder):
            bag = self.bags[n]
            children = [c for c in self.tree.neighbors(n) if c != par]
            if not children:
                built[n] = _chain_from_empty(bag)
                continue
            sub = [self._adapt(built[c], bag) for c in children]
            # Binarize joins.
            while len(sub) > 1:
                merged: list[NiceNode] = []
                for i in range(0, len(sub) - 1, 2):
                    merged.append(NiceNode("join", bag, (sub[i], sub[i + 1])))
                if len(sub) % 2 == 1:
                    merged.append(sub[-1])
                sub = merged
            built[n] = sub[0]
        return built[node]

    @staticmethod
    def _adapt(child: "NiceNode", target_bag: frozenset) -> "NiceNode":
        """Insert forget/introduce chains turning ``child.bag`` into
        ``target_bag``."""
        node = child
        for v in sorted(child.bag - target_bag, key=repr):
            node = NiceNode("forget", node.bag - {v}, (node,), vertex=v)
        for v in sorted(target_bag - node.bag, key=repr):
            node = NiceNode("introduce", node.bag | {v}, (node,), vertex=v)
        return node

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TreeDecomposition(nodes={self.tree.number_of_nodes()}, width={self.width})"


def _chain_from_empty(bag: frozenset) -> "NiceNode":
    node = NiceNode("leaf", frozenset(), ())
    for v in sorted(bag, key=repr):
        node = NiceNode("introduce", node.bag | {v}, (node,), vertex=v)
    return node


def _check_cover(graph: nx.Graph, tops: Iterable[tuple[Hashable, frozenset]]) -> dict:
    """Coverage and connectivity of a rooted tree decomposition of ``graph``.

    ``tops`` holds ``(x, bag)`` for every tree node whose bag holds ``x``
    and whose parent's bag does not (or which is the root): one pair per
    connected piece of the nodes holding ``x``, so ``x``'s bags are
    connected iff it has exactly one pair.  Two connected subtrees of a
    rooted tree meet iff the top node of one lies in the other, so an edge
    ``{u, v}`` is covered iff ``v`` is in ``u``'s top bag or ``u`` in
    ``v``'s.  Connectivity is therefore checked before edges.  Returns the
    top bag of every vertex (its keys are the decomposition's vertices).
    """
    top: dict = {}
    split: list = []
    for x, bag in tops:
        if x in top:
            split.append(x)
        else:
            top[x] = bag
    missing = set(graph) - top.keys()
    if missing:
        raise AssertionError(f"vertices not covered: {missing}")
    if split:
        raise AssertionError(f"bags containing {split[0]!r} are not connected")
    for u, v in graph.edges:
        if u != v and v not in top[u] and u not in top[v]:
            raise AssertionError(f"edge {(u, v)} not covered")
    return top


@dataclass(frozen=True)
class NiceNode:
    """A node of a nice tree decomposition."""

    kind: str  # leaf | introduce | forget | join
    bag: frozenset
    children: tuple["NiceNode", ...]
    vertex: Hashable | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("leaf", "introduce", "forget", "join"):
            raise ValueError(f"bad nice node kind {self.kind!r}")
        if self.kind == "leaf" and (self.children or self.bag):
            raise ValueError("leaf nodes have empty bags and no children")
        if self.kind in ("introduce", "forget") and len(self.children) != 1:
            raise ValueError(f"{self.kind} nodes have exactly one child")
        if self.kind == "join" and len(self.children) != 2:
            raise ValueError("join nodes have exactly two children")

    def nodes(self) -> Iterator["NiceNode"]:
        """Postorder traversal, iterative (nice trees get very deep)."""
        stack: list[tuple["NiceNode", bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            stack.append((node, True))
            for c in reversed(node.children):
                stack.append((c, False))


class NiceTreeDecomposition:
    """A nice tree decomposition with empty root bag.

    Guarantees (checked by :meth:`validate`): the root bag is empty, and
    every vertex is forgotten exactly once — the exact preconditions of the
    Lemma 1 vtree extraction.
    """

    def __init__(self, root: NiceNode):
        self.root = root

    @property
    def width(self) -> int:
        return max((len(n.bag) for n in self.root.nodes()), default=0) - 1

    def nodes(self) -> Iterator[NiceNode]:
        return self.root.nodes()

    def forget_nodes(self) -> list[NiceNode]:
        return [n for n in self.nodes() if n.kind == "forget"]

    def leaves(self) -> list[NiceNode]:
        return [n for n in self.nodes() if n.kind == "leaf"]

    def validate(self, graph: nx.Graph) -> None:
        """Raise AssertionError unless this is a valid tree decomposition of
        ``graph`` with an empty root bag that forgets every vertex exactly
        once.

        One iterative pass over the (deep) tree, ``O(#nodes · w)`` for bags
        of at most ``w`` vertices: it collects the forgotten vertices and,
        for :func:`_check_cover`, each vertex's top bags.  In a nice tree a
        bag only gains a vertex its parent lacks below a forget node, so
        there are about as many top bags as forget nodes.
        """
        if self.root.bag:
            raise AssertionError("root bag is not empty")
        forgotten: list = []
        tops: list = []
        stack: list[tuple[NiceNode, frozenset]] = [(self.root, frozenset())]
        while stack:
            n, above = stack.pop()
            bag = n.bag
            if n.kind == "forget":
                forgotten.append(n.vertex)
            if not bag <= above:
                tops.extend((x, bag) for x in bag - above)
            for c in n.children:
                stack.append((c, bag))
        top = _check_cover(graph, tops)
        if len(forgotten) != len(set(forgotten)):
            raise AssertionError("some vertex forgotten more than once")
        if top.keys() != set(forgotten):
            raise AssertionError("some vertex never forgotten")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NiceTreeDecomposition(width={self.width})"


class FriendlyTreeDecomposition(NiceTreeDecomposition):
    """A nice tree decomposition annotated for bag-by-bag d-DNNF building.

    Beyond :class:`NiceTreeDecomposition`'s guarantees (empty root bag,
    every vertex forgotten exactly once) this indexes the *responsible bag*
    of every vertex: ``responsible[v]`` is the unique forget node of ``v``.
    By connectivity, every edge incident to ``v`` is covered strictly below
    that node — which is exactly what lets the d-DNNF builder commit the
    literal of a variable gate (or discharge a gate's justification
    obligations) at its responsible bag and never look at the vertex again.
    """

    def __init__(self, root: NiceNode):
        super().__init__(root)
        responsible: dict[Hashable, NiceNode] = {}
        counts = dict.fromkeys(("leaf", "introduce", "forget", "join"), 0)
        vertices: set = set()
        stack = [root]
        while stack:
            n = stack.pop()
            counts[n.kind] += 1
            vertices |= n.bag
            if n.kind == "forget":
                if n.vertex in responsible:
                    raise ValueError(
                        f"vertex {n.vertex!r} forgotten more than once; "
                        "not a friendly decomposition"
                    )
                responsible[n.vertex] = n
            stack.extend(n.children)
        if responsible.keys() != vertices:
            never = vertices - responsible.keys()
            raise ValueError(f"vertices never forgotten: {sorted(never, key=repr)[:5]}")
        self.responsible = responsible
        self._kind_counts = {k: c for k, c in counts.items() if c}

    def kind_counts(self) -> dict[str, int]:
        """Number of nodes per bag shape (``leaf``/``introduce``/``forget``/
        ``join``) — public counters for stats and tests."""
        return dict(self._kind_counts)

    def responsible_bag(self, vertex: Hashable) -> NiceNode:
        """The forget node of ``vertex`` (raises KeyError if unknown)."""
        return self.responsible[vertex]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FriendlyTreeDecomposition(width={self.width}, "
            f"vertices={len(self.responsible)})"
        )
