"""Tree decompositions and *nice* tree decompositions, stored as flat arrays.

Lemma 1's proof consumes a nice tree decomposition of the circuit whose root
bag is empty, so every input gate (variable) is *forgotten exactly once*;
:class:`NiceTreeDecomposition` guarantees exactly that shape.

Both kinds are laid out the way provsql's ``TreeDecomposition<W>`` is, as
parallel lists indexed by node id, with no object per node:

- :class:`TreeDecomposition` holds ``bags[t]``, ``parent[t]`` (``-1`` at
  the root) and ``children[t]``, ascending.  ``neighbors(t)`` lists the
  children, then the parent: :meth:`~TreeDecomposition.make_nice` walks
  the tree in that order, so it fixes the nice tree's shape.
- :class:`NiceTreeDecomposition` holds ``kind[i]``, ``vertex[i]`` (the
  vertex an introduce or forget node adds or drops, else ``None``),
  ``children[i]`` (a tuple of ids) and ``bag[i]``, in postorder: children
  come before their parent, a join's left subtree before its right one, and
  the root is the last node.  Consumers walk the lists front to back.

:meth:`~TreeDecomposition.make_nice` sorts every bag difference it turns
into introduce or forget steps by an int rank computed once per
decomposition, the rank of the vertex's ``repr``.

A *graph* here is a networkx graph or an int adjacency list, where
``graph[i]`` lists vertex ``i``'s neighbours (as
:meth:`repro.circuits.circuit.Circuit.adjacency` returns it).  The compile
path passes the list, so it never imports networkx.
"""

from __future__ import annotations

from functools import cache
from typing import Hashable, Iterable, Sequence

__all__ = [
    "graph_adjacency",
    "TreeDecomposition",
    "NiceTreeDecomposition",
    "FriendlyTreeDecomposition",
]

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"
_KINDS = (LEAF, INTRODUCE, FORGET, JOIN)
_EMPTY: frozenset = frozenset()
# The tasks of :meth:`TreeDecomposition._nice_lists`' walk.
_VISIT, _ADAPT, _JOIN = range(3)


def graph_adjacency(graph) -> Iterable[tuple[Hashable, Iterable]]:
    """``(vertex, neighbours)`` for every vertex of ``graph``, in node order."""
    if isinstance(graph, list):
        return enumerate(graph)
    return graph.adj.items()


class TreeDecomposition:
    """A tree decomposition: a tree whose nodes carry bags of graph vertices.

    Node ``t`` (``0 <= t < len(bags)``) has bag ``bags[t]`` and parent
    ``parent[t]``, ``-1`` for the root.
    """

    def __init__(self, bags: Sequence[Iterable], parent: Sequence[int]):
        if len(bags) != len(parent):
            raise ValueError("bags and parent lists differ in length")
        n = len(bags)
        self.bags = [frozenset(b) for b in bags]
        self.parent = list(parent)
        self.children: list[list[int]] = [[] for _ in range(n)]
        for t, p in enumerate(self.parent):
            if p != -1:
                if not 0 <= p < n:
                    raise ValueError(f"parent {p} of node {t} is not a node")
                self.children[p].append(t)

    @property
    def width(self) -> int:
        """Max bag size minus one (``-1`` for the empty decomposition)."""
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags) - 1

    def vertices(self) -> set:
        return set().union(*self.bags)

    def neighbors(self, t: int) -> list[int]:
        """The children of ``t``, then its parent."""
        p = self.parent[t]
        return self.children[t] if p == -1 else self.children[t] + [p]

    def validate(self, graph) -> None:
        """Raise AssertionError unless this is a valid tree decomposition of
        ``graph`` (a tree; coverage of vertices and edges; connectivity).

        Runs in ``O(Σ|bag|)``: one pass from the root checks the tree, and
        :func:`_check_cover` does the rest from each vertex's topmost bags.
        """
        bags, parent = self.bags, self.parent
        if bags:
            roots = [t for t, p in enumerate(parent) if p == -1]
            reached = 0
            if len(roots) == 1:
                stack = roots
                while stack:
                    reached += 1
                    stack.extend(self.children[stack.pop()])
            # One root, and every node below it (a parent cycle is not).
            if reached != len(bags):
                raise AssertionError("decomposition tree is not a tree")
        tops: list = []
        for bag, p in zip(bags, parent):
            tops.extend((x, bag) for x in (bag if p == -1 else bag - bags[p]))
        _check_cover(graph, tops)

    # ------------------------------------------------------------------
    def make_nice(self, root: int | None = None) -> "NiceTreeDecomposition":
        """Convert to a nice tree decomposition with an *empty root bag*,
        rooted above node ``root`` (default: node 0).

        Node types: ``leaf`` (empty bag), ``introduce`` (adds one vertex),
        ``forget`` (removes one vertex), ``join`` (two children, equal bags).
        """
        return NiceTreeDecomposition(*self._nice_lists(root))

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
        return FriendlyTreeDecomposition(*self._nice_lists(root))

    def _nice_lists(self, root: int | None) -> tuple[list, list, list, list]:
        """The nice tree's postorder lists, emitted in one walk.

        A node with children ``c_0 .. c_{k-1}`` (its neighbours other than
        the one it was reached from) gets each child's subtree, adapted to
        its bag by forgets then introduces, under binarized joins (see
        :func:`_join_plan`); a node without children gets a leaf and
        introduces.  ``tasks`` is the walk's explicit stack: decompositions
        of large circuits are deep.
        """
        kind: list[str] = []
        vertex: list = []
        children: list[tuple[int, ...]] = []
        nice_bag: list[frozenset] = []

        def emit(k: str, v, ch: tuple[int, ...], b: frozenset) -> int:
            kind.append(k)
            vertex.append(v)
            children.append(ch)
            nice_bag.append(b)
            return len(kind) - 1

        def adapt(top: int, target: frozenset) -> int:
            b = nice_bag[top]
            for k, diff in ((FORGET, b - target), (INTRODUCE, target - b)):
                for v in sorted(diff, key=rank):
                    b = b - {v} if k == FORGET else b | {v}
                    top = emit(k, v, (top,), b)
            return top

        bags = self.bags
        if not bags:
            emit(LEAF, None, (), _EMPTY)
            return kind, vertex, children, nice_bag
        rank = {
            v: i for i, v in enumerate(sorted(self.vertices(), key=repr))
        }.__getitem__
        tops: list[int] = []  # the top node of each finished subtree
        tasks: list[tuple[int, int, int]] = [(_VISIT, 0 if root is None else root, -1)]
        while tasks:
            op, t, came_from = tasks.pop()
            if op == _VISIT:
                below = [c for c in self.neighbors(t) if c != came_from]
                if not below:
                    tops.append(adapt(emit(LEAF, None, (), _EMPTY), bags[t]))
                    continue
                for j in reversed(_join_plan(len(below))):
                    if j < 0:
                        tasks.append((_JOIN, t, -1))
                    else:
                        tasks.append((_ADAPT, t, -1))
                        tasks.append((_VISIT, below[j], t))
            elif op == _ADAPT:
                tops[-1] = adapt(tops[-1], bags[t])
            else:
                right = tops.pop()
                tops[-1] = emit(JOIN, None, (tops[-1], right), bags[t])
        # Forget everything remaining on top so the root bag is empty.
        adapt(tops[-1], _EMPTY)
        return kind, vertex, children, nice_bag

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TreeDecomposition(nodes={len(self.bags)}, width={self.width})"


@cache
def _join_plan(k: int) -> tuple[int, ...]:
    """The postorder of ``k`` subtrees under binarized joins: subtree
    indices, and ``-1`` for a join of the two operands before it.  Each
    round joins neighbours pairwise (an odd one out moves up as is)."""
    level = [(j,) for j in range(k)]
    while len(level) > 1:
        paired = [level[i] + level[i + 1] + (-1,) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def _check_cover(graph, tops: Iterable[tuple[Hashable, frozenset]]) -> dict:
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
    adjacency = list(graph_adjacency(graph))
    missing = {u for u, _ in adjacency} - top.keys()
    if missing:
        raise AssertionError(f"vertices not covered: {missing}")
    if split:
        raise AssertionError(f"bags containing {split[0]!r} are not connected")
    # The first uncovered pair in adjacency order is the edge a networkx
    # edge view would list first.
    for u, neighbours in adjacency:
        top_u = top[u]
        for v in neighbours:
            if u != v and v not in top_u and u not in top[v]:
                raise AssertionError(f"edge {(u, v)} not covered")
    return top


class NiceTreeDecomposition:
    """A nice tree decomposition with empty root bag, as postorder lists.

    Node ``i`` has ``kind[i]`` (``leaf``/``introduce``/``forget``/
    ``join``), ``vertex[i]``, ``children[i]`` and ``bag[i]``; the root is
    the last node.  The constructor checks the shape (one child per
    introduce or forget, two per join, leaves empty, one tree in
    postorder).  Guarantees checked by :meth:`validate`: the root bag is
    empty, and every vertex is forgotten exactly once — the exact
    preconditions of the Lemma 1 vtree extraction.
    """

    def __init__(
        self,
        kind: list[str],
        vertex: list,
        children: list[tuple[int, ...]],
        bag: list[frozenset],
    ):
        if not len(kind) == len(vertex) == len(children) == len(bag):
            raise ValueError("nice tree lists differ in length")
        # Replaying the postorder on a stack of finished subtrees: each
        # node's children must be the subtrees finished just before it.
        done: list[int] = []
        for i, (k, ch, b) in enumerate(zip(kind, children, bag)):
            if k == LEAF:
                if ch or b:
                    raise ValueError("leaf nodes have empty bags and no children")
            elif k == INTRODUCE or k == FORGET:
                if len(ch) != 1:
                    raise ValueError(f"{k} nodes have exactly one child")
            elif k == JOIN:
                if len(ch) != 2:
                    raise ValueError("join nodes have exactly two children")
            else:
                raise ValueError(f"bad nice node kind {k!r}")
            if ch:
                if done[-len(ch):] != list(ch):
                    raise ValueError(f"children of node {i} do not precede it in postorder")
                del done[-len(ch):]
            done.append(i)
        if len(done) != 1:
            raise ValueError("nice tree lists do not form one tree")
        self.kind = kind
        self.vertex = vertex
        self.children = children
        self.bag = bag

    @property
    def root(self) -> int:
        return len(self.kind) - 1

    @property
    def width(self) -> int:
        return max(map(len, self.bag)) - 1

    def __len__(self) -> int:
        return len(self.kind)

    def forget_nodes(self) -> list[int]:
        return [i for i, k in enumerate(self.kind) if k == FORGET]

    def validate(self, graph) -> None:
        """Raise AssertionError unless this is a valid tree decomposition of
        ``graph`` with an empty root bag that forgets every vertex exactly
        once.

        One pass over the lists, ``O(#nodes · w)`` for bags of at most
        ``w`` vertices: it collects the forgotten vertices and, for
        :func:`_check_cover`, each vertex's top bags.  In a nice tree a bag
        only gains a vertex its parent lacks below a forget node, so there
        are about as many top bags as forget nodes.
        """
        bag = self.bag
        if bag[-1]:
            raise AssertionError("root bag is not empty")
        forgotten = [v for k, v in zip(self.kind, self.vertex) if k == FORGET]
        tops: list = []
        for above, ch in zip(bag, self.children):
            for c in ch:
                below = bag[c]
                if not below <= above:
                    tops.extend((x, below) for x in below - above)
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
    of every vertex: ``responsible[v]`` is the id of the unique forget node
    of ``v``.  By connectivity, every edge incident to ``v`` is covered
    strictly below that node — which is exactly what lets the d-DNNF
    builder commit the literal of a variable gate (or discharge a gate's
    justification obligations) at its responsible bag and never look at
    the vertex again.
    """

    def __init__(
        self,
        kind: list[str],
        vertex: list,
        children: list[tuple[int, ...]],
        bag: list[frozenset],
    ):
        super().__init__(kind, vertex, children, bag)
        responsible: dict[Hashable, int] = {}
        for i, (k, v) in enumerate(zip(kind, vertex)):
            if k == FORGET:
                if v in responsible:
                    raise ValueError(
                        f"vertex {v!r} forgotten more than once; "
                        "not a friendly decomposition"
                    )
                responsible[v] = i
        vertices = set().union(*bag)
        if responsible.keys() != vertices:
            never = vertices - responsible.keys()
            raise ValueError(f"vertices never forgotten: {sorted(never, key=repr)[:5]}")
        self.responsible = responsible
        self._kind_counts = {k: c for k in _KINDS if (c := kind.count(k))}

    def kind_counts(self) -> dict[str, int]:
        """Number of nodes per bag shape (``leaf``/``introduce``/``forget``/
        ``join``) — public counters for stats and tests."""
        return dict(self._kind_counts)

    def responsible_bag(self, vertex: Hashable) -> int:
        """The id of the forget node of ``vertex`` (raises KeyError if
        unknown)."""
        return self.responsible[vertex]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FriendlyTreeDecomposition(width={self.width}, "
            f"vertices={len(self.responsible)})"
        )
