"""The Lemma-1 vtree extraction: circuit → tree decomposition → vtree.

:class:`repro.compiler.Compiler` runs the whole Result-1 pipeline; its
``lemma1`` strategy (:class:`~repro.compiler.strategies.Lemma1Strategy`)
calls :func:`vtree_from_circuit`, and a backend then compiles over the
vtree (``canonical`` for the paper's ``S_{F,T}`` / deterministic
structured NNF, ``apply`` for bottom-up SDD compilation).

This is the constructive content of Result 1: a circuit of treewidth ``k``
and ``n`` variables yields a vtree ``T`` with ``fw(F,T) ≤ 2^{(w+2)·2^{w+1}}``
(for ``w`` the width of the decomposition used), hence SDD size ``O(f(k)·n)``.

The vtree extraction follows the proof of Lemma 1 exactly:

1. take a *nice* tree decomposition ``S`` of the circuit's gates whose root
   bag is empty (so every input gate is forgotten exactly once);
2. label the leaves of ``S`` with fresh dummy variables ``W``;
3. for every variable ``x``, append a fresh leaf labelled ``x`` to the node
   of ``S`` forgetting the input gate of ``x``;
4. the resulting tree is a vtree for ``X ∪ W ⊇ X`` (unary nodes contracted;
   dummies optionally pruned — pruning never increases widths since subtree
   variable sets only shrink);
5. orient it: at every internal node the child with fewer variables goes
   left (ties keep the order of step 3, where a variable leaf hangs right).

Step 5 leaves Lemma 1's bound intact.  A swap of two children keeps every
subtree's variable set, and factor width depends only on those sets (the
factors of ``F`` over ``Y_v`` and ``X \\ Y_v``), so ``fw(F,T)`` is the same
for every orientation of one tree.  SDD size is not: an SDD normalized at
``v`` has one element per prime, and the primes range over the left
subtree's variables.  Unoriented, every variable leaf hung as a right
child, so the big subtree sat on the left; on grid(3,4) that cost SDD
width 94 against 16 oriented.
"""

from __future__ import annotations

import itertools

from .vtree import Vtree
from ..circuits.circuit import Circuit, VAR
from ..graphs.exact_tw import tree_decomposition
from ..graphs.treedecomp import TreeDecomposition

__all__ = ["vtree_from_circuit"]


def vtree_from_circuit(
    circuit: Circuit,
    decomposition: TreeDecomposition | None = None,
    *,
    exact: bool | None = None,
    prune_dummies: bool = True,
) -> tuple[Vtree, int]:
    """Extract the Lemma-1 vtree.  Returns ``(vtree, decomposition width)``.

    ``exact=None`` picks the exact treewidth DP when the circuit has at most
    12 gates and the heuristics otherwise.
    """
    variables = circuit.variables
    if not variables:
        raise ValueError("circuit has no variables; constants need no vtree")
    graph = circuit.adjacency()
    if decomposition is None:
        decomposition = tree_decomposition(graph, exact)
    decomposition.validate(graph)
    nice = decomposition.make_nice()
    nice.validate(graph)

    var_of_gate = {
        gid: gate.payload
        for gid, gate in enumerate(circuit.gates)
        if gate.kind == VAR
    }
    dummy_counter = itertools.count()

    # The nice tree's lists are in postorder: built[i] is the vtree (or
    # None) for nice node i, and children come before parents.
    built: list[Vtree | None] = []
    for kind, g, children in zip(nice.kind, nice.vertex, nice.children):
        out: Vtree | None
        if kind == "leaf":
            out = None if prune_dummies else Vtree.leaf(f"__dummy{next(dummy_counter)}__")
        elif kind == "join":
            l, r = built[children[0]], built[children[1]]
            out = l if r is None else (r if l is None else Vtree.internal(l, r))
        else:
            out = built[children[0]]
            if kind == "forget" and g in var_of_gate:
                x_leaf = Vtree.leaf(str(var_of_gate[g]))
                out = x_leaf if out is None else Vtree.internal(out, x_leaf)
            # introduce nodes and forgets of non-variable gates are unary:
            # contract.
        built.append(out)

    vtree = built[-1]
    assert vtree is not None, "circuit with variables must yield a vtree"
    if prune_dummies:
        vtree = vtree.prune_to(set(map(str, variables)))
    vtree = _orient(vtree)
    assert vtree.variables >= set(variables)
    return vtree, decomposition.width


def _orient(vtree: Vtree) -> Vtree:
    """Put the child with strictly fewer leaves on the left, at every node.

    One bottom-up pass.  A subtree of ``k`` leaves has ``2k - 1`` nodes, so
    ``size`` compares leaf counts without materializing variable sets.  The
    sets themselves are unchanged, so nodes are rebuilt with
    :meth:`Vtree.internal_trusted` (no disjointness re-check).
    """
    built: dict[int, Vtree] = {}
    for node in vtree.nodes():
        if node.is_leaf:
            built[id(node)] = node
            continue
        l, r = built[id(node.left)], built[id(node.right)]
        if r.size < l.size:
            l, r = r, l
        built[id(node)] = (
            node if l is node.left and r is node.right
            else Vtree.internal_trusted(l, r)
        )
    return built[id(vtree)]
