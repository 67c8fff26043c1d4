"""Width measures and the paper's width inequalities.

- :func:`factor_width` — Definition 2: ``fw(F,T) = max_v |factors(F, Z_v)|``
  and ``fw(F) = min_T fw(F,T)``.
- :func:`fiw` / :func:`sdw` — Definitions 4 / 5 via the canonical compilers.
- :func:`lemma1_bound` — Lemma 1: ``fw(F) ≤ 2^{(k+2)·2^{k+1}}`` for
  ``k = ctw(F)``.
- :func:`eq22_bound` — ``fiw(F) ≤ fw(F)^2`` (eq. (22), first inequality).
- :func:`eq29_bound` — ``sdw(F) ≤ 2^{2·fw(F)+1}`` (eq. (29), first inequality).
- :func:`prop2_tree_decomposition` — Proposition 2 / eq. (23) and (30):
  ``ctw(F) ≤ 3·fiw(F)`` witnessed by an explicit tree decomposition of the
  graph underlying ``C_{F,T}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import networkx as nx

from .boolfunc import BooleanFunction
from .factors import factors
from .nnf_compile import CompiledNNF, compile_canonical_nnf
from .sdd_compile import CompiledSDD, compile_canonical_sdd
from .vtree import Vtree
from ..circuits.nnf import NNF
from ..graphs.treedecomp import TreeDecomposition

__all__ = [
    "factor_width",
    "min_factor_width",
    "fiw",
    "min_fiw",
    "sdw",
    "min_sdw",
    "lemma1_bound",
    "eq22_bound",
    "eq29_bound",
    "prop2_tree_decomposition",
    "best_vtree",
]


def factor_width(f: BooleanFunction, vtree: Vtree) -> int:
    """``fw(F, T) = max_{v ∈ T} |factors(F, Z_v)|`` (Definition 2)."""
    return max(len(factors(f, v.variables)) for v in vtree.nodes())


def fiw(f: BooleanFunction, vtree: Vtree) -> int:
    """``fiw(F, T)`` (Definition 4) via the canonical construction."""
    return compile_canonical_nnf(f, vtree).fiw


def sdw(f: BooleanFunction, vtree: Vtree) -> int:
    """``sdw(F, T)`` (Definition 5) via the canonical construction."""
    return compile_canonical_sdd(f, vtree).sdw


def _vtree_candidates(f: BooleanFunction, exhaustive: bool | None, rng=None) -> Iterable[Vtree]:
    vs = sorted(f.variables)
    if not vs:
        raise ValueError("width minimization needs at least one variable")
    if exhaustive is None:
        exhaustive = len(vs) <= 4
    if exhaustive:
        return Vtree.enumerate_all(vs)
    return Vtree.candidate_vtrees(vs, rng=rng)


def min_factor_width(
    f: BooleanFunction, exhaustive: bool | None = None, rng=None
) -> tuple[int, Vtree]:
    """``fw(F)``: minimize over vtrees (exhaustively for ≤ 4 variables,
    candidate-set heuristic otherwise).  Returns ``(width, witness vtree)``."""
    best: tuple[int, Vtree] | None = None
    for t in _vtree_candidates(f, exhaustive, rng):
        w = factor_width(f, t)
        if best is None or w < best[0]:
            best = (w, t)
    assert best is not None
    return best


def min_fiw(f: BooleanFunction, exhaustive: bool | None = None, rng=None) -> tuple[int, Vtree]:
    """``fiw(F)`` (Definition 4) with a witness vtree."""
    best: tuple[int, Vtree] | None = None
    for t in _vtree_candidates(f, exhaustive, rng):
        w = fiw(f, t)
        if best is None or w < best[0]:
            best = (w, t)
    assert best is not None
    return best


def min_sdw(f: BooleanFunction, exhaustive: bool | None = None, rng=None) -> tuple[int, Vtree]:
    """``sdw(F)`` (Definition 5) with a witness vtree."""
    best: tuple[int, Vtree] | None = None
    for t in _vtree_candidates(f, exhaustive, rng):
        w = sdw(f, t)
        if best is None or w < best[0]:
            best = (w, t)
    assert best is not None
    return best


def best_vtree(f: BooleanFunction, objective: str = "sdw", exhaustive: bool | None = None, rng=None) -> Vtree:
    """Convenience: the witness vtree for ``fw`` / ``fiw`` / ``sdw``."""
    fns = {"fw": min_factor_width, "fiw": min_fiw, "sdw": min_sdw}
    if objective not in fns:
        raise ValueError(f"objective must be one of {sorted(fns)}")
    return fns[objective](f, exhaustive=exhaustive, rng=rng)[1]


# ----------------------------------------------------------------------
# the paper's bounds
# ----------------------------------------------------------------------
def lemma1_bound(ctw: int) -> int:
    """Lemma 1: ``fw(F) ≤ 2^{(k+2)·2^{k+1}}`` where ``k = ctw(F)``."""
    if ctw < 0:
        raise ValueError("treewidth must be >= 0")
    return 2 ** ((ctw + 2) * 2 ** (ctw + 1))


def eq22_bound(fw_value: int) -> int:
    """Eq. (22) first inequality: ``fiw(F) ≤ fw(F)^2``."""
    return fw_value * fw_value


def eq29_bound(fw_value: int) -> int:
    """Eq. (29) first inequality: ``sdw(F) ≤ 2^{2·fw(F)+1}``."""
    return 2 ** (2 * fw_value + 1)


# ----------------------------------------------------------------------
# Proposition 2: ctw(F) <= 3·fiw(F) via an explicit tree decomposition
# ----------------------------------------------------------------------
@dataclass
class Prop2Result:
    """The Proposition-2 decomposition together with the graph it is a
    decomposition *of* (the compiled circuit with constants replicated)."""

    decomposition: TreeDecomposition
    graph: nx.Graph
    root: NNF

    @property
    def width(self) -> int:
        return self.decomposition.width

    def validate(self) -> None:
        self.decomposition.validate(self.graph)


def prop2_tree_decomposition(compiled: CompiledNNF | CompiledSDD) -> Prop2Result:
    """The Proposition-2 tree decomposition of the graph underlying the
    compiled circuit: one bag per vtree node collecting the closed
    neighborhoods of the AND gates structured there.

    The returned decomposition is validated by tests to have width
    ``≤ 3·width`` (+O(1) slack for the degenerate fringe described below),
    witnessing eq. (23)/(30).

    Degenerate cases (literal-only circuits, constants) get a single bag.

    Shared constant gates (the global ``⊤``/``⊥`` singletons) would sit in
    bags of far-apart vtree nodes and break the connectivity condition, so
    they are replicated one-per-use first — semantically free, and exactly
    how the paper's per-gate neighborhood accounting treats them; the
    result therefore carries its own :attr:`graph`.
    """
    root = _replicate_constants(compiled.root)
    vtree = compiled.vtree
    graph = _nnf_graph(root)
    struct_map: dict[int, list[NNF]] = {}
    for gate in root.and_gates():
        l, r = gate.children
        v = vtree.find_structuring_node(l.variables, r.variables)
        if v is None:
            raise ValueError("compiled circuit not structured by its vtree")
        struct_map.setdefault(id(v), []).append(gate)

    parents = _parents(root)
    bags: list[frozenset] = []
    index: dict[int, int] = {}
    for v in vtree.nodes():
        bag: set[int] = set()
        for gate in struct_map.get(id(v), []):
            bag.add(id(gate))
            for c in gate.children:
                bag.add(id(c))
            for parent in parents.get(id(gate), []):
                bag.add(id(parent))
        index[id(v)] = len(bags)
        bags.append(frozenset(bag))
    # Postorder: every vtree node's bag comes after its children's, and
    # the root's is last.
    parent_bag = [-1] * len(bags)
    for v in vtree.nodes():
        if not v.is_leaf:
            assert v.left is not None and v.right is not None
            parent_bag[index[id(v.left)]] = parent_bag[index[id(v.right)]] = index[id(v)]
    root_bag_id = index[id(vtree)]
    # Sweep up any nodes not adjacent to a structured AND gate (constants,
    # literal roots, singleton chains): put them in the root bag.
    covered: set[int] = set().union(*bags)
    missing = {id(n) for n in root.nodes()} - covered
    if missing:
        bags[root_bag_id] = bags[root_bag_id] | frozenset(missing)
    # Connectivity closure (T3): a gate with an ∅-variable child (a
    # replicated constant) is structured at the *first* postorder vtree
    # node one of whose sides covers the non-trivial child — possibly far
    # from the bags where the same gate appears as a parent or child of
    # other gates, leaving its occurrences in non-adjacent bags.  Add each
    # vertex to every bag on the tree paths between its occurrences (the
    # Steiner closure of the occurrence set); only the degenerate gates
    # travel, so bags grow by O(1) per such gate.
    depth_bag = [0] * len(bags)
    for b in reversed(range(len(bags))):
        if b != root_bag_id:
            depth_bag[b] = depth_bag[parent_bag[b]] + 1
    occurrences: dict[int, set[int]] = {}
    for b, bag in enumerate(bags):
        for x in bag:
            occurrences.setdefault(x, set()).add(b)
    for x, occ in occurrences.items():
        frontier = set(occ)
        members = set(occ)
        while len(frontier) > 1:
            u = max(frontier, key=depth_bag.__getitem__)
            frontier.remove(u)
            p = parent_bag[u]
            if p not in members:
                bags[p] = bags[p] | frozenset({x})
                members.add(p)
            frontier.add(p)
    return Prop2Result(decomposition=TreeDecomposition(bags, parent_bag), graph=graph, root=root)


def _replicate_constants(root: NNF) -> NNF:
    """Copy of the DAG where every constant occurrence is a fresh node."""
    if root.kind in ("true", "false"):
        return root
    memo: dict[int, NNF] = {}
    for node in root.nodes():
        if node.kind in ("true", "false", "lit"):
            memo[id(node)] = node
            continue
        children = tuple(
            NNF(c.kind) if c.kind in ("true", "false") else memo[id(c)]
            for c in node.children
        )
        memo[id(node)] = NNF(node.kind, children=children)
    return memo[id(root)]


def _nnf_graph(root: NNF) -> nx.Graph:
    g = nx.Graph()
    for node in root.nodes():
        g.add_node(id(node))
        for c in node.children:
            g.add_edge(id(node), id(c))
    return g


def _parents(root: NNF) -> dict[int, list[NNF]]:
    out: dict[int, list[NNF]] = {}
    for node in root.nodes():
        for c in node.children:
            out.setdefault(id(c), []).append(node)
    return out
