"""Vtree search: local transformations and dynamic minimization.

The paper remarks (Section 1) that SDD compilers beat OBDDs in practice by
"leveraging the additional flexibility offered by variable trees compared
to variable orders" (Choi & Darwiche's dynamic minimization).  This module
implements the classical local vtree operations —

- left rotation, right rotation (reassociating splits),
- child swap (vtrees are ordered),
- adjacent-leaf swap along the left-to-right order,

— and :func:`minimize_vtree`, a hill climb over them that recompiles
every neighbor under an objective (canonical SDD size or ``sdw`` of a
small ``F``, apply-compiled SDD size of a circuit).  It is the baseline
``benchmarks/bench_minimize.py`` times the in-manager sift against; the
ablation bench E13 measures how much the extra flexibility buys over
pure order search.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .boolfunc import BooleanFunction
from .sdd_compile import compile_canonical_sdd
from .vtree import Vtree
from ..circuits.circuit import Circuit
from ..sdd.manager import sdd_from_circuit

__all__ = [
    "rotate_left",
    "rotate_right",
    "neighbors",
    "minimize_vtree",
    "apply_size_objective",
    "sdd_size_objective",
    "sdw_objective",
]


def rotate_right(v: Vtree) -> Vtree | None:
    """``(a b) c  ->  a (b c)`` at the root of ``v`` (None if not applicable)."""
    if v.is_leaf or v.left is None or v.left.is_leaf:
        return None
    a, b = v.left.left, v.left.right
    assert a is not None and b is not None and v.right is not None
    return Vtree.internal(a, Vtree.internal(b, v.right))


def rotate_left(v: Vtree) -> Vtree | None:
    """``a (b c)  ->  (a b) c`` at the root of ``v``."""
    if v.is_leaf or v.right is None or v.right.is_leaf:
        return None
    b, c = v.right.left, v.right.right
    assert b is not None and c is not None and v.left is not None
    return Vtree.internal(Vtree.internal(v.left, b), c)


def _replace(root: Vtree, target: Vtree, replacement: Vtree) -> Vtree:
    """Rebuild ``root`` with ``target`` (an identity-matched node) swapped
    for ``replacement``.  Iterative postorder: neighbor enumeration runs
    on the deep right-linear vtrees of query lineages, where a recursive
    rebuild would overflow the stack long before the search matters."""
    result: dict[int, Vtree] = {}
    for node in root.nodes():
        if node is target:
            result[id(node)] = replacement
        elif node.is_leaf:
            result[id(node)] = node
        else:
            assert node.left is not None and node.right is not None
            new_left = result[id(node.left)]
            new_right = result[id(node.right)]
            if new_left is node.left and new_right is node.right:
                result[id(node)] = node
            else:
                result[id(node)] = Vtree.internal(new_left, new_right)
    return result[id(root)]


def neighbors(root: Vtree) -> Iterator[Vtree]:
    """All vtrees reachable by one local operation anywhere in ``root``."""
    for node in root.nodes():
        if node.is_leaf:
            continue
        for candidate in (rotate_left(node), rotate_right(node), node.swap()):
            if candidate is not None and candidate is not node:
                yield _replace(root, node, candidate)


def sdd_size_objective(f: BooleanFunction) -> Callable[[Vtree], int]:
    def obj(t: Vtree) -> int:
        return compile_canonical_sdd(f, t).size

    return obj


def sdw_objective(f: BooleanFunction) -> Callable[[Vtree], int]:
    def obj(t: Vtree) -> int:
        return compile_canonical_sdd(f, t).sdw

    return obj


def apply_size_objective(circuit: Circuit) -> Callable[[Vtree], int]:
    """SDD size of ``circuit`` compiled by apply in a fresh manager."""

    def obj(t: Vtree) -> int:
        mgr, root = sdd_from_circuit(circuit, t)
        return mgr.size(root)

    return obj


def minimize_vtree(
    start: Vtree,
    objective: Callable[[Vtree], int],
    *,
    max_rounds: int = 12,
) -> tuple[int, Vtree]:
    """Hill-climb over local vtree operations (dynamic-minimization style).

    Returns ``(best objective value, best vtree)``.  Deterministic: at each
    round the best-improving neighbor is taken (the first one on ties);
    stops at a local optimum or after ``max_rounds`` rounds.
    """
    best_val, t = objective(start), start
    for _ in range(max_rounds):
        best_neighbor: tuple[int, Vtree] | None = None
        for cand in neighbors(t):
            val = objective(cand)
            if best_neighbor is None or val < best_neighbor[0]:
                best_neighbor = (val, cand)
        if best_neighbor is None or best_neighbor[0] >= best_val:
            break
        best_val, t = best_neighbor
    return best_val, t
