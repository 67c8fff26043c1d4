"""The d-DNNF DAG: a hash-consed node store plus exact structural oracles.

A d-DNNF is a negation normal form whose AND gates are *decomposable*
(children mention disjoint variables) and whose OR gates are *deterministic*
(children are pairwise logically inconsistent); the builder in
:mod:`repro.dnnf.builder` additionally keeps every OR *smooth* (children
mention the same variables).  Those three invariants are what make the
single ascending-id sweep of :mod:`repro.dnnf.wmc` a correct linear-time
weighted model counter — so they are exposed here as first-class test
oracles (:func:`check_decomposable`, :func:`check_deterministic`,
:func:`check_smooth`), exact and raising ``AssertionError`` with the
offending node, exactly like :meth:`repro.sdd.manager.SddManager.
check_unique_table` is for SDDs.

Design notes, matching the repo's other node stores:

- **Hash-consing.**  ``literal``/``conjoin``/``disjoin`` intern through a
  unique table, so structurally identical subgraphs are one node and
  ``unique_hits``/``unique_misses`` are meaningful counters.
- **Ids are topological.**  Children are interned before parents, so an
  ascending-id iteration visits children first — every sweep here and in
  :mod:`repro.dnnf.wmc` is iterative (no recursion; friendly decompositions
  of large circuits get very deep).
- **Constants.**  Node ``0`` is FALSE and node ``1`` is TRUE, mirroring the
  :class:`~repro.sdd.manager.SddManager` convention.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .wmc import model_count, probability, weighted_model_count

__all__ = [
    "FALSE",
    "TRUE",
    "DnnfNodeTable",
    "DnnfDag",
    "check_decomposable",
    "check_deterministic",
    "check_smooth",
    "check_ddnnf",
]

FALSE = 0
TRUE = 1

_CONST = "const"
_LIT = "lit"
_AND = "and"
_OR = "or"


class DnnfNodeTable:
    """Read-only queries over a d-DNNF node table, shared by the live
    :class:`DnnfDag` and the frozen
    :class:`~repro.artifact.store.FrozenDdnnf`.

    A subclass provides the table these methods and
    :class:`~repro.dnnf.wmc.DnnfWmcEvaluator` read: ``node_kind[u]``
    (``"const"``/``"lit"``/``"and"``/``"or"``), ``node_var[u]`` /
    ``node_sign[u]`` for a literal, and ``node_children[u]``, a sized
    iterable of child ids (empty for constants and literals).  Children
    have smaller ids than their parents, so ascending id order is
    topological.
    """

    def reachable(self, root: int) -> list[int]:
        """Ids reachable from ``root`` in ascending (= topological) order."""
        seen = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for c in self.node_children[u]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return sorted(seen)

    def size(self, root: int) -> int:
        """Number of non-constant nodes reachable from ``root``."""
        return sum(1 for u in self.reachable(root) if u > TRUE)

    def edge_count(self, root: int) -> int:
        """Number of wires reachable from ``root`` (the NNF size measure)."""
        return sum(len(self.node_children[u]) for u in self.reachable(root))

    def width(self, root: int) -> int:
        """Max fanin over reachable AND/OR nodes (0 for literal/const roots)."""
        return max(
            (len(self.node_children[u]) for u in self.reachable(root)), default=0
        )

    def scopes(self, root: int) -> dict[int, frozenset[str]]:
        """Variables mentioned under each reachable node (children first)."""
        out: dict[int, frozenset[str]] = {}
        for u in self.reachable(root):
            kind = self.node_kind[u]
            if kind == _CONST:
                out[u] = frozenset()
            elif kind == _LIT:
                out[u] = frozenset((self.node_var[u],))
            else:
                acc: frozenset[str] = frozenset()
                for c in self.node_children[u]:
                    acc |= out[c]
                out[u] = acc
        return out

    def evaluate(self, root: int, assignment: Mapping[str, int]) -> bool:
        """Evaluate under a total assignment of the mentioned variables."""
        vals: dict[int, bool] = {}
        for u in self.reachable(root):
            kind = self.node_kind[u]
            if kind == _CONST:
                vals[u] = u == TRUE
            elif kind == _LIT:
                vals[u] = bool(assignment[self.node_var[u]]) == self.node_sign[u]
            elif kind == _AND:
                vals[u] = all(vals[c] for c in self.node_children[u])
            else:
                vals[u] = any(vals[c] for c in self.node_children[u])
        return vals[root]

    def count_models(self, root: int, scope: Iterable[str] | None = None) -> int:
        """Exact model count over ``scope`` (default: the root's own)."""
        return model_count(self, root, scope)

    def weighted_count(self, root: int, weights: Mapping[str, tuple]):
        """WMC over the root's own scope; exact with Fractions."""
        return weighted_model_count(self, root, weights)

    def freeze(self, roots, *, names=None, meta=None):
        """Freeze ``roots`` into an immutable array-backed
        :class:`~repro.artifact.store.FrozenDdnnf` (save/mmap/share); a
        frozen store re-freezes to the same tables."""
        from ..artifact.store import FrozenDdnnf

        return FrozenDdnnf.from_dag(self, list(roots), names=names, meta=meta)

    def probability(self, root: int, prob: Mapping[str, float], *, exact: bool = False):
        return probability(self, root, prob, exact=exact)


class DnnfDag(DnnfNodeTable):
    """A growing d-DNNF DAG; nodes are integer ids into parallel arrays.

    ``node_kind[u]`` is one of ``"const"``/``"lit"``/``"and"``/``"or"``;
    literals carry ``node_var``/``node_sign``, internal nodes carry
    ``node_children`` (a tuple of ids, sorted for AND so interning is
    order-insensitive; ORs keep builder order — their children are
    semantically disjoint, not interchangeable duplicates).
    """

    def __init__(self) -> None:
        self.node_kind: list[str] = [_CONST, _CONST]
        self.node_children: list[tuple[int, ...]] = [(), ()]
        self.node_var: list[str | None] = [None, None]
        self.node_sign: list[bool | None] = [None, None]
        self._unique: dict[tuple, int] = {}
        self.unique_hits = 0
        self.unique_misses = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _intern(self, key: tuple, kind: str, children: tuple[int, ...],
                var: str | None = None, sign: bool | None = None) -> int:
        got = self._unique.get(key)
        if got is not None:
            self.unique_hits += 1
            return got
        self.unique_misses += 1
        uid = len(self.node_kind)
        self.node_kind.append(kind)
        self.node_children.append(children)
        self.node_var.append(var)
        self.node_sign.append(sign)
        self._unique[key] = uid
        return uid

    def literal(self, var: str, sign: bool) -> int:
        """The literal ``var`` (``sign=True``) or ``¬var``."""
        return self._intern((_LIT, var, bool(sign)), _LIT, (), var, bool(sign))

    def conjoin(self, children: Iterable[int]) -> int:
        """Decomposable AND of already-built nodes (TRUE units dropped,
        FALSE absorbing, single child returned as-is)."""
        kept: list[int] = []
        for c in children:
            if c == FALSE:
                return FALSE
            if c != TRUE:
                kept.append(c)
        if not kept:
            return TRUE
        if len(kept) == 1:
            return kept[0]
        key_children = tuple(sorted(kept))
        return self._intern((_AND, key_children), _AND, key_children)

    def disjoin(self, children: Sequence[int]) -> int:
        """Deterministic OR of already-built nodes (FALSE units dropped,
        TRUE absorbing, single child returned as-is).

        Callers are responsible for determinism — children must be pairwise
        inconsistent; this store never merges or deduplicates OR children
        because dropping a "duplicate" would silently change the model
        count of a deterministic form.
        """
        kept: list[int] = []
        for c in children:
            if c == TRUE:
                return TRUE
            if c != FALSE:
                kept.append(c)
        if not kept:
            return FALSE
        if len(kept) == 1:
            return kept[0]
        key_children = tuple(kept)
        return self._intern((_OR, key_children), _OR, key_children)

    def stats(self) -> dict[str, int]:
        """Public counters (the supported alternative to private pokes)."""
        return {
            "nodes": len(self.node_kind),
            "unique_hits": self.unique_hits,
            "unique_misses": self.unique_misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DnnfDag(nodes={len(self.node_kind)})"


# ----------------------------------------------------------------------
# structural-invariant oracles
# ----------------------------------------------------------------------
def check_decomposable(dag: DnnfDag, root: int) -> None:
    """Raise ``AssertionError`` unless every reachable AND is decomposable
    (children mention pairwise disjoint variable sets).  Exact, O(size·vars)."""
    scopes = dag.scopes(root)
    for u in dag.reachable(root):
        if dag.node_kind[u] != _AND:
            continue
        seen: set[str] = set()
        for c in dag.node_children[u]:
            overlap = seen & scopes[c]
            if overlap:
                raise AssertionError(
                    f"AND node {u} is not decomposable: child {c} re-mentions "
                    f"{sorted(overlap)[:5]}"
                )
            seen |= scopes[c]


def check_smooth(dag: DnnfDag, root: int) -> None:
    """Raise ``AssertionError`` unless every reachable OR is smooth
    (all children mention exactly the same variable set)."""
    scopes = dag.scopes(root)
    for u in dag.reachable(root):
        if dag.node_kind[u] != _OR:
            continue
        children = dag.node_children[u]
        first = scopes[children[0]]
        for c in children[1:]:
            if scopes[c] != first:
                raise AssertionError(
                    f"OR node {u} is not smooth: child scopes "
                    f"{sorted(first)[:5]} vs {sorted(scopes[c])[:5]}"
                )


def check_deterministic(dag: DnnfDag, root: int) -> None:
    """Raise ``AssertionError`` unless every reachable OR is deterministic
    (children pairwise logically inconsistent).

    Exact: computes each node's model set over its own scope bottom-up and
    verifies, per OR, that the children's model sets — lifted to the union
    scope — are pairwise disjoint.  Exponential in the scope size, so meant
    for the test-oracle sizes (≤ ~16 variables), like the brute-force
    ground truths elsewhere in the test suite.
    """
    scopes = dag.scopes(root)
    # models[u]: frozenset of frozensets-of-true-variables over scopes[u].
    models: dict[int, frozenset[frozenset[str]]] = {}
    for u in dag.reachable(root):
        kind = dag.node_kind[u]
        if kind == _CONST:
            models[u] = frozenset() if u == FALSE else frozenset((frozenset(),))
        elif kind == _LIT:
            true_part = frozenset((dag.node_var[u],)) if dag.node_sign[u] else frozenset()
            models[u] = frozenset((true_part,))
        elif kind == _AND:
            acc = frozenset((frozenset(),))
            for c in dag.node_children[u]:
                acc = frozenset(m | mc for m in acc for mc in models[c])
            models[u] = acc
        else:
            union_scope = scopes[u]
            lifted: list[frozenset[frozenset[str]]] = []
            for c in dag.node_children[u]:
                lifted.append(_lift_models(models[c], scopes[c], union_scope))
            total = sum(len(ms) for ms in lifted)
            combined = frozenset().union(*lifted) if lifted else frozenset()
            if len(combined) != total:
                raise AssertionError(
                    f"OR node {u} is not deterministic: children share "
                    f"{total - len(combined)} model(s)"
                )
            models[u] = combined


def _lift_models(
    models: frozenset[frozenset[str]],
    scope: frozenset[str],
    target: frozenset[str],
) -> frozenset[frozenset[str]]:
    """Expand models over ``scope`` to models over ``target ⊇ scope``."""
    missing = sorted(target - scope)
    if not missing:
        return models
    out: set[frozenset[str]] = set()
    for m in models:
        for mask in range(1 << len(missing)):
            extra = frozenset(v for i, v in enumerate(missing) if (mask >> i) & 1)
            out.add(m | extra)
    return frozenset(out)


def check_ddnnf(dag: DnnfDag, root: int) -> None:
    """All three oracles in one call (decomposable + smooth + deterministic)."""
    check_decomposable(dag, root)
    check_smooth(dag, root)
    check_deterministic(dag, root)
