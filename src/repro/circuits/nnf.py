"""Negation normal form (NNF) DAGs and the knowledge-compilation map checks.

The paper's compilation targets are subclasses of NNF: decomposable NNFs
(DNNF), deterministic DNNFs (d-DNNF), *structured* deterministic NNFs, SDDs
and OBDDs.  This module provides the NNF DAG representation and the exact
*semantic* checks for each property:

- :meth:`NNF.is_decomposable` — AND gates split variables (Darwiche).
- :meth:`NNF.is_deterministic` — OR gates have pairwise-disjoint models.
- :meth:`NNF.is_structured_by` — AND gates respect a vtree (Pipatsrisawat &
  Darwiche; Section 2.1 of the paper).
- model counting / weighted model counting in one pass on d-DNNFs
  (probability computation on lineages: the whole point of query
  compilation).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from ..core.vtree import Vtree

if TYPE_CHECKING:
    from ..core.boolfunc import BooleanFunction

__all__ = ["NNF", "true_node", "false_node", "lit", "conj", "disj"]


class NNF:
    """A node of an NNF DAG.

    Nodes are immutable; DAG sharing is by object identity.  ``kind`` is one
    of ``"true" | "false" | "lit" | "and" | "or"``.
    """

    __slots__ = ("kind", "var", "sign", "children", "_vars", "_key")

    def __init__(
        self,
        kind: str,
        var: str | None = None,
        sign: bool | None = None,
        children: tuple["NNF", ...] = (),
    ):
        if kind not in ("true", "false", "lit", "and", "or"):
            raise ValueError(f"bad NNF kind {kind!r}")
        if kind == "lit" and (var is None or sign is None):
            raise ValueError("literal needs var and sign")
        self.kind = kind
        self.var = var
        self.sign = sign
        self.children = children
        if kind == "lit":
            self._vars: frozenset[str] | None = frozenset({var})
        elif children:
            # Variable sets of internal gates are *lazy* (see ``variables``):
            # eagerly unioning per node costs Θ(n²) time and memory on the
            # 10k-variable chain NNFs that ``SddManager.to_nnf`` exports.
            self._vars = None
        else:
            self._vars = frozenset()
        self._key: object = None

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def variables(self) -> frozenset[str]:
        """``var(C_g)`` — variables below this node.

        Materialized on first access (one O(subtree) walk reusing any
        cached descendant sets, DAG-aware) and cached on this node only —
        the :class:`~repro.core.vtree.Vtree` laziness idiom.
        """
        got = self._vars
        if got is None:
            vs: set[str] = set()
            seen: set[int] = set()
            stack: list[NNF] = [self]
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                cached = node._vars
                if cached is not None:
                    vs |= cached
                else:
                    stack.extend(node.children)
            got = frozenset(vs)
            self._vars = got
        return got

    def nodes(self) -> list["NNF"]:
        """All distinct nodes (by identity), children before parents."""
        seen: set[int] = set()
        order: list[NNF] = []

        stack: list[tuple[NNF, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for c in node.children:
                stack.append((c, False))
        return order

    @property
    def size(self) -> int:
        """Number of gates (the paper's ``|C|``: distinct DAG nodes)."""
        return len(self.nodes())

    @property
    def edge_count(self) -> int:
        return sum(len(n.children) for n in self.nodes())

    def and_gates(self) -> list["NNF"]:
        return [n for n in self.nodes() if n.kind == "and"]

    def or_gates(self) -> list["NNF"]:
        return [n for n in self.nodes() if n.kind == "or"]

    def structural_key(self):
        """A canonical recursive key: equal keys <=> syntactically equal DAGs
        (Theorem 3 / Lemma 6 canonicity is *syntactic* equality)."""
        if self._key is not None:
            return self._key
        memo: dict[int, object] = {}
        for node in self.nodes():
            if node.kind == "lit":
                k: object = ("lit", node.var, node.sign)
            elif node.kind in ("true", "false"):
                k = (node.kind,)
            else:
                k = (node.kind, tuple(memo[id(c)] for c in node.children))
            memo[id(node)] = k
            node._key = k
        return self._key

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def function(self, variables: Sequence[str] | None = None) -> BooleanFunction:
        """Exact function over ``variables`` (default: the node's variables)."""
        import numpy as np

        from ..core.boolfunc import BooleanFunction

        vs = tuple(sorted(set(variables) if variables is not None else self.variables))
        if not self.variables <= set(vs):
            raise ValueError("requested variable set misses NNF variables")
        n = len(vs)
        idx = np.arange(1 << n)
        memo: dict[int, np.ndarray] = {}
        for node in self.nodes():
            if node.kind == "true":
                val = np.ones(1 << n, dtype=bool)
            elif node.kind == "false":
                val = np.zeros(1 << n, dtype=bool)
            elif node.kind == "lit":
                i = vs.index(node.var)  # type: ignore[arg-type]
                bit = ((idx >> i) & 1).astype(bool)
                val = bit if node.sign else ~bit
            elif node.kind == "and":
                val = np.ones(1 << n, dtype=bool)
                for c in node.children:
                    val = val & memo[id(c)]
            else:
                val = np.zeros(1 << n, dtype=bool)
                for c in node.children:
                    val = val | memo[id(c)]
            memo[id(node)] = val
        return BooleanFunction(vs, memo[id(self)])

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        memo: dict[int, bool] = {}
        for node in self.nodes():
            if node.kind == "true":
                v = True
            elif node.kind == "false":
                v = False
            elif node.kind == "lit":
                b = bool(assignment[node.var])  # type: ignore[index]
                v = b if node.sign else not b
            elif node.kind == "and":
                v = all(memo[id(c)] for c in node.children)
            else:
                v = any(memo[id(c)] for c in node.children)
            memo[id(node)] = v
        return memo[id(self)]

    def equivalent(self, other: "NNF") -> bool:
        vs = sorted(self.variables | other.variables)
        return self.function(vs) == other.function(vs)

    # ------------------------------------------------------------------
    # knowledge compilation map: language membership
    # ------------------------------------------------------------------
    def is_decomposable(self) -> bool:
        """Every AND gate's children have pairwise disjoint variable sets."""
        for node in self.and_gates():
            for a, b in itertools.combinations(node.children, 2):
                if a.variables & b.variables:
                    return False
        return True

    def is_deterministic(self) -> bool:
        """Every OR gate's children have pairwise disjoint model sets
        (checked exactly over the union of the children's variables)."""
        for node in self.or_gates():
            if len(node.children) < 2:
                continue
            vs = sorted(node.variables)
            tables = [c.function(vs).table for c in node.children]
            for a, b in itertools.combinations(tables, 2):
                if bool((a & b).any()):
                    return False
        return True

    def is_structured_by(self, vtree: Vtree) -> bool:
        """Every AND gate has fanin 2 and is structured by some vtree node
        (``var(left) ⊆ Y_{v_l}`` and ``var(right) ⊆ Y_{v_r}``)."""
        if not self.variables <= vtree.variables:
            return False
        for node in self.and_gates():
            if len(node.children) != 2:
                return False
            l, r = node.children
            if vtree.find_structuring_node(l.variables, r.variables) is None:
                return False
        return True

    def is_structured(self, candidate_vtrees: Iterable[Vtree] | None = None) -> bool:
        """Structured by *some* vtree.  With no candidates given, tries all
        vtrees over the variables (tiny variable sets only)."""
        cands = candidate_vtrees
        if cands is None:
            cands = Vtree.enumerate_all(sorted(self.variables))
        return any(self.is_structured_by(t) for t in cands)

    def is_smooth(self) -> bool:
        """Every OR gate's children mention the same variables."""
        for node in self.or_gates():
            if len({c.variables for c in node.children}) > 1:
                return False
        return True

    def structuring_map(self, vtree: Vtree) -> dict[int, Vtree]:
        """For each AND gate id, the (first, deepest-postorder) vtree node
        structuring it.  Raises if some AND gate is unstructured."""
        out: dict[int, Vtree] = {}
        for node in self.and_gates():
            if len(node.children) != 2:
                raise ValueError("structured circuits need fanin-2 AND gates")
            l, r = node.children
            v = vtree.find_structuring_node(l.variables, r.variables)
            if v is None:
                raise ValueError("AND gate not structured by the vtree")
            out[id(node)] = v
        return out

    # ------------------------------------------------------------------
    # counting / probability (valid on deterministic decomposable NNFs)
    # ------------------------------------------------------------------
    def model_count(self, scope: Iterable[str] | None = None) -> int:
        """Exact model count over ``scope`` (default: the node's variables).

        Linear-time on d-DNNFs: OR children are scaled by ``2**missing`` to
        account for non-smoothness, AND children multiply.
        """
        scope_set = frozenset(scope) if scope is not None else self.variables
        if not self.variables <= scope_set:
            raise ValueError("scope misses NNF variables")
        memo: dict[int, int] = {}
        for node in self.nodes():
            if node.kind == "true":
                c = 1
            elif node.kind == "false":
                c = 0
            elif node.kind == "lit":
                c = 1
            elif node.kind == "and":
                c = 1
                for ch in node.children:
                    c *= memo[id(ch)]
            else:
                c = 0
                for ch in node.children:
                    c += memo[id(ch)] << (len(node.variables) - len(ch.variables))
            memo[id(node)] = c
        return memo[id(self)] << (len(scope_set) - len(self.variables))

    def weighted_model_count(
        self, weights: Mapping[str, tuple[float, float]], scope: Iterable[str] | None = None
    ):
        """WMC with per-variable weights ``(w_negative, w_positive)``.

        With ``(1-p, p)`` weights this is exactly the probability of the
        lineage under a tuple-independent database; weights may be floats or
        :class:`fractions.Fraction` for exact arithmetic.
        """
        scope_set = frozenset(scope) if scope is not None else self.variables
        if not self.variables <= scope_set:
            raise ValueError("scope misses NNF variables")

        def missing_factor(vars_out: frozenset[str]):
            f = 1
            for v in vars_out:
                w0, w1 = weights[v]
                f = f * (w0 + w1)
            return f

        memo: dict[int, object] = {}
        for node in self.nodes():
            if node.kind == "true":
                w: object = 1
            elif node.kind == "false":
                w = 0
            elif node.kind == "lit":
                w0, w1 = weights[node.var]  # type: ignore[index]
                w = w1 if node.sign else w0
            elif node.kind == "and":
                w = 1
                for ch in node.children:
                    w = w * memo[id(ch)]  # type: ignore[operator]
            else:
                w = 0
                for ch in node.children:
                    w = w + memo[id(ch)] * missing_factor(node.variables - ch.variables)  # type: ignore[operator]
            memo[id(node)] = w
        return memo[id(self)] * missing_factor(frozenset(scope_set) - self.variables)

    def probability(self, prob: Mapping[str, float], scope: Iterable[str] | None = None) -> float:
        """Probability of the computed function under independent variables
        with ``P(v=1) = prob[v]`` (d-DNNF linear-time evaluation)."""
        weights = {v: (1.0 - float(p), float(p)) for v, p in prob.items()}
        return float(self.weighted_model_count(weights, scope))

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def condition(self, assignment: Mapping[str, int]) -> "NNF":
        """Replace assigned literals by constants and simplify.

        Conditioning preserves determinism and structuredness (used in the
        Theorem 5 lower-bound argument, citing [27])."""
        memo: dict[int, NNF] = {}
        for node in self.nodes():
            if node.kind == "lit" and node.var in assignment:
                val = bool(assignment[node.var])
                res = true_node() if (val == node.sign) else false_node()
            elif node.kind == "and":
                res = conj([memo[id(c)] for c in node.children])
            elif node.kind == "or":
                res = disj([memo[id(c)] for c in node.children])
            else:
                res = node
            memo[id(node)] = res
        return memo[id(self)]

    def forget(self, variables: Iterable[str]) -> "NNF":
        """Existential quantification by replacing literals with ``true`` —
        sound on *decomposable* NNFs (Darwiche 2001); raises otherwise."""
        if not self.is_decomposable():
            raise ValueError("forgetting by literal substitution requires a DNNF")
        drop = set(variables)
        memo: dict[int, NNF] = {}
        for node in self.nodes():
            if node.kind == "lit" and node.var in drop:
                res = true_node()
            elif node.kind == "and":
                res = conj([memo[id(c)] for c in node.children])
            elif node.kind == "or":
                res = disj([memo[id(c)] for c in node.children])
            else:
                res = node
            memo[id(node)] = res
        return memo[id(self)]

    def smooth(self) -> "NNF":
        """Return an equivalent smooth NNF (pads OR children with tautologies
        on missing variables).  Preserves determinism and decomposability but
        not structuredness in general."""
        memo: dict[int, NNF] = {}

        def pad(node: NNF, target: frozenset[str]) -> NNF:
            missing = target - node.variables
            if not missing:
                return node
            fills = [disj([lit(v, True), lit(v, False)]) for v in sorted(missing)]
            return conj([node, *fills])

        for node in self.nodes():
            if node.kind == "and":
                res = conj([memo[id(c)] for c in node.children])
            elif node.kind == "or":
                kids = [memo[id(c)] for c in node.children]
                target = frozenset().union(*[k.variables for k in kids]) if kids else frozenset()
                res = disj([pad(k, target) for k in kids])
            else:
                res = node
            memo[id(node)] = res
        return memo[id(self)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.kind == "lit":
            return f"NNF({'' if self.sign else '~'}{self.var})"
        return f"NNF({self.kind}, size={self.size})"


# ----------------------------------------------------------------------
# constructors with light simplification
# ----------------------------------------------------------------------
_TRUE = NNF("true")
_FALSE = NNF("false")


def true_node() -> NNF:
    return _TRUE


def false_node() -> NNF:
    return _FALSE


def lit(var: str, sign: bool) -> NNF:
    return NNF("lit", var=var, sign=bool(sign))


def conj(children: Sequence[NNF]) -> NNF:
    """AND with constant simplification (``⊥`` absorbs, ``⊤`` drops)."""
    kids: list[NNF] = []
    for c in children:
        if c.kind == "false":
            return _FALSE
        if c.kind == "true":
            continue
        kids.append(c)
    if not kids:
        return _TRUE
    if len(kids) == 1:
        return kids[0]
    return NNF("and", children=tuple(kids))


def disj(children: Sequence[NNF]) -> NNF:
    """OR with constant simplification (``⊤`` absorbs, ``⊥`` drops)."""
    kids: list[NNF] = []
    for c in children:
        if c.kind == "true":
            return _TRUE
        if c.kind == "false":
            continue
        kids.append(c)
    if not kids:
        return _FALSE
    if len(kids) == 1:
        return kids[0]
    return NNF("or", children=tuple(kids))
