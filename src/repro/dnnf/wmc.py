"""Linear-time (weighted) model counting over a smooth d-DNNF DAG.

The mirror of :mod:`repro.sdd.wmc` for the fourth backend — and the reason
the builder insists on smoothness and determinism: on a smooth
deterministic decomposable DAG the WMC is literally "OR = sum, AND =
product, literal = weight", one ring operation per wire, no gap products
needed (every OR child already mentions the full scope of its parent).

Same conventions as the SDD evaluator:

- **No recursion.**  DAG ids are hash-consed children-first, so a single
  ascending-id pass is a topological sweep; deep chains compile to deep
  DAGs and must not touch Python's stack.
- **Exact weights in scaled integers.**  ``int`` weights count models
  and floats give the fast inexact mode, both swept as given.  Weights
  containing a ``Fraction`` are encoded by
  :func:`repro.sdd.wmc.scaled_weights` (each variable's pair as integers
  over its own denominator ``D_v``), swept in Python ints, and divided
  once at the end.  Each memoized node carries its scale next to its
  value: a literal's ``D_v``, an AND's product of child scales, an OR's
  common child scale — on a smooth OR every child but a ``FALSE`` one
  shares it, and any other mix is put over the lcm, so the quotient is
  the exact ``Fraction`` a rational sweep would return.  (The OBDD
  sweeps stay on ``Fraction``: they are the independent reference the
  exact answers of this kernel are checked against.)
  :func:`repro.sdd.wmc.exact_weights` and
  :func:`~repro.sdd.wmc.float_weights` are reused verbatim so the
  ``Fraction(str(p))`` decimal-fidelity convention is shared bit-for-bit
  across backends (the cross-backend parity suite depends on it).
- **Reusable memo.**  One evaluator serves many roots of the same DAG;
  shared subgraphs are paid for once, and each sweep walks down from the
  root only as far as the first memoized nodes.
- **One evaluator, two node tables.**  The sweep reads only the
  :class:`~repro.dnnf.nodes.DnnfNodeTable` protocol, which the live
  :class:`~repro.dnnf.nodes.DnnfDag` and the frozen, mmap-backed
  :class:`~repro.artifact.store.FrozenDdnnf` both expose, so live and
  frozen answers are equal — floats bit-for-bit — by construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Iterable, Mapping

from ..sdd.wmc import exact_weights, float_weights, scaled_weights

if TYPE_CHECKING:
    from .nodes import DnnfNodeTable

_FALSE = 0
_TRUE = 1

__all__ = [
    "DnnfWmcEvaluator",
    "model_count",
    "weighted_model_count",
    "probability",
    "exact_weights",
    "float_weights",
]


class DnnfWmcEvaluator:
    """Weighted model counting over one DAG, reusable across roots.

    ``weights`` maps variables to ``(w_neg, w_pos)``; it must cover every
    variable the swept nodes mention.  The result of :meth:`value` is the
    WMC over the *root's own scope* — callers owning a wider scope multiply
    in ``w_neg + w_pos`` per absent variable (see :func:`model_count`).
    """

    def __init__(self, dag: DnnfNodeTable, weights: Mapping[str, tuple]):
        self.dag = dag
        self.weights = dict(weights)
        self._scaled = scaled_weights(self.weights)
        self._memo: dict[int, object] = {_FALSE: 0, _TRUE: 1}
        # Per-node denominators of the memo values (all 1 unless scaled).
        self._scale: dict[int, int] = {_FALSE: 1, _TRUE: 1}
        self._swept = 0

    def _sweep(self, root: int) -> None:
        """Fill the memo for every node reachable from ``root`` without
        passing through a memoized node (constants are pre-seeded)."""
        dag = self.dag
        memo = self._memo
        node_children = dag.node_children
        seen = {root}
        stack = [root]
        while stack:
            for c in node_children[stack.pop()]:
                if c not in memo and c not in seen:
                    seen.add(c)
                    stack.append(c)
        todo = sorted(seen)  # ascending id = children first
        self._swept += len(todo)
        node_kind = dag.node_kind
        scaled = self._scaled
        pairs = self.weights if scaled is None else scaled.pairs
        den = {} if scaled is None else scaled.den
        scale = self._scale
        for u in todo:
            kind = node_kind[u]
            if kind == "lit":
                var = dag.node_var[u]
                w0, w1 = pairs[var]
                memo[u] = w1 if dag.node_sign[u] else w0
                scale[u] = den.get(var, 1)
            elif kind == "and":
                acc = sc = 1
                for c in node_children[u]:
                    acc = acc * memo[c]
                    sc *= scale[c]
                memo[u] = acc
                scale[u] = sc
            elif kind == "or":
                acc, sc = 0, 1
                for c in node_children[u]:
                    v, cs = memo[c], scale[c]
                    if cs == sc or not v:  # a zero (FALSE) adds at any scale
                        acc = acc + v
                    elif not acc:
                        acc, sc = v, cs
                    else:  # a non-smooth OR: put both terms over the lcm
                        m = lcm(sc, cs)
                        acc = acc * (m // sc) + v * (m // cs)
                        sc = m
                memo[u] = acc
                scale[u] = sc
            else:  # constants pre-seeded; nothing else exists
                raise AssertionError(f"unexpected node kind {kind!r}")

    def value(self, root: int):
        memo = self._memo
        if root not in memo:
            self._sweep(root)
        if self._scaled is None:
            return memo[root]
        return Fraction(memo[root], self._scale[root])

    def update_weights(self, changed: Mapping[str, tuple]) -> int:
        """Point-update literal weights, invalidating exactly the stale memo.

        One ascending-id pass marks every node whose value (transitively)
        reaches a literal of a changed variable, then drops only those
        memo entries.  Returns the number evicted; the next :meth:`value`
        re-sweeps just the marked cone — the DAG itself is untouched.
        """
        self.weights.update(changed)
        memo, scale = self._memo, self._scale
        if self._scaled is not None and not self._scaled.update(changed):
            # A float joined exact weights: the integer memo is void.
            self._scaled = None
            stale = [u for u in memo if u > _TRUE]
        else:
            vars_changed = set(changed)
            dag = self.dag
            dirty = bytearray(len(dag.node_kind))
            for u in range(2, len(dag.node_kind)):
                kind = dag.node_kind[u]
                if kind == "lit":
                    if dag.node_var[u] in vars_changed:
                        dirty[u] = 1
                elif kind != "const":
                    for c in dag.node_children[u]:
                        if dirty[c]:
                            dirty[u] = 1
                            break
            stale = [u for u in memo if u > _TRUE and dirty[u]]
        for u in stale:
            del memo[u]
            del scale[u]
        return len(stale)

    def memoized(self, root: int) -> bool:
        """Whether ``root``'s value survived the last weight update — a
        caller caching final values can keep them exactly when this holds."""
        return root in self._memo

    def stats(self) -> dict[str, int]:
        """Public counters (the supported alternative to poking ``_memo``);
        ``nodes_swept`` counts every node value computed so far."""
        return {"memo_entries": len(self._memo), "nodes_swept": self._swept}


# ----------------------------------------------------------------------
# functional entry points (same surface as repro.sdd.wmc)
# ----------------------------------------------------------------------
def weighted_model_count(dag: DnnfNodeTable, root: int, weights: Mapping[str, tuple]):
    """One-shot WMC; see :class:`DnnfWmcEvaluator` for the reusable form."""
    return DnnfWmcEvaluator(dag, weights).value(root)


def model_count(dag: DnnfNodeTable, root: int, scope: Iterable[str] | None = None) -> int:
    """Exact model count over ``scope`` (default: the root's own scope).

    The builder's smoothness guarantee makes the root mention exactly the
    circuit's variables, so the default counts over the circuit; ``scope``
    may name extra variables, each contributing a free factor of 2 —
    matching :func:`repro.sdd.wmc.model_count`.
    """
    mentioned = dag.scopes(root)[root]
    weights = {v: (1, 1) for v in mentioned}
    base = DnnfWmcEvaluator(dag, weights).value(root)
    missing = len(set(scope) - mentioned) if scope is not None else 0
    return base << missing


def probability(
    dag: DnnfNodeTable, root: int, prob: Mapping[str, float], *, exact: bool = False
):
    """Probability of ``root`` under independent literal probabilities.

    Variables in ``prob`` beyond the root's scope are marginalized for free
    (their ``(1-p) + p`` factor is 1).  ``exact=True`` returns the exact
    rational (swept in scaled integers).
    """
    if exact:
        return Fraction(weighted_model_count(dag, root, exact_weights(prob)))
    return float(weighted_model_count(dag, root, float_weights(prob)))
