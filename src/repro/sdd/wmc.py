"""Linear-time (weighted) model counting over SDD node tables.

The manager's SDDs are hash-consed, so every node id is created *after* the
ids it references.  That makes a single ascending-id sweep a topological
traversal: each reachable node is visited once, each element ``(p, s)``
combines the already-computed child values, and the whole count costs
``O(size(α))`` ring operations — the linear-time WMC the knowledge
compilation literature promises for deterministic structured forms.

Two things distinguish this module from a naive recursive walk:

- **No recursion.**  Lineages of 100+ tuples compile against deep
  right-linear vtrees; a recursive traversal overflows Python's stack long
  before the instances get interesting.  The sweep here is iterative.
- **Amortized gap products.**  A sub-SDD normalized for a vtree node ``v``
  deep inside the tree says nothing about the variables outside ``v``; its
  value must be multiplied by the product of ``w_neg + w_pos`` over the
  *gap* variables.  Those products are precomputed per vtree node and the
  path products are cached, so the sweep stays linear instead of paying an
  ``O(n)`` set difference per element (as the manager's original recursive
  implementation did).

Exact weights run in scaled integers.  ``int`` weights give exact model
counts and ``float`` weights the fast inexact mode, both computed as given
(floats in one fixed per-element operation order, so live and frozen
answers are ``repr``-identical).  When the weights contain a :class:`~fractions.Fraction`,
:func:`scaled_weights` encodes each variable's pair as integers over the
pair's own common denominator ``D_v``; the sweep then runs in Python ints
and divides once at the end, by the product of ``D_v`` over the root's
scope.  WMC is homogeneous of degree 1 in every variable's pair, so that
quotient is exactly the ``Fraction`` a sweep over the rational weights
would return — without a gcd per ring operation.  (The OBDD sweeps of
:mod:`repro.obdd` stay on ``Fraction`` on purpose: they are the independent
reference the exact answers here are checked against.)

One evaluator instance can be reused across many roots of the same
manager — the memo table is keyed by node id, so a workload of queries
sharing sub-lineages pays for each shared node once (this is what
:meth:`repro.queries.QueryEngine.evaluate` leans on).  Each sweep walks
down from the root and stops at memoized nodes, so after a weight update
it touches only the evicted cone.

One evaluator, two node tables.  The evaluator and the structure queries
of :class:`SddNodeTable` read nothing but the node-table protocol that
class documents, which both the live
:class:`~repro.sdd.manager.SddManager` and the frozen, mmap-backed
:class:`~repro.artifact.store.FrozenSdd` expose.  The same code runs on
either side, so live and frozen answers are equal — floats bit-for-bit —
by construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

__all__ = [
    "SddNodeTable",
    "SddWmcEvaluator",
    "ScaledWeights",
    "scaled_weights",
    "model_count",
    "weighted_model_count",
    "probability",
    "exact_weights",
    "float_weights",
]

_FALSE = 0
_TRUE = 1


def exact_weights(prob: Mapping[str, float]) -> dict[str, tuple[Fraction, Fraction]]:
    """Literal weights ``(1-p, p)`` as exact rationals.

    Floats are converted with ``Fraction(str(p))`` fidelity so that ``0.1``
    means the decimal ``1/10``, not its binary approximation.
    """
    out: dict[str, tuple[Fraction, Fraction]] = {}
    for v, p in prob.items():
        fp = p if isinstance(p, Fraction) else Fraction(str(p))
        out[v] = (1 - fp, fp)
    return out


def float_weights(prob: Mapping[str, float]) -> dict[str, tuple[float, float]]:
    """Literal weights ``(1-p, p)`` as floats (the fast inexact mode)."""
    return {v: (1.0 - float(p), float(p)) for v, p in prob.items()}


def _pairs_rational(weights: Mapping[str, tuple]) -> bool:
    return all(
        isinstance(x, (int, Fraction)) for pair in weights.values() for x in pair
    )


class ScaledWeights:
    """Rational weight pairs as integers over per-variable denominators.

    ``pairs[v] == (w_neg * D_v, w_pos * D_v)`` and ``den[v] == D_v``, the
    lcm of the two denominators of ``v``'s pair.  A sweep over ``pairs``
    yields every node's WMC multiplied by the product of ``D_v`` over the
    node's scope; dividing once by that product recovers the exact value.
    """

    __slots__ = ("pairs", "den")

    def __init__(self, weights: Mapping[str, tuple]):
        self.pairs: dict[str, tuple[int, int]] = {}
        self.den: dict[str, int] = {}
        self.update(weights)

    def update(self, changed: Mapping[str, tuple]) -> bool:
        """Re-encode ``changed``; ``False`` (and nothing stored) when some
        weight is not an ``int`` or ``Fraction``."""
        if not _pairs_rational(changed):
            return False
        for v, (w0, w1) in changed.items():
            d0, d1 = w0.denominator, w1.denominator
            d = d0 if d0 == d1 else lcm(d0, d1)
            self.pairs[v] = (w0.numerator * (d // d0), w1.numerator * (d // d1))
            self.den[v] = d
        return True


def scaled_weights(weights: Mapping[str, tuple]) -> ScaledWeights | None:
    """The scaled-integer encoding when ``weights`` are exact rationals with
    at least one :class:`~fractions.Fraction`; ``None`` otherwise (``int``
    and ``float`` weights are swept as given)."""
    values = [x for pair in weights.values() for x in pair]
    if any(isinstance(x, Fraction) for x in values) and _pairs_rational(weights):
        return ScaledWeights(weights)
    return None


class SddNodeTable:
    """Read-only queries over an SDD node table, shared by the live
    :class:`~repro.sdd.manager.SddManager` and the frozen
    :class:`~repro.artifact.store.FrozenSdd`.

    A subclass provides the node-table protocol these methods and
    :class:`SddWmcEvaluator` read:

    - ``node_kind[u]`` — ``"false"``, ``"true"``, ``"lit"`` or ``"dec"``;
    - ``node_var[u]`` / ``node_sign[u]`` for a literal, ``node_vnode[u]``
      (its vtree node) for a literal or decision, and
      ``node_elements[u]``, an iterable of ``(prime, sub)`` pairs, for a
      decision;
    - ``node_stamp``, a sort key under which children precede parents;
    - the vtree: ``v_left`` / ``v_right`` / ``v_parent`` (``None`` at a
      leaf, and above the root), ``v_root``, ``leaf_of_var``,
      ``variables`` and ``vtree_postorder()`` (children before parents);
    - ``register_wmc_cache(evaluator)``, so a manager whose node ids can
      die or whose vtree can rotate keeps its evaluators' memos coherent.
    """

    def element_count(self, u: int) -> int:
        """Number of elements of decision ``u``."""
        return len(self.node_elements[u])

    def reachable(self, u: int) -> set[int]:
        node_kind, node_elements = self.node_kind, self.node_elements
        seen: set[int] = set()
        stack = [u]
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            if w > _TRUE and node_kind[w] == "dec":
                for p, s in node_elements[w]:
                    stack.extend((p, s))
        return seen

    def size(self, u: int) -> int:
        """Standard SDD size: total element count over decision nodes."""
        node_kind, count = self.node_kind, self.element_count
        return sum(count(w) for w in self.reachable(u) if node_kind[w] == "dec")

    def node_count(self, u: int) -> int:
        return len(self.reachable(u))

    def width(self, u: int) -> int:
        """The paper's SDD width: max, over vtree nodes, of the number of
        elements (AND gates) structured there."""
        node_kind, node_vnode = self.node_kind, self.node_vnode
        per: dict[int, int] = {}
        for w in self.reachable(u):
            if node_kind[w] == "dec":
                vn = node_vnode[w]
                per[vn] = per.get(vn, 0) + self.element_count(w)
        return max(per.values(), default=0)

    def count_models(self, u: int, scope: Iterable[str] | None = None) -> int:
        """Exact model count via the linear sweep of :class:`SddWmcEvaluator`."""
        return model_count(self, u, scope)

    def weighted_count(self, u: int, weights: Mapping[str, tuple]):
        """WMC with weights ``(w_neg, w_pos)``; exact with Fractions."""
        return weighted_model_count(self, u, weights)

    def probability(self, u: int, prob: Mapping[str, float], *, exact: bool = False):
        return probability(self, u, prob, exact=exact)

    def freeze(self, roots: Iterable[int], *, names=None, meta=None):
        """Freeze ``roots`` into an immutable array-backed
        :class:`~repro.artifact.store.FrozenSdd` (save/mmap/share); a
        frozen store re-freezes to the same tables."""
        from ..artifact.store import FrozenSdd

        return FrozenSdd.from_manager(self, list(roots), names=names, meta=meta)

    def evaluate(self, u: int, assignment: Mapping[str, int]) -> bool:
        # Lazy short-circuit evaluation (only the taken branches need their
        # variables assigned), iterative: a node stays on the stack until
        # the one child value it is waiting on has been computed.
        node_kind, node_elements = self.node_kind, self.node_elements
        val: dict[int, bool] = {_FALSE: False, _TRUE: True}
        stack = [u]
        while stack:
            w = stack[-1]
            if w in val:
                stack.pop()
                continue
            if node_kind[w] == "lit":
                b = bool(assignment[self.node_var[w]])
                val[w] = b if self.node_sign[w] else not b
                stack.pop()
                continue
            needed: int | None = None
            res = False
            for p, s in node_elements[w]:
                pv = val.get(p)
                if pv is None:
                    needed = p
                    break
                if pv:
                    sv = val.get(s)
                    if sv is None:
                        needed = s
                    else:
                        res = sv
                    break
            if needed is not None:
                stack.append(needed)
            else:
                val[w] = res
                stack.pop()
        return val[u]


class SddWmcEvaluator:
    """Weighted model counting over one node table, reusable across roots.

    ``weights`` maps every vtree variable to ``(w_neg, w_pos)``.  Values may
    be ``int``, ``float`` or :class:`~fractions.Fraction`: ``int`` weights
    return ``int``, weights containing a ``Fraction`` return the exact
    ``Fraction`` (swept in scaled integers), and ``float`` weights return
    ``float``.
    """

    def __init__(self, mgr: SddNodeTable, weights: Mapping[str, tuple]):
        self.mgr = mgr
        missing = mgr.variables - set(weights)
        if missing:
            raise ValueError(f"weights missing for variables: {sorted(missing)[:5]}")
        self.weights = {v: weights[v] for v in mgr.variables}
        self._scaled = scaled_weights(self.weights)
        self._rebuild_vtree_tables()
        self._memo: dict[int, object] = {}
        self._swept = 0
        # The memo is keyed by node id; register for eviction (and for
        # vtree refresh after in-place rotations) so the manager can keep
        # this cache coherent across gc and minimization.
        mgr.register_wmc_cache(self)

    def _rebuild_vtree_tables(self) -> None:
        """Product of (w_neg + w_pos) over the variables under each vtree
        node, children before parents, in the sweep's ring — plus, for
        scaled weights, the product of the denominators ``D_v`` under each
        node (a node's memo value is its WMC times its vtree node's
        scale).  Uses the manager's current postorder — index order itself
        stops being topological once in-place vtree rotations have run."""
        mgr = self.mgr
        scaled = self._scaled
        pairs = self.weights if scaled is None else scaled.pairs
        den = {} if scaled is None else scaled.den
        v_left, v_right = mgr.v_left, mgr.v_right
        prod: list = [1] * len(v_left)
        scale: list[int] = [1] * len(v_left)
        for var, i in mgr.leaf_of_var.items():
            # A variable just appended by SddManager.add_variable may not
            # have weights yet (update_weights supplies them next); the
            # multiplicative identity keeps the tables usable.
            w = pairs.get(var)
            prod[i] = 1 if w is None else w[0] + w[1]
            scale[i] = den.get(var, 1)
        for i in mgr.vtree_postorder():
            left = v_left[i]
            if left is not None:
                right = v_right[i]
                prod[i] = prod[left] * prod[right]
                scale[i] = scale[left] * scale[right]
        self._pairs = pairs
        self._subtree_prod = prod
        self._scale = scale
        self._root_vnode = mgr.v_root
        self._gap_cache: dict[tuple[int, int], object] = {}

    def refresh_vtree(self) -> None:
        """Called by the manager after an in-place rotation changed a vtree
        node's variable scope.  Memoized node values survive — a live
        node's own vtree scope never changes across a move — but the
        per-vnode subtree products, scales and gap paths must be rebuilt."""
        self._rebuild_vtree_tables()

    # ------------------------------------------------------------------
    def _gap(self, outer: int, inner: int):
        """Product of leaf sums under vtree node ``outer`` but not ``inner``
        (``inner`` must lie in ``outer``'s subtree)."""
        if outer == inner:
            return 1
        key = (outer, inner)
        got = self._gap_cache.get(key)
        if got is not None:
            return got
        mgr = self.mgr
        g = 1
        x = inner
        while x != outer:
            p = mgr.v_parent[x]
            assert p is not None, "inner vtree node not under outer"
            sib = mgr.v_left[p] if mgr.v_right[p] == x else mgr.v_right[p]
            g = g * self._subtree_prod[sib]
            x = p
        self._gap_cache[key] = g
        return g

    def _lift(self, u: int, target_vnode: int):
        """Value of node ``u`` normalized to ``target_vnode``'s full scope."""
        if u == _FALSE:
            return 0
        if u == _TRUE:
            return self._subtree_prod[target_vnode]
        return self._memo[u] * self._gap(target_vnode, self.mgr.node_vnode[u])

    def _sweep(self, root: int) -> None:
        """Fill the memo for every node reachable from ``root`` without
        passing through a memoized node."""
        mgr = self.mgr
        memo = self._memo
        if root <= _TRUE or root in memo:
            return
        node_kind, node_elements = mgr.node_kind, mgr.node_elements
        seen = {root}
        stack = [root]
        while stack:
            w = stack.pop()
            if node_kind[w] != "dec":
                continue
            for p, s in node_elements[w]:
                if p > _TRUE and p not in memo and p not in seen:
                    seen.add(p)
                    stack.append(p)
                if s > _TRUE and s not in memo and s not in seen:
                    seen.add(s)
                    stack.append(s)
        # Creation order is topological (children are interned first); ids
        # are not once gc has recycled slots, so sort by stamp.
        todo = sorted(seen, key=mgr.node_stamp.__getitem__)
        self._swept += len(todo)
        pairs = self._pairs
        for u in todo:
            if node_kind[u] == "lit":
                w0, w1 = pairs[mgr.node_var[u]]
                memo[u] = w1 if mgr.node_sign[u] else w0
            else:
                vn = mgr.node_vnode[u]
                vl, vr = mgr.v_left[vn], mgr.v_right[vn]
                acc = 0
                for p, s in node_elements[u]:
                    acc = acc + self._lift(p, vl) * self._lift(s, vr)
                memo[u] = acc

    def value(self, root: int):
        """WMC of ``root`` over *all* vtree variables."""
        self._sweep(root)
        value = self._lift(root, self._root_vnode)
        if self._scaled is None:
            return value
        return Fraction(value, self._scale[self._root_vnode])

    def update_weights(self, changed: Mapping[str, tuple]) -> int:
        """Point-update literal weights, invalidating exactly the stale memo.

        A memoized node value depends only on the weights (and, scaled,
        the denominators) of variables under its own vtree node, so
        changing ``var`` can only stale the entries whose vtree node lies
        on the leaf(var)→root ancestor path — everything else keeps its
        value.  Returns the number of memo entries evicted; the next
        :meth:`value` call re-sweeps just those nodes (no recompilation
        anywhere).
        """
        mgr = self.mgr
        self.weights.update(changed)
        memo = self._memo
        if self._scaled is not None and not self._scaled.update(changed):
            # A float joined exact weights: the integer memo is void, and
            # the sweep runs on the weights as given from now on.
            self._scaled = None
            evicted = len(memo)
            memo.clear()
        else:
            touched: set[int] = set()
            for var in changed:
                x = mgr.leaf_of_var.get(var)
                while x is not None:
                    touched.add(x)
                    x = mgr.v_parent[x]
            node_vnode = mgr.node_vnode
            stale = [u for u in memo if node_vnode[u] in touched]
            for u in stale:
                del memo[u]
            evicted = len(stale)
        # Subtree products, scales and gap paths embed the old weights
        # everywhere above the touched leaves; rebuild them (linear, no
        # node visits).
        self._rebuild_vtree_tables()
        return evicted

    def evict(self, dead_ids) -> None:
        """Drop memo entries for collected node ids (called by the
        manager's :meth:`~repro.sdd.manager.SddManager.gc`; the gap cache
        is keyed by vtree nodes, which never die)."""
        memo = self._memo
        for u in dead_ids:
            memo.pop(u, None)

    def stats(self) -> dict[str, int]:
        """Public counters for the evaluator's memo tables (the supported
        alternative to poking ``_memo`` directly).  ``nodes_swept`` counts
        every node value computed so far — a repeated :meth:`value` adds
        nothing, a weight update adds the evicted cone."""
        return {
            "memo_entries": len(self._memo),
            "gap_cache_entries": len(self._gap_cache),
            "nodes_swept": self._swept,
        }


# ----------------------------------------------------------------------
# functional entry points
# ----------------------------------------------------------------------
def weighted_model_count(mgr: SddNodeTable, root: int, weights: Mapping[str, tuple]):
    """One-shot WMC; see :class:`SddWmcEvaluator` for the reusable form."""
    return SddWmcEvaluator(mgr, weights).value(root)


def model_count(mgr: SddNodeTable, root: int, scope: Iterable[str] | None = None) -> int:
    """Exact model count over the vtree variables (integer weights 1/1).

    ``scope`` may name extra variables outside the vtree; each contributes a
    free factor of 2, matching :meth:`SddManager.count_models`.
    """
    weights = {v: (1, 1) for v in mgr.variables}
    base = SddWmcEvaluator(mgr, weights).value(root)
    missing = len(set(scope) - mgr.variables) if scope is not None else 0
    return base << missing


def probability(
    mgr: SddNodeTable, root: int, prob: Mapping[str, float], *, exact: bool = False
):
    """Probability of ``root`` under independent literal probabilities.

    ``exact=True`` returns the exact rational (swept in scaled integers);
    otherwise floats are used and a ``float`` returned.
    """
    if exact:
        # Weights without any Fraction (an empty map) sweep as ints.
        return Fraction(weighted_model_count(mgr, root, exact_weights(prob)))
    return float(weighted_model_count(mgr, root, float_weights(prob)))
