"""An apply-based SDD manager (Darwiche 2011).

The canonical construction ``S_{F,T}`` of :mod:`repro.core.sdd_compile`
needs the full truth table of ``F``; query lineages can have far too many
variables for that.  This manager compiles *circuits* bottom-up instead:
SDD nodes are hash-consed decision nodes ``(vtree node, ((prime, sub), ...))``
with compression (equal subs merged) and trimming, so every function has a
unique normalized representation per vtree, and ``apply`` runs on pairs of
canonical nodes with memoization.  When one operand lies below the left
child of the operands' lowest common vtree node (the *one-sided* case, the
common one on Lemma-1 vtrees with their large left subtrees), ``apply``
does not multiply out a full product: the operand only restricts the other
side's primes, ``(p ∧ n, s)`` plus ``(¬n, ⊥)`` for AND and ``(p ∧ ¬n, s)``
plus ``(n, ⊤)`` for OR, and the subs are left as they are.

Size conventions follow the SDD literature: ``size(α)`` is the total number
of elements of the decision nodes reachable from ``α``; ``width`` per the
paper counts elements per vtree node (AND gates structured there).

A ``node_budget`` given to :meth:`SddManager.compile_circuit` is checked
at every new node allocation, so it binds inside a single apply: the
compile raises :class:`CompilationBudgetExceeded` with at most
``node_budget`` nodes live.

These operational properties matter for long-running sessions:

- **Stack safety.**  ``apply`` descends one vtree level per step, so on the
  deep right-linear vtrees that query lineages use a recursive apply
  overflows Python's stack around 1000 variables.  ``apply`` is one
  explicit-stack kernel instead: a sub-apply that misses the cache is
  pushed as a frame on a list, so the Python stack stays O(1) at any
  vtree depth, and there is no second path whose order could drift.
  ``negate`` never applies, so no apply runs inside another.  The other
  operations (``negate``, ``condition``, ``to_nnf``, ``evaluate``) are
  iterative creation-order sweeps.
- **Garbage collection.**  Hash-cons tables and apply caches only ever
  grow unless collected.  Roots are reference-count *pinned*
  (:meth:`pin`/:meth:`release`); :meth:`gc` mark-sweeps everything
  unreachable from the pinned roots, recycles the node ids through a free
  list, and coherently evicts every cache keyed by node id — the apply and
  negation caches here, and any registered
  :class:`~repro.sdd.wmc.SddWmcEvaluator` memo (id reuse without eviction
  would silently corrupt results).  Every collection sweeps everything
  unpinned, however recently it was built.
- **Dynamic vtree minimization.**  :meth:`rotate_left`, :meth:`rotate_right`
  and :meth:`swap` transform the vtree *in place*: only the SDD nodes
  normalized at the affected vtree nodes are re-partitioned (through the
  unique table, so canonicity is preserved), pins travel with the returned
  old→new id mapping, and every id-keyed cache is evicted coherently.
  :meth:`minimize` is the sifting-style search driver over those moves —
  the Choi–Darwiche flexibility the paper credits for SDDs' practical edge
  over OBDDs, without ever recompiling the circuit.  A sift returns to a
  shape it has already seen by restoring a snapshot of the tables, not by
  rotating back.
"""

from __future__ import annotations

import weakref
from itertools import product
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..core.vtree import Vtree
from ..circuits.circuit import AND, CONST, NOT, OR, VAR, Circuit
from ..circuits.nnf import NNF, false_node, lit, true_node
from .wmc import SddNodeTable

if TYPE_CHECKING:
    from ..core.boolfunc import BooleanFunction

__all__ = ["SddManager", "sdd_from_circuit", "CompilationBudgetExceeded"]

_FALSE = 0
_TRUE = 1
# What a suspended apply frame waits for from its child: the prime of an
# element product, its sub, or a compression OR.
_WANT_PRIME, _WANT_SUB, _WANT_MERGE = 0, 1, 2


class CompilationBudgetExceeded(RuntimeError):
    """Raised by :meth:`SddManager.compile_circuit` when a ``node_budget``
    is exhausted mid-compilation (used by the ``best-of`` vtree strategy to
    abandon candidates that blow up)."""


class SddManager(SddNodeTable):
    """SDD manager over a vtree that :meth:`minimize` may rewrite in place.

    Compilation never moves the vtree: it stays as given until a caller
    runs :meth:`minimize` (or a single move), and :meth:`gc` runs only
    when a caller asks for it.
    """

    def __init__(self, vtree: Vtree):
        self.vtree = vtree
        # --- vtree tables -------------------------------------------------
        self.v_nodes: list[Vtree] = list(vtree.nodes())  # postorder
        self.v_index: dict[int, int] = {id(v): i for i, v in enumerate(self.v_nodes)}
        self.v_parent: list[int | None] = [None] * len(self.v_nodes)
        self.v_left: list[int | None] = [None] * len(self.v_nodes)
        self.v_right: list[int | None] = [None] * len(self.v_nodes)
        self.v_interval: list[tuple[int, int]] = [(0, 0)] * len(self.v_nodes)
        self.v_lo: list[int] = [0] * len(self.v_nodes)
        self.v_hi: list[int] = [0] * len(self.v_nodes)
        self.v_nvars: list[int] = [0] * len(self.v_nodes)
        self.leaf_of_var: dict[str, int] = {}
        pos = 0
        for i, v in enumerate(self.v_nodes):
            if v.is_leaf:
                self.v_interval[i] = (pos, pos + 1)
                self.v_nvars[i] = 1
                if v.var in self.leaf_of_var:
                    raise ValueError(f"duplicate vtree leaf {v.var!r}")
                self.leaf_of_var[v.var] = i  # type: ignore[index]
                pos += 1
            else:
                li = self.v_index[id(v.left)]
                ri = self.v_index[id(v.right)]
                self.v_left[i], self.v_right[i] = li, ri
                self.v_parent[li] = i
                self.v_parent[ri] = i
                self.v_interval[i] = (self.v_interval[li][0], self.v_interval[ri][1])
                self.v_nvars[i] = self.v_nvars[li] + self.v_nvars[ri]
            self.v_lo[i], self.v_hi[i] = self.v_interval[i]
        self.v_root: int = len(self.v_nodes) - 1  # stable across rotations
        # Decision nodes normalized at each vtree node: the locality index
        # the in-place vtree moves depend on (a rotation touches exactly
        # these buckets), also kept coherent by gc.
        self._vnode_members: list[set[int]] = [set() for _ in self.v_nodes]
        # Live SDD size (total elements over live decisions), maintained
        # incrementally so the minimization search never has to re-walk.
        self._total_elements = 0
        # --- sdd node tables ----------------------------------------------
        # id 0 = FALSE, id 1 = TRUE; literals and decisions from 2 on.
        # Freed slots are recycled through _free_ids, so ids are NOT
        # topological once gc has run — node_stamp (strictly increasing
        # creation order) is, and the linear sweeps sort by it.
        self.node_kind: list[str] = ["false", "true"]
        self.node_vnode: list[int] = [-1, -1]
        self.node_var: list[str | None] = [None, None]
        self.node_sign: list[bool | None] = [None, None]
        self.node_elements: list[tuple[tuple[int, int], ...] | None] = [None, None]
        self.node_stamp: list[int] = [0, 1]
        self._next_stamp = 2
        self._lit_table: dict[tuple[str, bool], int] = {}
        self._dec_table: dict[tuple[int, tuple[tuple[int, int], ...]], int] = {}
        # Apply caches are op-specialized and keyed by the packed pair
        # (a << 32) | b with a < b — integer keys hash far faster than
        # tuples on this, the hottest dictionary in the engine.
        self._and_cache: dict[int, int] = {}
        self._or_cache: dict[int, int] = {}
        self._neg_cache: dict[int, int] = {}
        # Live-node cap of the running :meth:`compile_circuit`, checked at
        # every allocation; ``None`` outside a budgeted compile.
        self._node_budget: int | None = None
        # --- garbage collection -------------------------------------------
        self._minimize_runs = 0
        self._moves_applied = 0
        self._free_ids: list[int] = []
        self._pins: dict[int, int] = {}
        self._gc_runs = 0
        self._collected_total = 0
        self._wmc_caches: weakref.WeakSet = weakref.WeakSet()

    # ------------------------------------------------------------------
    # vtree helpers
    # ------------------------------------------------------------------
    def _contains(self, outer: int, inner: int) -> bool:
        (a, b), (c, d) = self.v_interval[outer], self.v_interval[inner]
        return a <= c and d <= b

    def vnode_of(self, u: int) -> int:
        return self.node_vnode[u]

    @property
    def variables(self) -> frozenset[str]:
        return self.vtree.variables

    def add_variable(self, var: str) -> int:
        """Extend the vtree with a fresh variable; returns its leaf index.

        The new leaf is appended *after* every existing variable and hung
        under a brand-new root internal node ``(old_root, leaf)``.  No
        existing vtree index, interval, or SDD node changes, so every
        compiled root, pin, apply-cache entry, and WMC memo stays valid —
        the new variable only contributes a marginalization factor above
        the old root.  This is how live tuple inserts grow the manager
        without invalidating the session; the serial and parallel tiers
        apply the same deltas in the same order, so the extended vtrees
        (and hence the canonical SDDs) stay identical across workers.
        Idempotent: an already-present variable just returns its leaf.
        """
        got = self.leaf_of_var.get(var)
        if got is not None:
            return got
        old_root = self.v_root
        pos = self.v_hi[old_root]
        leaf = Vtree.leaf(var)
        li = len(self.v_nodes)
        self.v_nodes.append(leaf)
        self.v_index[id(leaf)] = li
        self.v_parent.append(None)
        self.v_left.append(None)
        self.v_right.append(None)
        self.v_interval.append((pos, pos + 1))
        self.v_lo.append(pos)
        self.v_hi.append(pos + 1)
        self.v_nvars.append(1)
        self.leaf_of_var[var] = li
        self._vnode_members.append(set())

        root_obj = Vtree.internal_trusted(self.v_nodes[old_root], leaf)
        ri = len(self.v_nodes)
        self.v_nodes.append(root_obj)
        self.v_index[id(root_obj)] = ri
        self.v_parent.append(None)
        self.v_left.append(old_root)
        self.v_right.append(li)
        self.v_interval.append((self.v_lo[old_root], pos + 1))
        self.v_lo.append(self.v_lo[old_root])
        self.v_hi.append(pos + 1)
        self.v_nvars.append(self.v_nvars[old_root] + 1)
        self.v_parent[old_root] = ri
        self.v_parent[li] = ri
        self._vnode_members.append(set())
        self.v_root = ri
        self.vtree = root_obj
        self._refresh_wmc_vtrees()
        return li

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    @property
    def false(self) -> int:
        return _FALSE

    @property
    def true(self) -> int:
        return _TRUE

    @property
    def live_node_count(self) -> int:
        """Nodes currently allocated (constants + literals + live decisions)."""
        return len(self.node_kind) - len(self._free_ids)

    @property
    def live_size(self) -> int:
        """Manager-wide SDD size: total element count over *all* live
        decision nodes (per-root size is :meth:`size`).  Maintained
        incrementally; the minimization search reads it after each move."""
        return self._total_elements

    def _alloc(
        self,
        kind: str,
        vnode: int,
        var: str | None,
        sign: bool | None,
        elements: tuple[tuple[int, int], ...] | None,
    ) -> int:
        budget = self._node_budget
        if budget is not None and self.live_node_count >= budget:
            raise CompilationBudgetExceeded(
                f"node budget {budget} exceeded "
                f"(allocating past {self.live_node_count} nodes)"
            )
        free = self._free_ids
        if free:
            nid = free.pop()
            self.node_kind[nid] = kind
            self.node_vnode[nid] = vnode
            self.node_var[nid] = var
            self.node_sign[nid] = sign
            self.node_elements[nid] = elements
            self.node_stamp[nid] = self._next_stamp
        else:
            nid = len(self.node_kind)
            self.node_kind.append(kind)
            self.node_vnode.append(vnode)
            self.node_var.append(var)
            self.node_sign.append(sign)
            self.node_elements.append(elements)
            self.node_stamp.append(self._next_stamp)
        self._next_stamp += 1
        if kind == "dec":
            assert elements is not None
            self._vnode_members[vnode].add(nid)
            self._total_elements += len(elements)
        return nid

    def literal(self, var: str, sign: bool = True) -> int:
        key = (var, bool(sign))
        got = self._lit_table.get(key)
        if got is not None:
            return got
        if var not in self.leaf_of_var:
            raise ValueError(f"variable {var!r} not in the vtree")
        nid = self._alloc("lit", self.leaf_of_var[var], var, bool(sign), None)
        self._lit_table[key] = nid
        return nid

    def _intern_decision(
        self, vnode: int, elems: tuple[tuple[int, int], ...]
    ) -> int:
        """Trim + intern an already-compressed element tuple at ``vnode``."""
        n = len(elems)
        if not n:
            return _FALSE
        # Trimming rules.
        if n == 1:
            p, s = elems[0]
            if p == _TRUE:
                return s
            if s == _TRUE:
                return p
            if s == _FALSE:
                return _FALSE
        elif n == 2:
            (p1, s1), (p2, s2) = elems
            if s1 == _FALSE and s2 == _TRUE:
                return p2
            if s1 == _TRUE and s2 == _FALSE:
                return p1
        key = (vnode, elems)
        got = self._dec_table.get(key)
        if got is not None:
            return got
        nid = self._alloc("dec", vnode, None, None, elems)
        self._dec_table[key] = nid
        return nid

    def intern_decision(
        self, vnode: int, elems: Iterable[tuple[int, int]]
    ) -> int:
        """Public trim+intern hook (element children must already be
        compressed and live in this manager) — the thaw path of
        :meth:`repro.artifact.store.FrozenSdd.to_manager` rebuilds loaded
        artifacts through this."""
        return self._intern_decision(vnode, tuple((p, s) for p, s in elems))

    def _decision(self, vnode: int, elements: Iterable[tuple[int, int]]) -> int:
        """Compress + trim + intern a decision node at ``vnode``."""
        # Compression: merge primes with equal subs (OR on the left subtree).
        by_sub: dict[int, int] = {}
        for p, s in elements:
            if p == _FALSE:
                continue
            q = by_sub.get(s)
            by_sub[s] = p if q is None else self._apply(q, p, False)
        return self._intern_decision(
            vnode, tuple(sorted((p, s) for s, p in by_sub.items()))
        )

    # ------------------------------------------------------------------
    # boolean operations
    # ------------------------------------------------------------------
    def negate(self, u: int) -> int:
        if u == _FALSE:
            return _TRUE
        if u == _TRUE:
            return _FALSE
        neg = self._neg_cache
        got = neg.get(u)
        if got is not None:
            return got
        if self.node_kind[u] == "lit":
            res = self.literal(self.node_var[u], not self.node_sign[u])  # type: ignore[arg-type]
            neg[u] = res
            neg[res] = u
            return res
        # Negation rewrites *subs* only (primes are shared untouched), so
        # walk just the sub-closure of ``u``, pruned at already-negated
        # nodes, then sweep it in creation order: children are always
        # created before the decision nodes referencing them, so every
        # sub's negation is ready when its parent is processed — no
        # recursion over SDD depth.  Negation is injective and keeps the
        # primes, so the negated subs stay distinct and the elements stay
        # sorted: each node is interned as is, with no compression apply —
        # apply's one-sided case calls this from inside its kernel.
        node_kind, node_elements = self.node_kind, self.node_elements
        seen: set[int] = set()
        stack = [u]
        while stack:
            w = stack.pop()
            if w <= _TRUE or w in seen or w in neg:
                continue
            seen.add(w)
            if node_kind[w] == "dec":
                elems = node_elements[w]
                assert elems is not None
                for _p, s in elems:
                    stack.append(s)
        todo = sorted(seen, key=self.node_stamp.__getitem__)
        for w in todo:
            if w in neg:  # interned as another node's negation mid-sweep
                continue
            if node_kind[w] == "lit":
                res = self.literal(self.node_var[w], not self.node_sign[w])  # type: ignore[arg-type]
            else:
                elems = node_elements[w]
                assert elems is not None
                res = self._intern_decision(
                    self.node_vnode[w],
                    tuple((p, s ^ 1 if s <= _TRUE else neg[s]) for p, s in elems),
                )
            neg[w] = res
            neg[res] = w
        return neg[u]

    def apply(self, a: int, b: int, op: str) -> int:
        if op == "and":
            return self._apply(a, b, True)
        if op == "or":
            return self._apply(a, b, False)
        raise ValueError("op must be 'and' or 'or'")

    def _apply(self, a: int, b: int, is_and: bool) -> int:
        # Apply is commutative for both ops: order the pair so constants
        # (the smallest ids) surface as ``a`` and the cache key is unique.
        # Rotations and folds call this entry point far more often than
        # they miss, so a miss runs in :meth:`_apply_miss`.
        if a == b:
            return a
        if a > b:
            a, b = b, a
        if a == _FALSE:
            return _FALSE if is_and else b
        if a == _TRUE:
            return b if is_and else _TRUE
        kind = self.node_kind
        if kind[a] == "lit" and kind[b] == "lit" and self.node_var[a] == self.node_var[b]:
            # same variable, different sign (equal handled above)
            return _FALSE if is_and else _TRUE
        res = (self._and_cache if is_and else self._or_cache).get((a << 32) | b)
        if res is not None:
            return res
        return self._apply_miss(a, b, is_and)

    def _apply_miss(self, a: int, b: int, is_and: bool) -> int:
        """Apply on a true miss (``a < b``, both non-constant, not cached).

        The one apply kernel: every sub-apply that misses the cache becomes
        a frame on an explicit stack, so the Python stack stays O(1) at any
        vtree depth; the shallow checks of :meth:`_apply` are inlined for
        every sub-apply that hits.  A frame at the operands' lca ``v``
        issues its sub-applies in a fixed order — every element product
        first (the prime AND, then the sub op unless the prime is ⊥), then
        the ORs compressing primes with equal subs — and node ids, element
        tuples and hence WMC summation order follow from that order alone.

        In the one-sided case — exactly one operand ``n`` is not a decision
        at ``v`` and lies below ``v``'s left child — the frame skips the
        full product: the elements are ``(p ∧ n, s)`` for each element
        ``(p, s)`` of the other operand (``((⊤, o),)`` when that one is not
        a decision at ``v``), dropping ⊥ primes, then the ``tail``
        ``(¬n, ⊥)``; for OR ``(p ∧ ¬n, s)``, then ``(n, ⊤)``.  ``¬n`` comes
        from :meth:`negate`, which never applies, so no apply runs inside
        another.
        """
        kind, node_var = self.node_kind, self.node_var
        node_vnode, node_elements = self.node_vnode, self.node_elements
        v_lo, v_hi, v_left, v_parent = self.v_lo, self.v_hi, self.v_left, self.v_parent
        and_cache, or_cache, neg_cache = self._and_cache, self._or_cache, self._neg_cache
        intern = self._intern_decision
        # Suspended frames: (key, is_and, v, pairs, by_sub, merge, tail,
        # want, p, q), where ``want`` says what the child computes and p, q
        # carry what finishing its part needs.
        stack: list[tuple] = []
        while True:
            # Open the frame of (a, b, is_and).  lca walk: climb from a's
            # vtree node until the interval covers b's.
            va, vb = node_vnode[a], node_vnode[b]
            v = va
            lob, hib = v_lo[vb], v_hi[vb]
            while not (v_lo[v] <= lob and hib <= v_hi[v]):
                v = v_parent[v]
            # Element views at ``v``: a node below the right child becomes
            # ``(⊤, u)``.  A node ``n`` below the left child (at most one
            # can be) only restricts the primes of the other operand: its
            # product with the single element ``(n, ⊤)`` (AND) or
            # ``(¬n, ⊥)`` (OR) keeps every sub, and the ``tail`` ``(¬n, ⊥)``
            # or ``(n, ⊤)`` completes the partition.
            left_hi = v_hi[v_left[v]]  # type: ignore[index]
            a_dec = va == v and kind[a] == "dec"
            b_dec = vb == v and kind[b] == "dec"
            if not a_dec and v_hi[va] <= left_hi:
                n, o, o_dec = a, b, b_dec
            elif not b_dec and v_hi[vb] <= left_hi:
                n, o, o_dec = b, a, a_dec
            else:
                n = 0
            if n:
                nn = neg_cache.get(n)
                if nn is None:
                    nn = self.negate(n)
                ea = node_elements[o] if o_dec else ((_TRUE, o),)
                if is_and:
                    eb, tail = ((n, _TRUE),), (nn, _FALSE)
                else:
                    eb, tail = ((nn, _FALSE),), (n, _TRUE)
            else:
                ea = node_elements[a] if a_dec else ((_TRUE, a),)
                eb = node_elements[b] if b_dec else ((_TRUE, b),)
                tail = None
            key = (a << 32) | b
            cache = and_cache if is_and else or_cache
            pairs = product(ea, eb)  # type: ignore[arg-type]
            # Compression needs the ORs of primes sharing a sub only after
            # every product: ``by_sub`` holds each sub's first prime,
            # ``merge`` the later ones, last first (it is popped).
            by_sub: dict[int, int] = {}
            merge: list[tuple[int, int]] = []
            # Run the frame until a sub-apply misses (suspend it and open
            # the child) or it is done (resume its parent with the result).
            while True:
                for (pa, sa), (pb, sb) in pairs:
                    # p = pa ∧ pb
                    if pa == pb:
                        p = pa
                    else:
                        x, y = (pa, pb) if pa < pb else (pb, pa)
                        if x == _FALSE:
                            continue
                        if x == _TRUE:
                            p = y
                        elif kind[x] == "lit" and kind[y] == "lit" and node_var[x] == node_var[y]:
                            continue
                        else:
                            p = and_cache.get((x << 32) | y)
                            if p is None:
                                stack.append((key, is_and, v, pairs, by_sub, merge,
                                              tail, _WANT_PRIME, sa, sb))
                                a, b, is_and = x, y, True
                                break
                            if p == _FALSE:
                                continue
                    # s = sa ∘ sb
                    if sa == sb:
                        s = sa
                    else:
                        x, y = (sa, sb) if sa < sb else (sb, sa)
                        if x == _FALSE:
                            s = _FALSE if is_and else y
                        elif x == _TRUE:
                            s = y if is_and else _TRUE
                        elif kind[x] == "lit" and kind[y] == "lit" and node_var[x] == node_var[y]:
                            s = _FALSE if is_and else _TRUE
                        else:
                            s = cache.get((x << 32) | y)
                            if s is None:
                                stack.append((key, is_and, v, pairs, by_sub, merge,
                                              tail, _WANT_SUB, p, 0))
                                a, b = x, y
                                break
                    if s in by_sub:
                        merge.insert(0, (s, p))
                    else:
                        by_sub[s] = p
                else:
                    if tail is not None:
                        p, s = tail
                        tail = None
                        if s in by_sub:
                            merge.insert(0, (s, p))
                        else:
                            by_sub[s] = p
                    while merge:
                        s, p = merge.pop()
                        q = by_sub[s]
                        if q == p:
                            continue
                        x, y = (q, p) if q < p else (p, q)
                        if x == _FALSE:
                            r = y
                        elif x == _TRUE:
                            r = _TRUE
                        elif kind[x] == "lit" and kind[y] == "lit" and node_var[x] == node_var[y]:
                            r = _TRUE
                        else:
                            r = or_cache.get((x << 32) | y)
                            if r is None:
                                stack.append((key, is_and, v, pairs, by_sub, merge,
                                              tail, _WANT_MERGE, s, 0))
                                a, b, is_and = x, y, False
                                break
                        by_sub[s] = r
                    else:
                        if len(by_sub) == 2:
                            # Primes are disjoint, so ordering by prime is the sort.
                            (s1, p1), (s2, p2) = by_sub.items()
                            elems = ((p1, s1), (p2, s2)) if p1 < p2 else ((p2, s2), (p1, s1))
                        else:
                            elems = tuple(sorted(zip(by_sub.values(), by_sub)))
                        res = intern(v, elems)
                        cache[key] = res
                        if not stack:
                            return res
                        (key, is_and, v, pairs, by_sub, merge,
                         tail, want, p, q) = stack.pop()
                        cache = and_cache if is_and else or_cache
                        # Finish what the child was part of as the loops
                        # above would have.  (Re-entering the product loop
                        # with the child's product chained in front of
                        # ``pairs`` cost about 10% on lineage compiles.)
                        if want == _WANT_SUB:  # p is the product's prime
                            s = res
                        elif want == _WANT_MERGE:  # p is the merged sub
                            by_sub[p] = res
                            continue
                        else:  # res is the prime of the product of subs p, q
                            if res == _FALSE:
                                continue
                            x, y = (p, q) if p < q else (q, p)
                            p = res
                            if x == y:
                                s = x
                            elif x == _FALSE:
                                s = _FALSE if is_and else y
                            elif x == _TRUE:
                                s = y if is_and else _TRUE
                            elif kind[x] == "lit" and kind[y] == "lit" and node_var[x] == node_var[y]:
                                s = _FALSE if is_and else _TRUE
                            else:
                                s = cache.get((x << 32) | y)
                                if s is None:
                                    stack.append((key, is_and, v, pairs, by_sub, merge,
                                                  tail, _WANT_SUB, p, 0))
                                    a, b = x, y
                                    break
                        if s in by_sub:
                            merge.insert(0, (s, p))
                        else:
                            by_sub[s] = p
                        continue
                break

    def _reduce(self, items: list[int], is_and: bool, *, deadline=None) -> int:
        """Balanced pairwise fold — on k operands whose supports form a
        chain this costs O(total size · log k) instead of the O(total
        size · k) a left-to-right fold pays (each sequential step
        re-applies across the whole accumulated support).

        ``deadline`` is a :class:`~repro.service.errors.Deadline`-like
        token checked before every pairwise apply, so cancellation stays
        cooperative even when chain absorption folds a whole circuit into
        one reduce call.  A :meth:`compile_circuit` ``node_budget`` needs
        no check here: it binds at every new node allocation."""
        if not items:
            return _TRUE if is_and else _FALSE
        ap = self._apply
        while len(items) > 1:
            nxt = []
            for i in range(0, len(items) - 1, 2):
                if deadline is not None:
                    deadline.check("apply compilation")
                nxt.append(ap(items[i], items[i + 1], is_and))
            if len(items) % 2:
                nxt.append(items[-1])
            items = nxt
        return items[0]

    def conjoin(self, *nodes: int) -> int:
        return self._reduce(list(nodes), True)

    def disjoin(self, *nodes: int) -> int:
        return self._reduce(list(nodes), False)

    def condition(self, u: int, assignment: Mapping[str, int]) -> int:
        """Condition on a partial assignment (literal substitution)."""
        out = u
        for var, val in assignment.items():
            out = self._apply(out, self.literal(var, bool(val)), True)
            out = self._forget_var(out, var)
        return out

    def _forget_var(self, u: int, var: str) -> int:
        """Existentially quantify one variable."""
        pos = self._restrict(u, var, True)
        neg = self._restrict(u, var, False)
        return self._apply(pos, neg, False)

    def _restrict(self, u: int, var: str, value: bool) -> int:
        if u <= _TRUE:
            return u
        leaf = self.leaf_of_var[var]
        contains = self._contains
        node_kind, node_elements = self.node_kind, self.node_elements
        # Walk only the affected cone: descend exactly where the vtree
        # node contains the restricted leaf — everything outside maps to
        # itself and its descendants are never visited.
        seen: set[int] = set()
        stack = [u]
        while stack:
            w = stack.pop()
            if w <= _TRUE or w in seen:
                continue
            seen.add(w)
            if node_kind[w] == "dec" and contains(self.node_vnode[w], leaf):
                elems = node_elements[w]
                assert elems is not None
                for p, s in elems:
                    stack.append(p)
                    stack.append(s)
        out: dict[int, int] = {}
        for w in sorted(seen, key=self.node_stamp.__getitem__):
            if node_kind[w] == "lit":
                if self.node_var[w] == var:
                    out[w] = _TRUE if (self.node_sign[w] == value) else _FALSE
                else:
                    out[w] = w
            else:
                vn = self.node_vnode[w]
                if not contains(vn, leaf):
                    out[w] = w
                else:
                    elems = node_elements[w]
                    assert elems is not None
                    out[w] = self._decision(
                        vn,
                        [
                            (p if p <= _TRUE else out[p], s if s <= _TRUE else out[s])
                            for p, s in elems
                        ],
                    )
        return out[u]

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile_circuit(
        self, circuit: Circuit, *, node_budget: int | None = None, deadline=None
    ) -> int:
        """Bottom-up apply compilation of ``circuit``.

        Chains of same-kind AND/OR gates whose intermediate results feed
        only the next link are flattened and folded balanced: the
        gate-by-gate fold on an n-gate OR chain re-applies across the
        accumulated support every step (Θ(n²) manager nodes on
        ``chain_and_or``); the balanced fold costs O(n log n).

        ``node_budget`` caps the number of live manager nodes: it is
        checked at every new node allocation, so the compile raises
        :class:`CompilationBudgetExceeded` in the middle of the apply that
        would cross it, with at most ``node_budget`` nodes live.
        ``deadline`` is a :class:`~repro.service.errors.Deadline`-like
        token whose ``check()`` raises
        :class:`~repro.service.errors.DeadlineExceeded`; it is consulted
        per gate and per pairwise apply inside folded chains, making
        wall-clock cancellation cooperative and the cancellation points
        deterministic.
        """
        if circuit.output is None:
            raise ValueError("circuit has no output")
        gates = circuit.gates
        order = circuit.topological_order()
        # A gate is absorbed into its consumer when it is a same-kind
        # AND/OR gate feeding exactly one gate — its operands are folded
        # at the consumer and its own intermediate SDD is never built.
        fanout = [0] * len(gates)
        consumer_kind: list[str | None] = [None] * len(gates)
        for gate in gates:
            for i in gate.inputs:
                fanout[i] += 1
                consumer_kind[i] = gate.kind
        fanout[circuit.output] += 1
        absorbed = [
            gate.kind in (AND, OR)
            and fanout[gid] == 1
            and consumer_kind[gid] == gate.kind
            for gid, gate in enumerate(gates)
        ]
        absorbed[circuit.output] = False
        vals: dict[int, int] = {}
        saved = self._node_budget
        self._node_budget = node_budget
        try:
            for gid in order:
                if absorbed[gid]:
                    continue
                if deadline is not None:
                    deadline.check("apply compilation")
                gate = gates[gid]
                if gate.kind == VAR:
                    vals[gid] = self.literal(gate.payload, True)  # type: ignore[arg-type]
                elif gate.kind == CONST:
                    vals[gid] = _TRUE if gate.payload else _FALSE
                elif gate.kind == NOT:
                    vals[gid] = self.negate(vals[gate.inputs[0]])
                else:
                    ops: list[int] = []
                    stack = list(reversed(gate.inputs))
                    while stack:
                        i = stack.pop()
                        if absorbed[i]:
                            stack.extend(reversed(gates[i].inputs))
                        else:
                            ops.append(vals[i])
                    vals[gid] = self._reduce(ops, gate.kind == AND, deadline=deadline)
        finally:
            self._node_budget = saved
        return vals[circuit.output]

    def compile_nnf(self, root: NNF) -> int:
        memo: dict[int, int] = {}
        for node in root.nodes():
            if node.kind == "true":
                val = _TRUE
            elif node.kind == "false":
                val = _FALSE
            elif node.kind == "lit":
                val = self.literal(node.var, bool(node.sign))  # type: ignore[arg-type]
            elif node.kind == "and":
                val = self.conjoin(*[memo[id(c)] for c in node.children])
            else:
                val = self.disjoin(*[memo[id(c)] for c in node.children])
            memo[id(node)] = val
        return memo[id(root)]

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def pin(self, root: int) -> int:
        """Protect ``root`` (and everything reachable from it) from
        :meth:`gc`.  Pins are counted: ``pin`` twice, ``release`` twice.
        Returns ``root`` for call-chaining convenience.

        Pin a root *before* any collection can run: node ids are bare
        ints whose slots are recycled after collection, so holding an
        unpinned id across a :meth:`gc` is undefined — this guard raises
        only while the slot is still free; once a later allocation reuses
        it, the id silently names a different node.  (The managed paths —
        ``QueryEngine``, the apply backend — always pin at compile time.)
        """
        if root > _TRUE:
            if self.node_kind[root] == "free":
                raise ValueError(f"cannot pin collected node {root}")
            self._pins[root] = self._pins.get(root, 0) + 1
        return root

    def release(self, root: int) -> None:
        """Drop one pin from ``root``; at zero pins the root becomes
        collectable by the next :meth:`gc`."""
        if root <= _TRUE:
            return
        count = self._pins.get(root)
        if count is None:
            raise ValueError(f"node {root} is not pinned")
        if count == 1:
            del self._pins[root]
        else:
            self._pins[root] = count - 1

    def pinned_roots(self) -> tuple[int, ...]:
        return tuple(self._pins)

    def register_wmc_cache(self, cache) -> None:
        """Register an object with an ``evict(dead_ids)`` method (e.g. an
        :class:`~repro.sdd.wmc.SddWmcEvaluator`) to be notified when node
        ids die; held weakly."""
        self._wmc_caches.add(cache)

    def _live_set(self) -> set[int]:
        """Constants, literals, pinned roots, and everything they reach."""
        live = {_FALSE, _TRUE}
        stack = [r for r in self._pins if r > _TRUE]
        stack.extend(self._lit_table.values())
        node_kind, node_elements = self.node_kind, self.node_elements
        while stack:
            w = stack.pop()
            if w in live:
                continue
            live.add(w)
            if node_kind[w] == "dec":
                elems = node_elements[w]
                assert elems is not None
                for p, s in elems:
                    if p not in live:
                        stack.append(p)
                    if s not in live:
                        stack.append(s)
        return live

    def gc(self) -> dict[str, int]:
        """Collect every decision node unreachable from the pinned roots.

        Constants and literals are permanent; everything else that no
        pinned root reaches is swept, however recently it was built.

        Freed ids go to a free list and are reused by later allocations;
        every cache keyed by node id (apply/negation caches here, the memos
        of registered WMC evaluators) is evicted in the same pass, so id
        reuse can never resurrect a stale cache entry.  *Caller-held* ids
        are not versioned, though: an unpinned id kept across a collection
        is a dangling handle — see :meth:`pin`.

        Returns the collection's counters.
        """
        node_kind = self.node_kind
        live = self._live_set()
        # Iterate the unique table, not the id range: every live decision
        # is interned, so this is O(live) — the minimization driver
        # collects after every move and must not pay O(capacity) each time.
        dead = [w for w in self._dec_table.values() if w not in live]
        dead_set = set(dead)
        for w in dead:
            elems = self.node_elements[w]
            assert elems is not None
            key = (self.node_vnode[w], elems)
            del self._dec_table[key]
            self._vnode_members[self.node_vnode[w]].discard(w)
            self._total_elements -= len(elems)
            node_kind[w] = "free"
            self.node_vnode[w] = -1
            self.node_elements[w] = None
        self._free_ids.extend(dead)
        if dead_set:
            self._evict_apply_caches(dead_set)
            for cache in tuple(self._wmc_caches):
                cache.evict(dead_set)
        self._gc_runs += 1
        self._collected_total += len(dead)
        return {
            "collected": len(dead),
            "live": self.live_node_count,
            "free": len(self._free_ids),
        }

    def _evict_apply_caches(self, dead: set[int]) -> None:
        mask = (1 << 32) - 1
        for cache in (self._and_cache, self._or_cache):
            stale = [
                k
                for k, v in cache.items()
                if v in dead or (k >> 32) in dead or (k & mask) in dead
            ]
            for k in stale:
                del cache[k]
        neg = self._neg_cache
        stale_neg = [k for k, v in neg.items() if k in dead or v in dead]
        for k in stale_neg:
            neg.pop(k, None)

    # ------------------------------------------------------------------
    # dynamic vtree minimization: in-place rotations and child swap
    # ------------------------------------------------------------------
    #
    # The three local moves rewrite the *live* vtree tables and
    # re-normalize only the SDD nodes whose vtree node changed partition:
    #
    # - ``rotate_right(v)``: ``(a b) c -> a (b c)`` — nodes at ``v`` and at
    #   its old left child re-partition;
    # - ``rotate_left(v)``:  ``a (b c) -> (a b) c`` — nodes at ``v`` and at
    #   its old right child re-partition;
    # - ``swap(v)``: children exchanged — nodes at ``v`` re-partition.
    #
    # Everything normalized *outside* those vtree nodes keeps its id,
    # structure, and cached values: subtrees ``a``/``b``/``c`` are moved
    # wholesale, so their canonical nodes stay canonical, and vtree-node
    # *indices* are reused across the move (the rotated child keeps its
    # index with a new variable interval) so ``node_vnode`` never needs a
    # global rewrite.  Each move returns the old→new id mapping of the
    # re-normalized nodes; pins travel with the mapping, parents
    # referencing a remapped node are rewritten through the unique table,
    # and the apply/negation caches plus registered WMC memos are evicted
    # for the retired ids — the same coherence contract as :meth:`gc`.
    #
    # Re-normalization is *structure-directed*, never a generic apply over
    # the fragment: one bucket re-interns verbatim at its new vtree node
    # (a rotation leaves its element tuples well-formed under the new
    # partition), and the other is rebuilt from its elements' own
    # decompositions, so the only ``apply`` calls issued are confined to
    # the child scopes — this is what makes a move orders of magnitude
    # cheaper than recompiling, even near the root.

    def rotate_right(self, v: int) -> dict[int, int] | None:
        """In-place right rotation at vtree node index ``v``:
        ``(a b) c -> a (b c)``.  Returns the old→new id mapping of the
        re-normalized SDD nodes (``{}`` when none moved), or ``None`` when
        the move does not apply (``v`` or its left child is a leaf)."""
        y = self.v_left[v]
        if y is None or self.v_left[y] is None:
            return None
        a, b = self.v_left[y], self.v_right[y]
        c = self.v_right[v]
        assert a is not None and b is not None and c is not None
        bucket_x = self._affected((v,))
        bucket_y = self._affected((y,))
        self.v_left[v], self.v_right[v] = a, y
        self.v_left[y], self.v_right[y] = b, c
        self.v_parent[a] = v
        self.v_parent[b] = y
        self.v_parent[c] = y
        lo, hi = self.v_lo[b], self.v_hi[c]
        self.v_interval[y] = (lo, hi)
        self.v_lo[y], self.v_hi[y] = lo, hi
        self.v_nvars[y] = self.v_nvars[b] + self.v_nvars[c]
        self._rebuild_vtree_objects(y)
        self._refresh_wmc_vtrees()
        self._moves_applied += 1
        mapping: dict[int, int] = {}
        # Old y-nodes (primes over a, subs over b) re-intern verbatim at
        # x' = (a, (b c)): their primes still partition the left scope and
        # their subs fit the wider right scope.
        for u in bucket_y:
            elems = self.node_elements[u]
            assert elems is not None
            mapping[u] = self._intern_decision(v, elems)
        # Old x-nodes (primes over a∪b, subs over c): refine the a-space
        # by the primes' own (a, b)-decompositions, and build each refined
        # region's sub directly as a (b, c)-decision — within a region,
        # the b-parts inherit the primes' disjointness and exhaustiveness.
        for u in bucket_x:
            elems = self.node_elements[u]
            assert elems is not None
            regions: list[tuple[int, list[tuple[int, int]]]] = [(_TRUE, [])]
            for p, s in elems:
                pairs = self._split_pairs(p, a, b, y)
                out = []
                for q, lst in regions:
                    for aj, bj in pairs:
                        if aj == _FALSE:
                            continue
                        q2 = self._apply(q, aj, True)
                        if q2 == _FALSE:
                            continue
                        out.append((q2, lst + [(bj, s)]))
                regions = out
            new_elems = []
            for q, lst in regions:
                sub = self._decision(y, [(bj, s) for bj, s in lst])
                new_elems.append((q, sub))
            mapping[u] = self._decision(v, new_elems)
        return self._finalize_move(v, mapping)

    def rotate_left(self, v: int) -> dict[int, int] | None:
        """In-place left rotation at vtree node index ``v``:
        ``a (b c) -> (a b) c`` (the inverse of :meth:`rotate_right`)."""
        y = self.v_right[v]
        if y is None or self.v_left[y] is None:
            return None
        a = self.v_left[v]
        b, c = self.v_left[y], self.v_right[y]
        assert a is not None and b is not None and c is not None
        bucket_x = self._affected((v,))
        bucket_y = self._affected((y,))
        self.v_left[v], self.v_right[v] = y, c
        self.v_left[y], self.v_right[y] = a, b
        self.v_parent[a] = y
        self.v_parent[b] = y
        self.v_parent[c] = v
        lo, hi = self.v_lo[a], self.v_hi[b]
        self.v_interval[y] = (lo, hi)
        self.v_lo[y], self.v_hi[y] = lo, hi
        self.v_nvars[y] = self.v_nvars[a] + self.v_nvars[b]
        self._rebuild_vtree_objects(y)
        self._refresh_wmc_vtrees()
        self._moves_applied += 1
        mapping: dict[int, int] = {}
        # Old y-nodes (primes over b, subs over c) re-intern verbatim at
        # x' = ((a b), c): b-primes partition the wider left scope too.
        for u in bucket_y:
            elems = self.node_elements[u]
            assert elems is not None
            mapping[u] = self._intern_decision(v, elems)
        # Old x-nodes (primes over a, subs over b∪c): decompose each sub
        # into (b, c) pairs; the new primes are the disjoint-scope
        # conjunctions p ∧ b_j, built directly as (a, b)-decisions.
        for u in bucket_x:
            elems = self.node_elements[u]
            assert elems is not None
            new_elems = []
            for p, s in elems:
                for bj, cj in self._split_pairs(s, b, c, y):
                    if bj == _FALSE:
                        continue
                    prime = self._conjoin_disjoint(y, p, bj)
                    if prime == _FALSE:
                        continue
                    new_elems.append((prime, cj))
            mapping[u] = self._decision(v, new_elems)
        return self._finalize_move(v, mapping)

    def swap(self, v: int) -> dict[int, int] | None:
        """In-place child swap at vtree node index ``v`` (its own inverse).

        Unlike the rotations this changes the left-to-right leaf order, so
        the variable *intervals* of both child subtrees shift (whole
        blocks, no SDD nodes inside them are touched); only the nodes
        normalized at ``v`` itself re-partition."""
        l = self.v_left[v]
        if l is None:
            return None
        r = self.v_right[v]
        assert r is not None
        affected = self._affected((v,))
        self.v_left[v], self.v_right[v] = r, l
        # l occupied [L0, L1), r occupied [L1, R1); afterwards r sits at
        # [L0, L0 + |r|) and l at [L0 + |r|, R1).
        l1 = self.v_hi[l]
        delta_l = self.v_hi[r] - l1
        delta_r = self.v_lo[l] - l1
        for sub, delta in ((l, delta_l), (r, delta_r)):
            if delta == 0:
                continue
            stack = [sub]
            while stack:
                i = stack.pop()
                self.v_interval[i] = (self.v_lo[i] + delta, self.v_hi[i] + delta)
                self.v_lo[i], self.v_hi[i] = self.v_interval[i]
                li, ri = self.v_left[i], self.v_right[i]
                if li is not None:
                    assert ri is not None
                    stack.append(li)
                    stack.append(ri)
        self._rebuild_vtree_objects(v)
        # No WMC refresh: every vtree node keeps its variable *set* (only
        # the order changed), so subtree products and gap paths hold.
        self._moves_applied += 1
        mapping: dict[int, int] = {}
        # Partition inversion by expansion: refine the new prime space (the
        # old subs' scope) with each element's sub and its negation,
        # accumulating the old primes on the other side.  All applies stay
        # within the two child scopes.
        for u in affected:
            elems = self.node_elements[u]
            assert elems is not None
            regions: list[tuple[int, int]] = [(_TRUE, _FALSE)]
            for p, s in elems:
                ns = self.negate(s)
                out = []
                for q, t in regions:
                    q1 = self._apply(q, s, True)
                    if q1 != _FALSE:
                        out.append((q1, self._apply(t, p, False)))
                    q2 = self._apply(q, ns, True)
                    if q2 != _FALSE:
                        out.append((q2, t))
                regions = out
            mapping[u] = self._decision(v, regions)
        return self._finalize_move(v, mapping)

    def _affected(self, vnodes: tuple[int, ...]) -> list[int]:
        """The decision nodes normalized at ``vnodes``, oldest first
        (stamp order is topological, so re-normalizing in this order sees
        every referenced node already mapped)."""
        out: list[int] = []
        for i in vnodes:
            out.extend(self._vnode_members[i])
        out.sort(key=self.node_stamp.__getitem__)
        return out

    def _rebuild_vtree_objects(self, start: int) -> None:
        """Recreate the immutable :class:`Vtree` objects for ``start`` and
        its ancestors after an index-table rewiring (children changed), so
        ``v_nodes``/``v_index``/``self.vtree`` stay consistent with the
        tables.  Uses the trusted constructor: disjointness is invariant
        under reassociation of an already-validated tree."""
        i: int | None = start
        while i is not None:
            old = self.v_nodes[i]
            li, ri = self.v_left[i], self.v_right[i]
            assert li is not None and ri is not None
            new = Vtree.internal_trusted(self.v_nodes[li], self.v_nodes[ri])
            del self.v_index[id(old)]
            self.v_nodes[i] = new
            self.v_index[id(new)] = i
            i = self.v_parent[i]
        self.vtree = self.v_nodes[self.v_root]

    def _refresh_wmc_vtrees(self) -> None:
        for cache in tuple(self._wmc_caches):
            refresh = getattr(cache, "refresh_vtree", None)
            if refresh is not None:
                refresh()

    def _split_pairs(
        self, u: int, li: int, ri: int, at_idx: int
    ) -> tuple[tuple[int, int], ...]:
        """Decompose ``u`` (scope within the subtrees of ``li``/``ri``)
        into ``(left_part, right_part)`` pairs whose left parts partition
        the ``li`` scope.  ``at_idx`` is the internal vtree index the pair
        ``(li, ri)`` hung under *before* the rewiring; nodes normalized
        there decompose by their own (still-present) element tuples, so no
        apply is ever needed."""
        if u <= _TRUE:
            return ((_TRUE, u),)
        vu = self.node_vnode[u]
        if vu == at_idx and self.node_kind[u] == "dec":
            elems = self.node_elements[u]
            assert elems is not None
            return elems
        lo, hi = self.v_lo[vu], self.v_hi[vu]
        if self.v_lo[li] <= lo and hi <= self.v_hi[li]:
            return ((u, _TRUE), (self.negate(u), _FALSE))
        if self.v_lo[ri] <= lo and hi <= self.v_hi[ri]:
            return ((_TRUE, u),)
        raise AssertionError("node does not fit the split being rotated")

    def _conjoin_disjoint(self, vnode: int, p: int, bj: int) -> int:
        """``p ∧ bj`` for nodes with scopes under ``vnode``'s (new) left
        and right child respectively — built as a decision directly, no
        apply descent."""
        if p == _TRUE:
            return bj
        if bj == _TRUE:
            return p
        if p == _FALSE or bj == _FALSE:
            return _FALSE
        return self._intern_decision(
            vnode, tuple(sorted([(p, bj), (self.negate(p), _FALSE)]))
        )

    def _finalize_move(self, v: int, mapping: dict[int, int]) -> dict[int, int]:
        """Retire the re-normalized nodes coherently: re-anchor referers,
        transfer pins, free the stale ids, and evict every cache that
        could resurrect them."""
        # Defensive transitive closure: a mapping target that is itself a
        # re-normalized (stale) id would dangle once retired.  Canonicity
        # makes real chains impossible — two distinct live nodes never
        # denote the same function under one vtree — but resolving them is
        # cheap and turns a latent corruption into dead code.
        for u in mapping:
            m = mapping[u]
            seen = {u}
            while m in mapping and mapping[m] != m and m not in seen:
                seen.add(m)
                m = mapping[m]
            mapping[u] = m
        remapped = {u: m for u, m in mapping.items() if m != u}
        if not remapped:
            return remapped
        self._rewrite_referers(v, remapped)
        for old, new in remapped.items():
            count = self._pins.pop(old, 0)
            if count and new > _TRUE:
                self._pins[new] = self._pins.get(new, 0) + count
        dead = set(remapped)
        for u in remapped:
            elems = self.node_elements[u]
            assert elems is not None
            vn = self.node_vnode[u]
            key = (vn, elems)
            if self._dec_table.get(key) == u:
                del self._dec_table[key]
            self._vnode_members[vn].discard(u)
            self._total_elements -= len(elems)
            self.node_kind[u] = "free"
            self.node_vnode[u] = -1
            self.node_elements[u] = None
        self._free_ids.extend(remapped)
        # Op-cache entries created *during* the move only involve nodes
        # that survive it (the transforms' applies never span a
        # re-partitioned scope), but pre-move entries may name the ids
        # just freed; dropping the caches wholesale is O(1), scanning them
        # per move would be O(cache) — quadratic over a sift.  The WMC
        # memos persist across moves and drop exactly the retired ids.
        self._and_cache.clear()
        self._or_cache.clear()
        self._neg_cache.clear()
        for cache in tuple(self._wmc_caches):
            cache.evict(dead)
        return remapped

    def _rewrite_referers(self, v: int, remapped: dict[int, int]) -> None:
        """Point every decision element at a remapped node to its new id.

        A referencing node's vtree node strictly contains the fragment, so
        only the buckets along ``v``'s ancestor path are scanned — this is
        what keeps a move local.  Rewriting is structural: the referer
        keeps its id, function and vtree node; its element tuple (and
        hence its unique-table key) changes — and because the new element
        ids can be *younger* than the referer, every touched node is
        re-stamped (cascading up the path) to keep creation-stamp order
        topological, the invariant all the linear sweeps sort by."""
        # Seed with the replacement ids: anything now referencing them
        # must become younger than they are.
        restamped = set(remapped.values())
        w = self.v_parent[v]
        while w is not None:
            for pi in self._vnode_members[w]:
                elems = self.node_elements[pi]
                assert elems is not None
                rewrite = any(p in remapped or s in remapped for p, s in elems)
                if not rewrite and not any(
                    p in restamped or s in restamped for p, s in elems
                ):
                    continue
                if rewrite:
                    new_elems = tuple(sorted(
                        (remapped.get(p, p), remapped.get(s, s)) for p, s in elems
                    ))
                    del self._dec_table[(w, elems)]
                    assert (w, new_elems) not in self._dec_table, (
                        "unique-table collision while re-anchoring a referer"
                    )
                    self._dec_table[(w, new_elems)] = pi
                    self.node_elements[pi] = new_elems
                self.node_stamp[pi] = self._next_stamp
                self._next_stamp += 1
                restamped.add(pi)
            w = self.v_parent[w]

    # ------------------------------------------------------------------
    # minimization search driver
    # ------------------------------------------------------------------
    def vtree_postorder(self) -> list[int]:
        """Current vtree node indices, children before parents.  Index
        order itself stops being topological once in-place rotations have
        run — sweeps over vtree indices must use this instead."""
        out: list[int] = []
        stack: list[tuple[int, bool]] = [(self.v_root, False)]
        while stack:
            i, expanded = stack.pop()
            if expanded or self.v_left[i] is None:
                out.append(i)
            else:
                right = self.v_right[i]
                left = self.v_left[i]
                assert left is not None and right is not None
                stack.append((i, True))
                stack.append((right, False))
                stack.append((left, False))
        return out

    # Consecutive non-improving rotation steps tolerated before a sift
    # walk gives up on its current direction.
    _SIFT_STALL = 4
    # Nodes whose element bucket exceeds this fraction of the live SDD
    # (with an absolute floor for small managers) are not sifted.
    _SIFT_FAT_FRAC = 0.25
    _SIFT_FAT_FLOOR = 48

    # What a vtree move, and the collection after it, can change: a sift
    # snapshot copies these so it can return to a shape it has seen
    # without re-normalizing back to it.
    _MOVE_STATE = (
        "v_nodes", "v_index", "v_parent", "v_left", "v_right", "v_interval",
        "v_lo", "v_hi", "v_nvars", "node_kind", "node_vnode", "node_var",
        "node_sign", "node_elements", "node_stamp", "_lit_table", "_dec_table",
        "_free_ids", "_pins",
    )

    def _snapshot(self) -> dict:
        state = {name: getattr(self, name).copy() for name in self._MOVE_STATE}
        state["_vnode_members"] = [set(b) for b in self._vnode_members]
        state["_total_elements"] = self._total_elements
        state["vtree"] = self.vtree
        state["stamp"] = self._next_stamp
        return state

    def _restore(self, state: dict) -> None:
        """Return to a :meth:`_snapshot` (reusable: it is copied in).  Ids
        live then mean what they meant then; every id stamped since may
        now name another node or none, so the caches forget those."""
        since = state["stamp"]
        kind, stamp = self.node_kind, self.node_stamp
        stale = {u for u in range(2, len(kind)) if stamp[u] >= since and kind[u] != "free"}
        for name in self._MOVE_STATE:
            setattr(self, name, state[name].copy())
        self._vnode_members = [set(b) for b in state["_vnode_members"]]
        self._total_elements = state["_total_elements"]
        self.vtree = state["vtree"]
        self._and_cache.clear()
        self._or_cache.clear()
        self._neg_cache.clear()
        for cache in tuple(self._wmc_caches):
            cache.evict(stale)
        self._refresh_wmc_vtrees()

    def _move(self, name: str, v: int) -> dict[int, int] | None:
        if name == "rotate-left":
            return self.rotate_left(v)
        if name == "rotate-right":
            return self.rotate_right(v)
        if name == "swap":
            return self.swap(v)
        raise ValueError(f"unknown vtree move {name!r}")


    def minimize(
        self,
        *,
        budget: int | None = None,
        max_growth: float = 1.5,
        rounds: int = 2,
        target_size: int | None = None,
    ) -> dict[int, int]:
        """Sifting-style dynamic vtree search over the live SDD.

        Walks the internal vtree nodes (thinnest element buckets first —
        cheap moves carry most of the improvement; buckets holding a
        large share of the SDD are skipped outright, a move there costs
        about a recompile) and
        *sifts* each one: rotates as far right as the tree allows, then as
        far left, measuring the pinned SDD size after every move, and
        settles on the best position seen; a child swap is then kept iff
        it improves further.  Moves whose size exceeds ``max_growth ×``
        the node's starting size cut the walk short and are undone —
        exploration may pass through worse shapes, but never runs away.

        The optimization objective is the footprint of the *pinned*
        roots: the driver collects after every move (O(live) — the
        incremental size counter then *is* the pinned footprint), so
        anything unpinned is garbage to it.  Pin what you care about
        first; :class:`~repro.compiler.strategies.DynamicStrategy` does.

        ``budget`` caps the number of exploration moves (returning to the
        best shape restores a snapshot and costs no move, so the search
        never strands the tree in a worse position).  ``rounds`` bounds
        the number of full passes; the search stops early at a fixpoint.
        ``target_size`` makes the search *anytime*: it returns as soon as
        the pinned size reaches the target (used to measure time-to-quality
        against the recompile-per-neighbor baseline,
        :func:`repro.core.vtree_search.minimize_vtree`).

        Returns the composed old→new id mapping over every move applied —
        callers holding node ids (including ids pinned on their behalf)
        must re-anchor through it, e.g. ``root = m.get(root, root)``.
        """
        if rounds < 1:
            raise ValueError("rounds must be positive")
        if max_growth < 1.0:
            raise ValueError("max_growth must be >= 1.0")
        composed: dict[int, int] = {}
        moves = 0

        def apply_move(name: str, v: int) -> bool:
            nonlocal moves
            before = self.live_node_count
            m = self._move(name, v)
            if m is None:
                return False
            moves += 1
            for k in composed:
                composed[k] = m.get(composed[k], composed[k])
            for k, val in m.items():
                if k not in composed:
                    composed[k] = val
            # Collect immediately: leftover re-normalization garbage would
            # otherwise swell the vnode buckets and every later move would
            # re-normalize it again (quadratic over a sift walk).  With the
            # op caches reset by the move itself this is O(live); a move
            # that allocated and retired nothing made no garbage either.
            if m or self.live_node_count != before:
                self.gc()
            return True

        def can_explore() -> bool:
            return budget is None or moves < budget

        def save():
            return self._snapshot(), dict(composed)

        def restore(snap) -> None:
            state, then = snap
            self._restore(state)
            composed.clear()
            composed.update(then)

        self.gc()
        size = self._total_elements
        if target_size is not None and size <= target_size:
            return composed
        for _ in range(rounds):
            round_start = size
            order = [
                i for i in range(len(self.v_nodes)) if self.v_left[i] is not None
            ]
            # Thinnest element buckets first: their moves are cheapest
            # (re-normalization cost is the bucket size) and empirically
            # carry most of the improvement — high-width shapes keep their
            # fat near the root, where a move approaches a recompile and
            # rarely pays.  Cheap wins land first, making the search a
            # good anytime algorithm.
            order.sort(
                key=lambda i: sum(
                    len(self.node_elements[u] or ())
                    for u in self._vnode_members[i]
                )
            )
            for v in order:
                if not can_explore():
                    break
                bucket = sum(
                    len(self.node_elements[u] or ())
                    for u in self._vnode_members[v]
                )
                # A bucket holding a large share of the whole SDD makes
                # every move there cost about a recompile (the exact
                # thing in-manager search exists to avoid) and such moves
                # essentially never pay; leave those nodes alone.
                if bucket > max(self._SIFT_FAT_FLOOR, self._SIFT_FAT_FRAC * size):
                    continue
                size = self._sift_node(
                    v, size, can_explore, apply_move, save, restore, max_growth,
                    target_size,
                )
                if target_size is not None and size <= target_size:
                    self._minimize_runs += 1
                    return composed
            self._minimize_runs += 1
            if size >= round_start or not can_explore():
                break
        return composed

    def _sift_node(
        self, v, size, can_explore, apply_move, save, restore, max_growth, target=None
    ):
        """Sift one vtree node through its rotation positions (then try a
        swap) and settle on the smallest shape seen.  Returns the pinned
        size at the settled shape.  With an anytime ``target``, stops *in
        place* the moment any explored shape reaches it.

        The walk returns to its start, and settles on the best shape, by
        restoring snapshots (``save``/``restore``) rather than by rotating
        back: a rollback move would re-normalize exactly what the forward
        walk had already built once."""
        base = size
        start = best = save()
        best_size = size
        at = start  # the snapshot the current shape equals, if any
        for name in ("rotate-right", "rotate-left"):
            if at is not start:
                restore(start)
                at = start
            stalled = 0
            while can_explore() and apply_move(name, v):
                at = None
                size = self._total_elements
                if target is not None and size <= target:
                    return size
                if size < best_size:
                    best_size, best = size, save()
                    at = best
                    stalled = 0
                else:
                    stalled += 1
                # Two stop rules, both standard sifting practice: hard
                # growth cap, and bail after a non-improving streak (the
                # tail of a long walk almost never recovers within the
                # growth bound, but costs a re-normalization per step).
                if size > max_growth * base or stalled >= self._SIFT_STALL:
                    break
        if at is not best:
            restore(best)
        size = self._total_elements
        if can_explore() and apply_move("swap", v):
            swapped = self._total_elements
            if swapped < size or (target is not None and swapped <= target):
                size = swapped
            else:
                restore(best)
        return size

    def check_unique_table(self) -> None:
        """Verify unique-table canonicity after moves/rollbacks: every live
        decision is interned under exactly its ``(vnode, elements)`` key,
        no duplicates, and the incremental size/membership counters agree
        with the tables.  Test/debug aid; O(live nodes)."""
        decisions = [
            u for u in range(2, len(self.node_kind)) if self.node_kind[u] == "dec"
        ]
        if len(self._dec_table) != len(decisions):
            raise AssertionError(
                f"unique table has {len(self._dec_table)} entries for "
                f"{len(decisions)} live decisions"
            )
        total = 0
        for u in decisions:
            elems = self.node_elements[u]
            assert elems is not None
            if self._dec_table.get((self.node_vnode[u], elems)) != u:
                raise AssertionError(f"decision {u} not interned under its key")
            if u not in self._vnode_members[self.node_vnode[u]]:
                raise AssertionError(f"decision {u} missing from its vnode bucket")
            total += len(elems)
        if total != self._total_elements:
            raise AssertionError(
                f"incremental size {self._total_elements} != measured {total}"
            )
        member_count = sum(len(s) for s in self._vnode_members)
        if member_count != len(decisions):
            raise AssertionError(
                f"vnode buckets hold {member_count} ids for "
                f"{len(decisions)} live decisions"
            )

    # ------------------------------------------------------------------
    # measures / queries
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Public counters for the manager's tables and caches.

        This is the supported way to observe sharing and collection (batch
        APIs and CLI reports use it); the underlying attributes are
        private.  ``nodes`` counts *live* nodes; ``node_capacity`` is the
        table length including freed slots awaiting reuse.
        """
        n_lit = len(self._lit_table)
        live = self.live_node_count
        return {
            "vtree_nodes": len(self.v_nodes),
            "nodes": live,
            "node_capacity": len(self.node_kind),
            "free_nodes": len(self._free_ids),
            "literal_nodes": n_lit,
            "decision_nodes": live - n_lit - 2,  # minus constants
            "pinned_roots": len(self._pins),
            "gc_runs": self._gc_runs,
            "collected_nodes": self._collected_total,
            "live_size": self._total_elements,
            "minimize_runs": self._minimize_runs,
            "vtree_moves": self._moves_applied,
            "and_cache_entries": len(self._and_cache),
            "or_cache_entries": len(self._or_cache),
            "neg_cache_entries": len(self._neg_cache),
            "apply_cache_entries": len(self._and_cache) + len(self._or_cache),
        }

    def function(self, u: int, variables: Sequence[str] | None = None) -> BooleanFunction:
        vs = tuple(sorted(variables if variables is not None else self.vtree.variables))
        return self.to_nnf(u).function(vs)

    def to_nnf(self, u: int) -> NNF:
        memo: dict[int, NNF] = {_FALSE: false_node(), _TRUE: true_node()}
        todo = [w for w in self.reachable(u) if w > _TRUE]
        todo.sort(key=self.node_stamp.__getitem__)
        for w in todo:
            if self.node_kind[w] == "lit":
                memo[w] = lit(self.node_var[w], bool(self.node_sign[w]))  # type: ignore[arg-type]
            else:
                parts = []
                elems = self.node_elements[w]
                assert elems is not None
                for p, s in elems:
                    parts.append(NNF("and", children=(memo[p], memo[s])))
                memo[w] = parts[0] if len(parts) == 1 else NNF("or", children=tuple(parts))
        return memo[u]

    def validate(self, u: int) -> None:
        """Check the SDD invariants on the reachable nodes: primes exhaust
        (SD1), are pairwise disjoint (SD2), and subs are distinct (SD3) —
        and that no reachable node has been garbage-collected."""
        for w in self.reachable(u):
            if w <= 1:
                continue
            if self.node_kind[w] == "free":
                raise AssertionError(f"reachable node {w} was collected")
            if self.node_kind[w] != "dec":
                continue
            elems = self.node_elements[w]
            assert elems is not None
            subs = [s for _, s in elems]
            if len(set(subs)) != len(subs):
                raise AssertionError("compression violated: duplicate subs")
            primes = [p for p, _ in elems]
            acc = _FALSE
            for i, p in enumerate(primes):
                for q in primes[i + 1 :]:
                    if self._apply(p, q, True) != _FALSE:
                        raise AssertionError("primes not pairwise disjoint")
                acc = self._apply(acc, p, False)
            if acc != _TRUE:
                raise AssertionError("primes do not exhaust")


def sdd_from_circuit(circuit: Circuit, vtree: Vtree | None = None) -> tuple[SddManager, int]:
    """Convenience: compile ``circuit`` into an SDD (default: balanced vtree
    over the circuit's variables)."""
    t = vtree if vtree is not None else Vtree.balanced(sorted(circuit.variables))
    mgr = SddManager(t)
    return mgr, mgr.compile_circuit(circuit)
