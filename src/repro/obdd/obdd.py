"""Reduced ordered binary decision diagrams (OBDDs).

OBDDs are the baseline compilation target of Jha & Suciu's programme: a
deterministic read-once branching program where every root-leaf path visits
variables in the same order (Bryant).  The paper uses two size measures:

- *size*: number of nodes of the diagram;
- *width*: the largest number of nodes labelled by the same variable —
  ``OBDD width``; bounded OBDD width characterizes bounded circuit pathwidth
  (eq. (2)) and OBDDs are exactly the canonical SDDs of right-linear vtrees.

The manager keeps a unique table so every function has one canonical node
per variable order; ``apply``/``negate``/``exists`` are memoized.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from ..circuits.circuit import AND, CONST, NOT, OR, VAR, Circuit
from ..circuits.nnf import NNF, conj, disj, false_node, lit, true_node
from ..sdd.wmc import exact_weights, float_weights

if TYPE_CHECKING:
    from ..core.boolfunc import BooleanFunction

__all__ = ["ObddManager", "ObddNodeTable", "obdd_from_function", "obdd_width_of_function"]


class ObddNodeTable:
    """Read-only queries over an OBDD node table, shared by the live
    :class:`ObddManager` and the frozen
    :class:`~repro.artifact.store.FrozenObdd`.

    A subclass provides ``order`` (the variables by level), ``n`` (their
    number) and the per-node tables ``level`` / ``lo`` / ``hi``: nodes
    ``0``/``1`` are the terminals at level ``n``, and every other node's
    children have smaller ids, so ascending id order is topological.  The
    counts are iterative sweeps over the weights as given — no scaled
    integers — so with ``Fraction`` weights they are the independent
    reference the SDD and d-DNNF kernels are checked against.
    """

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(self.order)

    def reachable(self, u: int) -> set[int]:
        lo, hi = self.lo, self.hi
        seen: set[int] = set()
        stack = [u]
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            if w > 1:
                stack.extend((lo[w], hi[w]))
        return seen

    def size(self, u: int) -> int:
        """Number of nodes of the diagram rooted at ``u`` (incl. terminals)."""
        return len(self.reachable(u))

    def width(self, u: int) -> int:
        """The paper's OBDD width: the largest number of nodes labelled by
        the same variable."""
        return max(self.level_profile(u), default=0)

    def level_profile(self, u: int) -> list[int]:
        counts = [0] * self.n
        for w in self.reachable(u):
            if w > 1:
                counts[self.level[w]] += 1
        return counts

    def count_models(self, u: int, scope: Iterable[str] | None = None) -> int:
        # memo[w] counts models over the variables at levels >= level(w);
        # terminals sit at level n, so memo[1] == 1 == 2^0.
        level, lo, hi = self.level, self.lo, self.hi
        memo: dict[int, int] = {0: 0, 1: 1}
        for w in sorted(self.reachable(u)):
            if w > 1:
                lvl = level[w]
                lo_count = memo[lo[w]] << (level[lo[w]] - lvl - 1)
                hi_count = memo[hi[w]] << (level[hi[w]] - lvl - 1)
                memo[w] = lo_count + hi_count
        # Scale by the free variables above the root, then by scope padding.
        missing = len(set(scope) - set(self.order)) if scope is not None else 0
        return memo[u] << level[u] << missing

    def weighted_count(self, u: int, weights: Mapping[str, tuple]):
        """WMC with weights ``(w_neg, w_pos)`` per variable."""
        order, level, lo, hi = self.order, self.level, self.lo, self.hi
        sums = [weights[v][0] + weights[v][1] for v in order]

        def gap(from_level: int, to_level: int):
            f = 1
            for i in range(from_level, to_level):
                f = f * sums[i]
            return f

        memo: dict[int, object] = {0: 0, 1: 1}
        for w in sorted(self.reachable(u)):
            if w > 1:
                lvl = level[w]
                w0, w1 = weights[order[lvl]]
                lo_val, hi_val = memo[lo[w]], memo[hi[w]]
                # A zero (the FALSE terminal) stays zero under any gap: skip
                # the product, or every edge to FALSE costs O(levels).
                if lo_val:
                    lo_val = lo_val * gap(lvl + 1, level[lo[w]])
                if hi_val:
                    hi_val = hi_val * gap(lvl + 1, level[hi[w]])
                memo[w] = w0 * lo_val + w1 * hi_val
        return memo[u] * gap(0, level[u])

    def probability(self, u: int, prob: Mapping[str, float], *, exact: bool = False):
        weights = exact_weights(prob) if exact else float_weights(prob)
        value = self.weighted_count(u, weights)
        return Fraction(value) if exact else float(value)

    def freeze(self, roots, *, names=None, meta=None):
        """Freeze ``roots`` into an immutable array-backed
        :class:`~repro.artifact.store.FrozenObdd` (save/mmap/share); a
        frozen store re-freezes to the same tables."""
        from ..artifact.store import FrozenObdd

        return FrozenObdd.from_manager(self, list(roots), names=names, meta=meta)

    def evaluate(self, u: int, assignment: Mapping[str, int]) -> bool:
        w = u
        while w > 1:
            v = self.order[self.level[w]]
            w = self.hi[w] if assignment[v] else self.lo[w]
        return bool(w)


class ObddManager(ObddNodeTable):
    """An OBDD manager for a fixed variable order.

    Node 0 is the ``False`` terminal and node 1 the ``True`` terminal; every
    other node is a triple ``(level, lo, hi)`` interned in a unique table.
    ``level`` indexes into ``order``; terminals live at level ``len(order)``.
    """

    def __init__(self, order: Sequence[str]):
        if len(set(order)) != len(order):
            raise ValueError("variable order contains duplicates")
        self.order = tuple(order)
        self.level_of = {v: i for i, v in enumerate(self.order)}
        self.n = len(self.order)
        self.level: list[int] = [self.n, self.n]
        self.lo: list[int] = [-1, -1]
        self.hi: list[int] = [-1, -1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._apply_cache: dict[tuple, int] = {}
        # The node budget of the compile in progress (see compile_circuit),
        # checked at every allocation; ``None`` outside a budgeted compile.
        self._node_budget: int | None = None

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    @property
    def false(self) -> int:
        return 0

    @property
    def true(self) -> int:
        return 1

    def node(self, level: int, lo: int, hi: int) -> int:
        """Get-or-create a reduced node."""
        if lo == hi:
            return lo
        key = (level, lo, hi)
        nid = self._unique.get(key)
        if nid is None:
            nid = len(self.level)
            if self._node_budget is not None and nid >= self._node_budget:
                from ..sdd.manager import CompilationBudgetExceeded

                raise CompilationBudgetExceeded(
                    f"node budget {self._node_budget} exceeded "
                    f"(allocating past {nid} nodes)"
                )
            self.level.append(level)
            self.lo.append(lo)
            self.hi.append(hi)
            self._unique[key] = nid
        return nid

    def var(self, name: str) -> int:
        return self.node(self.level_of[name], 0, 1)

    def literal(self, name: str, sign: bool) -> int:
        return self.var(name) if sign else self.node(self.level_of[name], 1, 0)

    def constant(self, value: bool) -> int:
        return 1 if value else 0

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def apply(self, u: int, v: int, op: str) -> int:
        """Binary apply for ``op`` in {and, or, xor}.

        Iterative, so its depth is not bounded by Python's stack.  A call
        frame ``(u, v)`` that no cache entry or terminal decides pushes a
        node frame ``(key, level, None)`` under its two cofactor calls,
        lo on top: nodes are created in the order of the recursive apply
        (lo cone, hi cone, then the node), so node ids match it."""
        if op not in ("and", "or", "xor"):
            raise ValueError(f"unsupported op {op!r}")
        cache, level, lo, hi = self._apply_cache, self.level, self.lo, self.hi
        results: list[int] = []
        stack: list[tuple] = [(u, v)]
        while stack:
            frame = stack.pop()
            if len(frame) == 3:
                key, top, _ = frame
                h = results.pop()
                result = cache[key] = self.node(top, results.pop(), h)
                results.append(result)
                continue
            a, b = frame
            key = (op, a, b) if a <= b else (op, b, a)
            result = cache.get(key)
            if result is None:
                result = _terminal_apply(a, b, op)
                if result is None:
                    la, lb = level[a], level[b]
                    top = min(la, lb)
                    a0, a1 = (lo[a], hi[a]) if la == top else (a, a)
                    b0, b1 = (lo[b], hi[b]) if lb == top else (b, b)
                    stack += ((key, top, None), (a1, b1), (a0, b0))
                    continue
                cache[key] = result
            results.append(result)
        return results[0]

    def negate(self, u: int) -> int:
        # XOR with TRUE recurses into (lo, TRUE) and (hi, TRUE) and rebuilds
        # each node at its own level: the negation, node for node.
        return self.apply(u, 1, "xor")

    def conjoin(self, *nodes: int) -> int:
        acc = 1
        for nid in nodes:
            acc = self.apply(acc, nid, "and")
        return acc

    def disjoin(self, *nodes: int) -> int:
        acc = 0
        for nid in nodes:
            acc = self.apply(acc, nid, "or")
        return acc

    def restrict(self, u: int, name: str, value: bool) -> int:
        lv = self.level_of[name]
        cache: dict[int, int] = {}

        def rec(w: int) -> int:
            if w <= 1 or self.level[w] > lv:
                return w
            got = cache.get(w)
            if got is not None:
                return got
            if self.level[w] == lv:
                res = self.hi[w] if value else self.lo[w]
            else:
                res = self.node(self.level[w], rec(self.lo[w]), rec(self.hi[w]))
            cache[w] = res
            return res

        return rec(u)

    def exists(self, u: int, names: Iterable[str]) -> int:
        out = u
        for name in sorted(names, key=lambda x: self.level_of[x]):
            out = self.apply(
                self.restrict(out, name, False), self.restrict(out, name, True), "or"
            )
        return out

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def from_function(self, f: BooleanFunction) -> int:
        """Canonical OBDD of an exact function (Shannon expansion with
        memoization on cofactor tables)."""
        import numpy as np

        if not set(f.variables) <= set(self.order):
            raise ValueError("function variables must be within the manager order")
        aligned = f.extend(self.order) if f.variables != self.order else f
        table = aligned.table
        memo: dict[tuple[int, bytes], int] = {}

        def rec(level: int, sub: np.ndarray) -> int:
            if sub.all():
                return 1
            if not sub.any():
                return 0
            key = (level, sub.tobytes())
            got = memo.get(key)
            if got is not None:
                return got
            # Variable order[level]; with little-endian indexing on sorted
            # variables, slice the axis for this variable.
            var = self.order[level]
            rest = self.n - level
            vs = sorted(self.order[level:])
            i = vs.index(var)
            shaped = sub.reshape((2,) * rest)
            ax = rest - 1 - i
            lo = np.ascontiguousarray(np.take(shaped, 0, axis=ax)).reshape(-1)
            hi = np.ascontiguousarray(np.take(shaped, 1, axis=ax)).reshape(-1)
            res = self.node(level, rec(level + 1, lo), rec(level + 1, hi))
            memo[key] = res
            return res

        # Reorder the table so it is indexed by suffixes of `order`.
        # BooleanFunction tables index by *sorted* variables; build the table
        # over sorted(order) then recurse slicing per decision variable.
        return rec(0, table)

    def compile_circuit(self, circuit: Circuit, *, node_budget: int | None = None) -> int:
        """Bottom-up apply compilation of a circuit (no global truth table).

        ``node_budget`` caps the manager's node count (terminals
        included), as in :meth:`repro.sdd.manager.SddManager.compile_circuit`:
        it is checked at every new node, so the compile raises
        :class:`~repro.sdd.manager.CompilationBudgetExceeded` inside the
        apply that would cross it."""
        if circuit.output is None:
            raise ValueError("circuit has no output")
        vals: dict[int, int] = {}
        saved = self._node_budget
        self._node_budget = node_budget
        try:
            for gid in circuit.topological_order():
                gate = circuit.gates[gid]
                if gate.kind == VAR:
                    vals[gid] = self.var(gate.payload)  # type: ignore[arg-type]
                elif gate.kind == CONST:
                    vals[gid] = self.constant(bool(gate.payload))
                elif gate.kind == NOT:
                    vals[gid] = self.negate(vals[gate.inputs[0]])
                elif gate.kind == AND:
                    vals[gid] = self.conjoin(*[vals[i] for i in gate.inputs])
                else:
                    vals[gid] = self.disjoin(*[vals[i] for i in gate.inputs])
        finally:
            self._node_budget = saved
        return vals[circuit.output]

    # ------------------------------------------------------------------
    # measures / queries
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Public counters for the manager's tables and caches (mirrors
        :meth:`repro.sdd.manager.SddManager.stats`)."""
        return {
            "variables": self.n,
            "nodes": len(self.level),
            "unique_table_entries": len(self._unique),
            "apply_cache_entries": len(self._apply_cache),
        }

    def function(self, u: int, variables: Sequence[str] | None = None) -> BooleanFunction:
        from ..core.boolfunc import BooleanFunction

        vs = tuple(sorted(variables if variables is not None else self.order))
        return self.to_nnf(u).function(vs) if u > 1 else BooleanFunction.constant(bool(u), vs)

    def to_nnf(self, u: int) -> NNF:
        """Convert to NNF: each node becomes ``(¬x ∧ lo) ∨ (x ∧ hi)`` —
        OBDDs are deterministic decomposable (indeed structured) NNFs."""
        memo: dict[int, NNF] = {0: false_node(), 1: true_node()}

        def rec(w: int) -> NNF:
            got = memo.get(w)
            if got is not None:
                return got
            x = self.order[self.level[w]]
            res = disj(
                [
                    conj([lit(x, False), rec(self.lo[w])]),
                    conj([lit(x, True), rec(self.hi[w])]),
                ]
            )
            memo[w] = res
            return res

        return rec(u)


def _terminal_apply(u: int, v: int, op: str) -> int | None:
    """The result of ``u op v`` when a terminal decides it, else ``None``."""
    if u <= 1 and v <= 1:
        a, b = bool(u), bool(v)
        if op == "and":
            return int(a and b)
        if op == "or":
            return int(a or b)
        return int(a != b)
    if op == "and":
        if u == 0 or v == 0:
            return 0
        if u == 1:
            return v
        if v == 1:
            return u
    elif op == "or":
        if u == 1 or v == 1:
            return 1
        if u == 0:
            return v
        if v == 0:
            return u
    return None


def obdd_from_function(f: BooleanFunction, order: Sequence[str] | None = None) -> tuple[ObddManager, int]:
    """Convenience: manager + root for ``f`` under ``order`` (default sorted)."""
    o = tuple(order) if order is not None else tuple(sorted(f.variables))
    mgr = ObddManager(o)
    return mgr, mgr.from_function(f)


def obdd_width_of_function(f: BooleanFunction, order: Sequence[str] | None = None) -> int:
    mgr, root = obdd_from_function(f, order)
    return mgr.width(root)
