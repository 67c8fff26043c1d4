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

from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from ..circuits.circuit import AND, CONST, NOT, OR, VAR, Circuit
from ..circuits.nnf import NNF, conj, disj, false_node, lit, true_node

if TYPE_CHECKING:
    from ..core.boolfunc import BooleanFunction

__all__ = ["ObddManager", "obdd_from_function", "obdd_width_of_function"]


class ObddManager:
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
        """Binary apply for ``op`` in {and, or, xor}."""
        if op not in ("and", "or", "xor"):
            raise ValueError(f"unsupported op {op!r}")
        key = (op, u, v) if u <= v else (op, v, u)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        result = self._apply(u, v, op)
        self._apply_cache[key] = result
        return result

    def _apply(self, u: int, v: int, op: str) -> int:
        if u <= 1 and v <= 1:
            a, b = bool(u), bool(v)
            if op == "and":
                return int(a and b)
            if op == "or":
                return int(a or b)
            return int(a != b)
        # terminal shortcuts
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
        lu, lv = self.level[u], self.level[v]
        top = min(lu, lv)
        u0, u1 = (self.lo[u], self.hi[u]) if lu == top else (u, u)
        v0, v1 = (self.lo[v], self.hi[v]) if lv == top else (v, v)
        return self.node(top, self.apply(u0, v0, op), self.apply(u1, v1, op))

    def negate(self, u: int) -> int:
        key = ("not", u)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        if u <= 1:
            result = 1 - u
        else:
            result = self.node(self.level[u], self.negate(self.lo[u]), self.negate(self.hi[u]))
        self._apply_cache[key] = result
        return result

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

    def compile_circuit(self, circuit: Circuit) -> int:
        """Bottom-up apply compilation of a circuit (no global truth table)."""
        if circuit.output is None:
            raise ValueError("circuit has no output")
        vals: dict[int, int] = {}
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
        return vals[circuit.output]

    # ------------------------------------------------------------------
    # measures / queries
    # ------------------------------------------------------------------
    def freeze(self, roots, *, names=None, meta=None):
        """Freeze ``roots`` into an immutable array-backed
        :class:`~repro.artifact.store.FrozenObdd` (save/mmap/share)."""
        from ..artifact.store import FrozenObdd

        return FrozenObdd.from_manager(self, list(roots), names=names, meta=meta)

    def stats(self) -> dict[str, int]:
        """Public counters for the manager's tables and caches (mirrors
        :meth:`repro.sdd.manager.SddManager.stats`)."""
        return {
            "variables": self.n,
            "nodes": len(self.level),
            "unique_table_entries": len(self._unique),
            "apply_cache_entries": len(self._apply_cache),
        }

    def reachable(self, u: int) -> set[int]:
        seen: set[int] = set()
        stack = [u]
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            if w > 1:
                stack.extend((self.lo[w], self.hi[w]))
        return seen

    def size(self, u: int) -> int:
        """Number of nodes of the diagram rooted at ``u`` (incl. terminals)."""
        return len(self.reachable(u))

    def width(self, u: int) -> int:
        """The paper's OBDD width: the largest number of nodes labelled by
        the same variable."""
        counts: dict[int, int] = {}
        for w in self.reachable(u):
            if w > 1:
                counts[self.level[w]] = counts.get(self.level[w], 0) + 1
        return max(counts.values(), default=0)

    def level_profile(self, u: int) -> list[int]:
        counts = [0] * self.n
        for w in self.reachable(u):
            if w > 1:
                counts[self.level[w]] += 1
        return counts

    def count_models(self, u: int, scope: Iterable[str] | None = None) -> int:
        scope_set = set(scope) if scope is not None else set(self.order)
        missing = len(scope_set - set(self.order))
        memo: dict[int, int] = {}

        # rec(w) counts models over the variables at levels >= level(w);
        # terminals sit at level n so rec(1) == 1 == 2^0.
        def rec(w: int) -> int:
            if w == 0:
                return 0
            if w == 1:
                return 1
            got = memo.get(w)
            if got is not None:
                return got
            lvl = self.level[w]
            lo_count = rec(self.lo[w]) << (self.level_or_n(self.lo[w]) - lvl - 1)
            hi_count = rec(self.hi[w]) << (self.level_or_n(self.hi[w]) - lvl - 1)
            res = lo_count + hi_count
            memo[w] = res
            return res

        # Scale by the free variables above the root, then by scope padding.
        total = rec(u) << self.level_or_n(u)
        return total << missing

    def level_or_n(self, w: int) -> int:
        return self.level[w] if w > 1 else self.n

    def weighted_count(self, u: int, weights: Mapping[str, tuple[float, float]]):
        """WMC with weights ``(w_neg, w_pos)`` per variable."""
        memo: dict[int, object] = {}
        sums = [weights[v][0] + weights[v][1] for v in self.order]

        def gap(from_level: int, to_level: int):
            f = 1
            for i in range(from_level, to_level):
                f = f * sums[i]
            return f

        def rec(w: int):
            if w == 0:
                return 0
            if w == 1:
                return 1
            got = memo.get(w)
            if got is not None:
                return got
            lvl = self.level[w]
            w0, w1 = weights[self.order[lvl]]
            lo_val = rec(self.lo[w]) * gap(lvl + 1, self.level_or_n(self.lo[w]))
            hi_val = rec(self.hi[w]) * gap(lvl + 1, self.level_or_n(self.hi[w]))
            res = w0 * lo_val + w1 * hi_val
            memo[w] = res
            return res

        return rec(u) * gap(0, self.level_or_n(u))

    def probability(self, u: int, prob: Mapping[str, float]) -> float:
        weights = {v: (1.0 - float(p), float(p)) for v, p in prob.items()}
        return float(self.weighted_count(u, weights))

    def evaluate(self, u: int, assignment: Mapping[str, int]) -> bool:
        w = u
        while w > 1:
            v = self.order[self.level[w]]
            w = self.hi[w] if assignment[v] else self.lo[w]
        return bool(w)

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


def obdd_from_function(f: BooleanFunction, order: Sequence[str] | None = None) -> tuple[ObddManager, int]:
    """Convenience: manager + root for ``f`` under ``order`` (default sorted)."""
    o = tuple(order) if order is not None else tuple(sorted(f.variables))
    mgr = ObddManager(o)
    return mgr, mgr.from_function(f)


def obdd_width_of_function(f: BooleanFunction, order: Sequence[str] | None = None) -> int:
    mgr, root = obdd_from_function(f, order)
    return mgr.width(root)
