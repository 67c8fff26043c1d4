"""Immutable array-backed node stores for compiled circuits.

A *frozen* store is the flat, position-indexed twin of a live structure:

- :class:`FrozenSdd`   ↔ :class:`repro.sdd.manager.SddManager` (one vtree,
  many pinned roots),
- :class:`FrozenDdnnf` ↔ :class:`repro.dnnf.nodes.DnnfDag`,
- :class:`FrozenObdd`  ↔ :class:`repro.obdd.obdd.ObddManager`.

Each holds nothing but integer tables (node kinds, element pairs, child
lists, vtree shape) plus a variable-name table — exactly the sections of
the on-disk artifact format, so a store can either be **frozen** from a
live manager (``from_manager`` / ``from_dag``) or **wrap an mmap-ed file
read-only** with zero copying (:meth:`load`): the evaluators below index
straight into the mapped page cache, and N worker processes opening the
same path share one physical copy of the compiled circuit.

The queries a store answers — WMC, model count, evaluate, size/width —
run as iterative sweeps over the arrays and are **op-for-op replicas** of
the live evaluators (:class:`repro.sdd.wmc.SddWmcEvaluator`,
:class:`repro.dnnf.wmc.DnnfWmcEvaluator`, the ``ObddManager`` sweeps):
same child iteration order, same gap-product climb order, same initial
``int`` accumulators, and the same scaled-integer encoding of exact
weights (:func:`repro.sdd.wmc.scaled_weights`).  Exact-``Fraction``
results are equal by mathematics; **float results are equal
bit-for-bit**, which is what lets a warm-started worker pool assert
answers identical to the process that compiled the artifact.  (The OBDD
store's :meth:`FrozenObdd.weighted_count` stays on ``Fraction``, like the
live OBDD sweeps it mirrors: they are the independent reference exact
answers are checked against.)

Freezing renumbers nodes into a canonical dense id space (constants,
then literals sorted by ``(var, sign)``, then decisions in creation-stamp
order), so ``freeze → write → load`` is deterministic and ascending-id
sweeps stay topological.  The thaw paths (:meth:`FrozenSdd.to_manager`,
:meth:`FrozenDdnnf.to_dag`, :meth:`FrozenObdd.to_manager`) rebuild live
structures for sessions that need apply/minimize on a loaded artifact.
"""

from __future__ import annotations

import json
from array import array
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from ..core.vtree import Vtree
from ..sdd.wmc import exact_weights, float_weights, scaled_weights
from .encoding import (
    DTYPE_BYTES,
    DTYPE_I32,
    DTYPE_I64,
    DTYPE_U8,
    KIND_DDNNF,
    KIND_OBDD,
    KIND_SDD,
    Artifact,
    ArtifactError,
    open_artifact,
    pack_strings,
    write_artifact,
)

__all__ = [
    "FrozenSdd",
    "FrozenSddWmc",
    "FrozenDdnnf",
    "FrozenDdnnfWmc",
    "FrozenObdd",
    "FrozenCompiled",
]

_FALSE = 0
_TRUE = 1


def _i32(values) -> bytes:
    return array("i", values).tobytes()


def _i64(values) -> bytes:
    return array("q", values).tobytes()


def _meta_bytes(meta: Mapping) -> bytes:
    return json.dumps(meta, sort_keys=True).encode("utf-8")


def _read_meta(art: Artifact) -> dict:
    if "meta" not in art:
        return {}
    try:
        return json.loads(bytes(art.raw("meta")).decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise ArtifactError("corrupt meta section", path=art.path) from None


def _release_views(obj, names: Sequence[str]) -> None:
    # Zero-copy stores keep casted memoryviews into the mmap as their
    # table attributes; those views pin the mapping, so they must be
    # released before Artifact.close() can unmap the file.
    for name in names:
        value = getattr(obj, name, None)
        if isinstance(value, memoryview):
            value.release()
            setattr(obj, name, None)


# ======================================================================
# FrozenSdd
# ======================================================================
class FrozenSdd:
    """An immutable compiled SDD: vtree + node tables + named roots.

    Node id space: ``0`` = FALSE, ``1`` = TRUE, then ``n_lits`` literals,
    then ``n_decs`` decision nodes; decision children always have smaller
    ids, so ascending id order is topological.  The vtree is stored as
    postfix codes over positions ``0..m-1`` (leaf → index into the
    variable table, internal → ``-1``); position ``m-1`` is the root.
    """

    def __init__(
        self,
        vars: Sequence[str],
        vt: Sequence[int],
        lits: Sequence[int],
        dec_vnode: Sequence[int],
        dec_off: Sequence[int],
        elems: Sequence[int],
        roots: Sequence[int],
        *,
        root_names: Sequence[str] | None = None,
        meta: Mapping | None = None,
        _artifact: Artifact | None = None,
    ):
        path = _artifact.path if _artifact is not None else None
        self.vars = list(vars)
        self.vt = vt
        self.lits = lits
        self.dec_vnode = dec_vnode
        self.dec_off = dec_off
        self.elems = elems
        self.roots = list(roots)
        self.root_names = list(root_names) if root_names is not None else None
        self.meta = dict(meta) if meta else {}
        self._artifact = _artifact
        # --- derive + validate the vtree shape ------------------------
        m = len(self.vt)
        n_vars = len(self.vars)
        if m != 2 * n_vars - 1 or n_vars == 0:
            raise ArtifactError(
                f"vtree postfix of {m} codes does not fit {n_vars} variables",
                path=path,
            )
        v_left = [-1] * m
        v_right = [-1] * m
        v_parent = [-1] * m
        leaf_pos = [-1] * n_vars
        stack: list[int] = []
        for k in range(m):
            c = self.vt[k]
            if c == -1:
                if len(stack) < 2:
                    raise ArtifactError("malformed vtree postfix", path=path)
                r = stack.pop()
                left = stack.pop()
                v_left[k], v_right[k] = left, r
                v_parent[left] = k
                v_parent[r] = k
            else:
                if not 0 <= c < n_vars or leaf_pos[c] != -1:
                    raise ArtifactError(
                        f"bad vtree leaf code {c} at position {k}", path=path
                    )
                leaf_pos[c] = k
            stack.append(k)
        if len(stack) != 1:
            raise ArtifactError("malformed vtree postfix", path=path)
        self.v_left = v_left
        self.v_right = v_right
        self.v_parent = v_parent
        self.leaf_pos = leaf_pos
        self.root_vnode = m - 1
        self.variables = frozenset(self.vars)
        # --- validate node tables -------------------------------------
        self.n_lits = len(self.lits)
        self.n_decs = len(self.dec_vnode)
        self.dec_base = 2 + self.n_lits
        self.node_count_total = self.dec_base + self.n_decs
        for i in range(self.n_lits):
            if not 0 <= self.lits[i] < 2 * n_vars:
                raise ArtifactError(f"bad literal code at index {i}", path=path)
        if len(self.dec_off) != self.n_decs + 1 or (
            self.n_decs >= 0 and len(self.dec_off) and self.dec_off[0] != 0
        ):
            raise ArtifactError("bad decision offset table", path=path)
        for j in range(self.n_decs):
            if self.dec_off[j] > self.dec_off[j + 1]:
                raise ArtifactError(
                    f"decision offsets not monotone at {j}", path=path
                )
            vn = self.dec_vnode[j]
            if not 0 <= vn < m or v_left[vn] == -1:
                raise ArtifactError(
                    f"decision {j} at invalid vtree position {vn}", path=path
                )
            uid = self.dec_base + j
            for i in range(2 * self.dec_off[j], 2 * self.dec_off[j + 1]):
                child = self.elems[i]
                if not 0 <= child < uid:
                    raise ArtifactError(
                        f"decision {j} references child {child} (not topological)",
                        path=path,
                    )
        if len(self.elems) != 2 * self.dec_off[self.n_decs]:
            raise ArtifactError("element table length mismatch", path=path)
        for r in self.roots:
            if not 0 <= r < self.node_count_total:
                raise ArtifactError(f"root id {r} out of range", path=path)
        if self.root_names is not None and len(self.root_names) != len(self.roots):
            raise ArtifactError("root name count mismatch", path=path)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_manager(
        cls,
        mgr,
        roots: Sequence[int],
        *,
        names: Sequence[str] | None = None,
        meta: Mapping | None = None,
    ) -> "FrozenSdd":
        """Freeze ``roots`` of a live :class:`SddManager`.

        Uses the manager's *current* postorder (correct after in-place
        rotations) and renumbers: literals sorted by ``(var, sign)``,
        decisions by creation stamp — child stamps precede parents, so
        the frozen ids are topological by construction.
        """
        order = mgr.vtree_postorder()
        pos: dict[int, int] = {}
        vars_tab: list[str] = []
        var_idx: dict[str, int] = {}
        vt: list[int] = []
        for k, vi in enumerate(order):
            pos[vi] = k
            if mgr.v_left[vi] is None:
                var = mgr.v_nodes[vi].var
                var_idx[var] = len(vars_tab)
                vt.append(len(vars_tab))
                vars_tab.append(var)
            else:
                vt.append(-1)
        reach: set[int] = set()
        for r in roots:
            reach |= mgr.reachable(r)
        lit_ids = sorted(
            (u for u in reach if u > _TRUE and mgr.node_kind[u] == "lit"),
            key=lambda u: (var_idx[mgr.node_var[u]], bool(mgr.node_sign[u])),
        )
        dec_ids = sorted(
            (u for u in reach if u > _TRUE and mgr.node_kind[u] == "dec"),
            key=mgr.node_stamp.__getitem__,
        )
        idmap = {_FALSE: _FALSE, _TRUE: _TRUE}
        for i, u in enumerate(lit_ids):
            idmap[u] = 2 + i
        base = 2 + len(lit_ids)
        for j, u in enumerate(dec_ids):
            idmap[u] = base + j
        lits = [
            var_idx[mgr.node_var[u]] * 2 + (1 if mgr.node_sign[u] else 0)
            for u in lit_ids
        ]
        dec_vnode = [pos[mgr.node_vnode[u]] for u in dec_ids]
        dec_off = [0]
        elems: list[int] = []
        for u in dec_ids:
            for p, s in mgr.node_elements[u]:
                elems.append(idmap[p])
                elems.append(idmap[s])
            dec_off.append(len(elems) // 2)
        return cls(
            vars_tab,
            vt,
            lits,
            dec_vnode,
            dec_off,
            elems,
            [idmap[r] for r in roots],
            root_names=names,
            meta=meta,
        )

    @classmethod
    def from_artifact(cls, art: Artifact) -> "FrozenSdd":
        if art.kind != KIND_SDD:
            raise ArtifactError(
                f"artifact kind {art.kind} is not an SDD store",
                offset=10, path=art.path,
            )
        names = art.strings("rootnames") if "rootnames" in art else None
        return cls(
            art.strings("vars"),
            art.i32("vt"),
            art.i32("lits"),
            art.i32("decvn"),
            art.i64("decoff"),
            art.i32("elems"),
            list(art.i64("roots")),
            root_names=names,
            meta=_read_meta(art),
            _artifact=art,
        )

    @classmethod
    def load(cls, path, *, use_mmap: bool = True) -> "FrozenSdd":
        """mmap an artifact file read-only and wrap it (zero copy)."""
        art = open_artifact(path, expect_kind=KIND_SDD, use_mmap=use_mmap)
        try:
            return cls.from_artifact(art)
        except ArtifactError:
            art.close()
            raise

    def sections(self) -> list[tuple[str, int, bytes]]:
        out = [
            ("vars", DTYPE_BYTES, pack_strings(self.vars)),
            ("vt", DTYPE_I32, _i32(self.vt)),
            ("lits", DTYPE_I32, _i32(self.lits)),
            ("decvn", DTYPE_I32, _i32(self.dec_vnode)),
            ("decoff", DTYPE_I64, _i64(self.dec_off)),
            ("elems", DTYPE_I32, _i32(self.elems)),
            ("roots", DTYPE_I64, _i64(self.roots)),
        ]
        if self.root_names is not None:
            out.append(("rootnames", DTYPE_BYTES, pack_strings(self.root_names)))
        if self.meta:
            out.append(("meta", DTYPE_BYTES, _meta_bytes(self.meta)))
        return out

    def write(self, path) -> None:
        write_artifact(path, KIND_SDD, self.sections())

    def close(self) -> None:
        if self._artifact is not None:
            _release_views(self, ("vt", "lits", "dec_vnode", "dec_off", "elems"))
            self._artifact.close()
            self._artifact = None

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def vtree(self) -> Vtree:
        return Vtree.from_postfix(
            [self.vars[c] if c >= 0 else None for c in self.vt]
        )

    def root_named(self, name: str) -> int:
        if self.root_names is None:
            raise KeyError(name)
        return self.roots[self.root_names.index(name)]

    def is_dec(self, u: int) -> bool:
        return u >= self.dec_base

    def elements(self, u: int):
        """Element pairs of decision node ``u``, in stored order."""
        j = u - self.dec_base
        elems = self.elems
        for i in range(self.dec_off[j], self.dec_off[j + 1]):
            yield elems[2 * i], elems[2 * i + 1]

    def reachable(self, root: int) -> set[int]:
        seen: set[int] = set()
        stack = [root]
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            if w >= self.dec_base:
                for p, s in self.elements(w):
                    stack.append(p)
                    stack.append(s)
        return seen

    def size(self, root: int) -> int:
        base = self.dec_base
        off = self.dec_off
        total = 0
        for w in self.reachable(root):
            if w >= base:
                j = w - base
                total += off[j + 1] - off[j]
        return total

    def node_count(self, root: int) -> int:
        return len(self.reachable(root))

    def width(self, root: int) -> int:
        per: dict[int, int] = {}
        base = self.dec_base
        off = self.dec_off
        for w in self.reachable(root):
            if w >= base:
                j = w - base
                vn = self.dec_vnode[j]
                per[vn] = per.get(vn, 0) + off[j + 1] - off[j]
        return max(per.values(), default=0)

    # ------------------------------------------------------------------
    # semantics (mirrors of the live evaluators)
    # ------------------------------------------------------------------
    def weighted_count(self, root: int, weights: Mapping[str, tuple]):
        return FrozenSddWmc(self, weights).value(root)

    def model_count(self, root: int, scope=None) -> int:
        weights = {v: (1, 1) for v in self.variables}
        base = FrozenSddWmc(self, weights).value(root)
        missing = len(set(scope) - self.variables) if scope is not None else 0
        return base << missing

    def probability(self, root: int, prob: Mapping[str, float], *, exact: bool = False):
        if exact:
            return Fraction(self.weighted_count(root, exact_weights(prob)))
        return float(self.weighted_count(root, float_weights(prob)))

    def evaluate(self, root: int, assignment: Mapping[str, int]) -> bool:
        # Lazy short-circuit evaluation, mirroring SddManager.evaluate:
        # only the taken branches need their variables assigned.
        val: dict[int, bool] = {_FALSE: False, _TRUE: True}
        stack = [root]
        base = self.dec_base
        while stack:
            w = stack[-1]
            if w in val:
                stack.pop()
                continue
            if w < base:
                code = self.lits[w - 2]
                b = bool(assignment[self.vars[code >> 1]])
                val[w] = b if code & 1 else not b
                stack.pop()
                continue
            needed: int | None = None
            res = False
            for p, s in self.elements(w):
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
        return val[root]

    # ------------------------------------------------------------------
    # thaw
    # ------------------------------------------------------------------
    def to_manager(self):
        """Rebuild a live :class:`SddManager` holding the same SDDs.

        Returns ``(manager, roots)`` with every root pinned; ``roots``
        aligns index-for-index with :attr:`roots` (and
        :attr:`root_names`).  In a fresh manager the vtree-table index of
        a node equals its postorder position, so frozen vtree positions
        carry over unchanged.
        """
        from ..sdd.manager import SddManager

        mgr = SddManager(self.vtree())
        idmap: dict[int, int] = {_FALSE: _FALSE, _TRUE: _TRUE}
        for i in range(self.n_lits):
            code = self.lits[i]
            idmap[2 + i] = mgr.literal(self.vars[code >> 1], bool(code & 1))
        for j in range(self.n_decs):
            uid = self.dec_base + j
            elems = tuple(
                (idmap[p], idmap[s]) for p, s in self.elements(uid)
            )
            idmap[uid] = mgr.intern_decision(self.dec_vnode[j], elems)
        roots = [idmap[r] for r in self.roots]
        for r in roots:
            mgr.pin(r)
        return mgr, roots

    def stats(self) -> dict[str, int]:
        return {
            "frozen_vars": len(self.vars),
            "frozen_literals": self.n_lits,
            "frozen_decisions": self.n_decs,
            "frozen_elements": self.dec_off[self.n_decs],
            "frozen_roots": len(self.roots),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FrozenSdd(vars={len(self.vars)}, decisions={self.n_decs}, "
            f"roots={len(self.roots)})"
        )


class FrozenSddWmc:
    """Array-backed twin of :class:`repro.sdd.wmc.SddWmcEvaluator`.

    Same ring choice (``int`` weights count, weights containing a
    ``Fraction`` sweep in scaled integers and divide once by the product
    of the denominators, floats run as given), same amortized gap
    products, the same stop-at-memo sweep, and — deliberately — the same
    operation order everywhere, so float results match the live evaluator
    bit-for-bit.  Reusable across roots of one store.
    """

    def __init__(self, frozen: FrozenSdd, weights: Mapping[str, tuple]):
        self.frozen = frozen
        missing = frozen.variables - set(weights)
        if missing:
            raise ValueError(f"weights missing for variables: {sorted(missing)[:5]}")
        self.weights = {v: weights[v] for v in frozen.variables}
        self._scaled = scaled_weights(self.weights)
        pairs = self.weights if self._scaled is None else self._scaled.pairs
        den = {} if self._scaled is None else self._scaled.den
        fz = frozen
        prod: list = [1] * len(fz.vt)
        scale: list[int] = [1] * len(fz.vt)
        for k in range(len(fz.vt)):
            c = fz.vt[k]
            if c >= 0:
                w0, w1 = pairs[fz.vars[c]]
                prod[k] = w0 + w1
                scale[k] = den.get(fz.vars[c], 1)
            else:
                prod[k] = prod[fz.v_left[k]] * prod[fz.v_right[k]]
                scale[k] = scale[fz.v_left[k]] * scale[fz.v_right[k]]
        self._pairs = pairs
        self._subtree_prod = prod
        self._scale = scale
        self._gap_cache: dict[tuple[int, int], object] = {}
        self._memo: dict[int, object] = {}
        self._swept = 0

    def _gap(self, outer: int, inner: int):
        if outer == inner:
            return 1
        key = (outer, inner)
        got = self._gap_cache.get(key)
        if got is not None:
            return got
        fz = self.frozen
        g = 1
        x = inner
        while x != outer:
            p = fz.v_parent[x]
            sib = fz.v_left[p] if fz.v_right[p] == x else fz.v_right[p]
            g = g * self._subtree_prod[sib]
            x = p
        self._gap_cache[key] = g
        return g

    def _lift(self, u: int, target_vnode: int):
        if u == _FALSE:
            return 0
        if u == _TRUE:
            return self._subtree_prod[target_vnode]
        fz = self.frozen
        vn = (
            fz.dec_vnode[u - fz.dec_base]
            if u >= fz.dec_base
            else fz.leaf_pos[fz.lits[u - 2] >> 1]
        )
        return self._memo[u] * self._gap(target_vnode, vn)

    def _sweep(self, root: int) -> None:
        fz = self.frozen
        memo = self._memo
        if root <= _TRUE or root in memo:
            return
        base = fz.dec_base
        seen = {root}
        stack = [root]
        while stack:
            w = stack.pop()
            if w < base:
                continue
            for p, s in fz.elements(w):
                if p > _TRUE and p not in memo and p not in seen:
                    seen.add(p)
                    stack.append(p)
                if s > _TRUE and s not in memo and s not in seen:
                    seen.add(s)
                    stack.append(s)
        todo = sorted(seen)  # ascending frozen id == creation-stamp order
        self._swept += len(todo)
        pairs = self._pairs
        for u in todo:
            if u < base:
                code = fz.lits[u - 2]
                w0, w1 = pairs[fz.vars[code >> 1]]
                memo[u] = w1 if code & 1 else w0
            else:
                vn = fz.dec_vnode[u - base]
                vl, vr = fz.v_left[vn], fz.v_right[vn]
                acc = 0
                for p, s in fz.elements(u):
                    acc = acc + self._lift(p, vl) * self._lift(s, vr)
                memo[u] = acc

    def value(self, root: int):
        self._sweep(root)
        root_vnode = self.frozen.root_vnode
        value = self._lift(root, root_vnode)
        if self._scaled is None:
            return value
        return Fraction(value, self._scale[root_vnode])

    def stats(self) -> dict[str, int]:
        return {
            "memo_entries": len(self._memo),
            "gap_cache_entries": len(self._gap_cache),
            "nodes_swept": self._swept,
        }


# ======================================================================
# FrozenDdnnf
# ======================================================================
_K_FALSE, _K_TRUE, _K_LIT, _K_AND, _K_OR = 0, 1, 2, 3, 4


class FrozenDdnnf:
    """An immutable smooth d-DNNF DAG: kinds, literal codes, child lists.

    Ids ``0``/``1`` are FALSE/TRUE; children always have smaller ids
    (the monotone renumbering of a hash-consed DAG), so ascending order
    is topological.
    """

    def __init__(
        self,
        vars: Sequence[str],
        kinds: Sequence[int],
        litv: Sequence[int],
        ch_off: Sequence[int],
        children: Sequence[int],
        roots: Sequence[int],
        *,
        root_names: Sequence[str] | None = None,
        meta: Mapping | None = None,
        _artifact: Artifact | None = None,
    ):
        path = _artifact.path if _artifact is not None else None
        self.vars = list(vars)
        self.kinds = kinds
        self.litv = litv
        self.ch_off = ch_off
        self.children = children
        self.roots = list(roots)
        self.root_names = list(root_names) if root_names is not None else None
        self.meta = dict(meta) if meta else {}
        self._artifact = _artifact
        n = len(self.kinds)
        if n < 2 or self.kinds[0] != _K_FALSE or self.kinds[1] != _K_TRUE:
            raise ArtifactError("d-DNNF store missing constant nodes", path=path)
        if len(self.litv) != n or len(self.ch_off) != n + 1 or self.ch_off[0] != 0:
            raise ArtifactError("d-DNNF table length mismatch", path=path)
        for u in range(n):
            k = self.kinds[u]
            if k not in (_K_FALSE, _K_TRUE, _K_LIT, _K_AND, _K_OR):
                raise ArtifactError(f"bad node kind {k} at id {u}", path=path)
            if self.ch_off[u] > self.ch_off[u + 1]:
                raise ArtifactError(f"child offsets not monotone at {u}", path=path)
            if k == _K_LIT:
                if not 0 <= self.litv[u] < 2 * len(self.vars):
                    raise ArtifactError(f"bad literal code at id {u}", path=path)
            for i in range(self.ch_off[u], self.ch_off[u + 1]):
                if not 0 <= self.children[i] < u:
                    raise ArtifactError(
                        f"node {u} references child {self.children[i]} "
                        "(not topological)", path=path,
                    )
        if len(self.children) != self.ch_off[n]:
            raise ArtifactError("child table length mismatch", path=path)
        for r in self.roots:
            if not 0 <= r < n:
                raise ArtifactError(f"root id {r} out of range", path=path)
        if self.root_names is not None and len(self.root_names) != len(self.roots):
            raise ArtifactError("root name count mismatch", path=path)
        self.variables = frozenset(self.vars)

    # ------------------------------------------------------------------
    @classmethod
    def from_dag(
        cls,
        dag,
        roots: Sequence[int],
        *,
        names: Sequence[str] | None = None,
        meta: Mapping | None = None,
    ) -> "FrozenDdnnf":
        """Freeze ``roots`` of a live :class:`DnnfDag` (monotone renumber:
        DAG ids are creation-order topological, so sorted-children
        invariants survive)."""
        reach = {_FALSE, _TRUE}
        for r in roots:
            reach.update(dag.reachable(r))
        order = sorted(reach)
        idmap = {u: i for i, u in enumerate(order)}
        lit_vars = sorted(
            {dag.node_var[u] for u in order if u > _TRUE and dag.node_kind[u] == "lit"}
        )
        var_idx = {v: i for i, v in enumerate(lit_vars)}
        kinds: list[int] = []
        litv: list[int] = []
        ch_off = [0]
        children: list[int] = []
        for u in order:
            if u == _FALSE:
                kinds.append(_K_FALSE)
                litv.append(-1)
            elif u == _TRUE:
                kinds.append(_K_TRUE)
                litv.append(-1)
            elif dag.node_kind[u] == "lit":
                kinds.append(_K_LIT)
                litv.append(
                    var_idx[dag.node_var[u]] * 2 + (1 if dag.node_sign[u] else 0)
                )
            else:
                kinds.append(_K_AND if dag.node_kind[u] == "and" else _K_OR)
                litv.append(-1)
                children.extend(idmap[c] for c in dag.node_children[u])
            ch_off.append(len(children))
        return cls(
            lit_vars, kinds, litv, ch_off, children,
            [idmap[r] for r in roots], root_names=names, meta=meta,
        )

    @classmethod
    def from_artifact(cls, art: Artifact) -> "FrozenDdnnf":
        if art.kind != KIND_DDNNF:
            raise ArtifactError(
                f"artifact kind {art.kind} is not a d-DNNF store",
                offset=10, path=art.path,
            )
        names = art.strings("rootnames") if "rootnames" in art else None
        return cls(
            art.strings("vars"),
            art.raw("kinds"),
            art.i32("litv"),
            art.i64("choff"),
            art.i32("children"),
            list(art.i64("roots")),
            root_names=names,
            meta=_read_meta(art),
            _artifact=art,
        )

    @classmethod
    def load(cls, path, *, use_mmap: bool = True) -> "FrozenDdnnf":
        art = open_artifact(path, expect_kind=KIND_DDNNF, use_mmap=use_mmap)
        try:
            return cls.from_artifact(art)
        except ArtifactError:
            art.close()
            raise

    def sections(self) -> list[tuple[str, int, bytes]]:
        out = [
            ("vars", DTYPE_BYTES, pack_strings(self.vars)),
            ("kinds", DTYPE_U8, bytes(bytearray(self.kinds))),
            ("litv", DTYPE_I32, _i32(self.litv)),
            ("choff", DTYPE_I64, _i64(self.ch_off)),
            ("children", DTYPE_I32, _i32(self.children)),
            ("roots", DTYPE_I64, _i64(self.roots)),
        ]
        if self.root_names is not None:
            out.append(("rootnames", DTYPE_BYTES, pack_strings(self.root_names)))
        if self.meta:
            out.append(("meta", DTYPE_BYTES, _meta_bytes(self.meta)))
        return out

    def write(self, path) -> None:
        write_artifact(path, KIND_DDNNF, self.sections())

    def close(self) -> None:
        if self._artifact is not None:
            _release_views(self, ("kinds", "litv", "ch_off", "children"))
            self._artifact.close()
            self._artifact = None

    # ------------------------------------------------------------------
    def node_children(self, u: int):
        for i in range(self.ch_off[u], self.ch_off[u + 1]):
            yield self.children[i]

    def reachable(self, root: int) -> list[int]:
        seen = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for c in self.node_children(u):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return sorted(seen)

    def size(self, root: int) -> int:
        return sum(1 for u in self.reachable(root) if u > _TRUE)

    def width(self, root: int) -> int:
        return max(
            (self.ch_off[u + 1] - self.ch_off[u] for u in self.reachable(root)),
            default=0,
        )

    def scope(self, root: int) -> frozenset[str]:
        """Variables mentioned under ``root`` (mirrors ``DnnfDag.scopes``)."""
        out: dict[int, frozenset[str]] = {}
        for u in self.reachable(root):
            k = self.kinds[u]
            if k in (_K_FALSE, _K_TRUE):
                out[u] = frozenset()
            elif k == _K_LIT:
                out[u] = frozenset((self.vars[self.litv[u] >> 1],))
            else:
                acc: frozenset[str] = frozenset()
                for c in self.node_children(u):
                    acc |= out[c]
                out[u] = acc
        return out[root]

    def weighted_count(self, root: int, weights: Mapping[str, tuple]):
        return FrozenDdnnfWmc(self, weights).value(root)

    def model_count(self, root: int, scope=None) -> int:
        mentioned = self.scope(root)
        weights = {v: (1, 1) for v in mentioned}
        base = FrozenDdnnfWmc(self, weights).value(root)
        missing = len(set(scope) - mentioned) if scope is not None else 0
        return base << missing

    def probability(self, root: int, prob: Mapping[str, float], *, exact: bool = False):
        if exact:
            return Fraction(self.weighted_count(root, exact_weights(prob)))
        return float(self.weighted_count(root, float_weights(prob)))

    def evaluate(self, root: int, assignment: Mapping[str, int]) -> bool:
        vals: dict[int, bool] = {}
        for u in self.reachable(root):
            k = self.kinds[u]
            if k in (_K_FALSE, _K_TRUE):
                vals[u] = u == _TRUE
            elif k == _K_LIT:
                code = self.litv[u]
                vals[u] = bool(assignment[self.vars[code >> 1]]) == bool(code & 1)
            elif k == _K_AND:
                vals[u] = all(vals[c] for c in self.node_children(u))
            else:
                vals[u] = any(vals[c] for c in self.node_children(u))
        return vals[root]

    # ------------------------------------------------------------------
    def to_dag(self):
        """Rebuild a live :class:`DnnfDag`; returns ``(dag, roots)``.

        The stored nodes are already canonical (no constant children, no
        single-child gates, AND children sorted), so re-interning them in
        ascending order reproduces the structure exactly.
        """
        from ..dnnf.nodes import DnnfDag

        dag = DnnfDag()
        idmap = {_FALSE: _FALSE, _TRUE: _TRUE}
        for u in range(2, len(self.kinds)):
            k = self.kinds[u]
            if k == _K_LIT:
                code = self.litv[u]
                idmap[u] = dag.literal(self.vars[code >> 1], bool(code & 1))
            elif k == _K_AND:
                idmap[u] = dag.conjoin([idmap[c] for c in self.node_children(u)])
            else:
                idmap[u] = dag.disjoin([idmap[c] for c in self.node_children(u)])
        return dag, [idmap[r] for r in self.roots]

    def stats(self) -> dict[str, int]:
        return {
            "frozen_vars": len(self.vars),
            "frozen_nodes": len(self.kinds),
            "frozen_edges": self.ch_off[len(self.kinds)],
            "frozen_roots": len(self.roots),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FrozenDdnnf(nodes={len(self.kinds)}, roots={len(self.roots)})"


class FrozenDdnnfWmc:
    """Array-backed twin of :class:`repro.dnnf.wmc.DnnfWmcEvaluator`:
    the same ring choice, per-node scales and stop-at-memo sweep, and
    identical operation order, so float results match bit-for-bit."""

    def __init__(self, frozen: FrozenDdnnf, weights: Mapping[str, tuple]):
        self.frozen = frozen
        self.weights = dict(weights)
        self._scaled = scaled_weights(self.weights)
        self._memo: dict[int, object] = {_FALSE: 0, _TRUE: 1}
        # Per-node denominators of the memo values (all 1 unless scaled).
        self._scale: dict[int, int] = {_FALSE: 1, _TRUE: 1}
        self._swept = 0

    def _sweep(self, root: int) -> None:
        fz = self.frozen
        memo = self._memo
        seen = {root}
        stack = [root]
        while stack:
            for c in fz.node_children(stack.pop()):
                if c not in memo and c not in seen:
                    seen.add(c)
                    stack.append(c)
        todo = sorted(seen)  # ascending id = children first
        self._swept += len(todo)
        scaled = self._scaled
        pairs = self.weights if scaled is None else scaled.pairs
        den = {} if scaled is None else scaled.den
        scale = self._scale
        for u in todo:
            k = fz.kinds[u]
            if k == _K_LIT:
                code = fz.litv[u]
                var = fz.vars[code >> 1]
                w0, w1 = pairs[var]
                memo[u] = w1 if code & 1 else w0
                scale[u] = den.get(var, 1)
            elif k == _K_AND:
                acc = sc = 1
                for c in fz.node_children(u):
                    acc = acc * memo[c]
                    sc *= scale[c]
                memo[u] = acc
                scale[u] = sc
            else:
                acc, sc = 0, 1
                for c in fz.node_children(u):
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

    def value(self, root: int):
        memo = self._memo
        if root not in memo:
            self._sweep(root)
        if self._scaled is None:
            return memo[root]
        return Fraction(memo[root], self._scale[root])

    def stats(self) -> dict[str, int]:
        return {"memo_entries": len(self._memo), "nodes_swept": self._swept}


# ======================================================================
# FrozenObdd
# ======================================================================
class FrozenObdd:
    """An immutable reduced OBDD: variable order + level/lo/hi tables.

    Ids ``0``/``1`` are the terminals (stored at level ``n`` with child
    slots ``-1``); internal nodes follow in topological (ascending)
    order, exactly like a live :class:`ObddManager`.
    """

    def __init__(
        self,
        vars: Sequence[str],
        level: Sequence[int],
        lo: Sequence[int],
        hi: Sequence[int],
        roots: Sequence[int],
        *,
        root_names: Sequence[str] | None = None,
        meta: Mapping | None = None,
        _artifact: Artifact | None = None,
    ):
        path = _artifact.path if _artifact is not None else None
        self.vars = list(vars)
        self.level = level
        self.lo = lo
        self.hi = hi
        self.roots = list(roots)
        self.root_names = list(root_names) if root_names is not None else None
        self.meta = dict(meta) if meta else {}
        self._artifact = _artifact
        n = len(self.vars)
        self.n = n
        m = len(self.level)
        if m < 2 or len(self.lo) != m or len(self.hi) != m:
            raise ArtifactError("OBDD table length mismatch", path=path)
        if self.level[0] != n or self.level[1] != n:
            raise ArtifactError("OBDD terminals must sit at level n", path=path)
        for u in range(2, m):
            if not 0 <= self.level[u] < n:
                raise ArtifactError(f"bad level at node {u}", path=path)
            for c in (self.lo[u], self.hi[u]):
                if not 0 <= c < u:
                    raise ArtifactError(
                        f"node {u} references child {c} (not topological)",
                        path=path,
                    )
        for r in self.roots:
            if not 0 <= r < m:
                raise ArtifactError(f"root id {r} out of range", path=path)
        if self.root_names is not None and len(self.root_names) != len(self.roots):
            raise ArtifactError("root name count mismatch", path=path)

    # ------------------------------------------------------------------
    @classmethod
    def from_manager(
        cls,
        mgr,
        roots: Sequence[int],
        *,
        names: Sequence[str] | None = None,
        meta: Mapping | None = None,
    ) -> "FrozenObdd":
        """Freeze ``roots`` of a live :class:`ObddManager` (ids are
        creation-order topological, so a monotone renumber suffices)."""
        reach = {0, 1}
        for r in roots:
            reach |= mgr.reachable(r)
        order = sorted(reach)
        idmap = {u: i for i, u in enumerate(order)}
        level = [mgr.level[u] for u in order]
        lo = [-1 if u <= 1 else idmap[mgr.lo[u]] for u in order]
        hi = [-1 if u <= 1 else idmap[mgr.hi[u]] for u in order]
        return cls(
            list(mgr.order), level, lo, hi, [idmap[r] for r in roots],
            root_names=names, meta=meta,
        )

    @classmethod
    def from_artifact(cls, art: Artifact) -> "FrozenObdd":
        if art.kind != KIND_OBDD:
            raise ArtifactError(
                f"artifact kind {art.kind} is not an OBDD store",
                offset=10, path=art.path,
            )
        names = art.strings("rootnames") if "rootnames" in art else None
        return cls(
            art.strings("vars"),
            art.i32("level"),
            art.i32("lo"),
            art.i32("hi"),
            list(art.i64("roots")),
            root_names=names,
            meta=_read_meta(art),
            _artifact=art,
        )

    @classmethod
    def load(cls, path, *, use_mmap: bool = True) -> "FrozenObdd":
        art = open_artifact(path, expect_kind=KIND_OBDD, use_mmap=use_mmap)
        try:
            return cls.from_artifact(art)
        except ArtifactError:
            art.close()
            raise

    def sections(self) -> list[tuple[str, int, bytes]]:
        out = [
            ("vars", DTYPE_BYTES, pack_strings(self.vars)),
            ("level", DTYPE_I32, _i32(self.level)),
            ("lo", DTYPE_I32, _i32(self.lo)),
            ("hi", DTYPE_I32, _i32(self.hi)),
            ("roots", DTYPE_I64, _i64(self.roots)),
        ]
        if self.root_names is not None:
            out.append(("rootnames", DTYPE_BYTES, pack_strings(self.root_names)))
        if self.meta:
            out.append(("meta", DTYPE_BYTES, _meta_bytes(self.meta)))
        return out

    def write(self, path) -> None:
        write_artifact(path, KIND_OBDD, self.sections())

    def close(self) -> None:
        if self._artifact is not None:
            _release_views(self, ("level", "lo", "hi"))
            self._artifact.close()
            self._artifact = None

    # ------------------------------------------------------------------
    def reachable(self, root: int) -> set[int]:
        seen: set[int] = set()
        stack = [root]
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            if w > 1:
                stack.extend((self.lo[w], self.hi[w]))
        return seen

    def size(self, root: int) -> int:
        return len(self.reachable(root))

    def width(self, root: int) -> int:
        counts: dict[int, int] = {}
        for w in self.reachable(root):
            if w > 1:
                counts[self.level[w]] = counts.get(self.level[w], 0) + 1
        return max(counts.values(), default=0)

    def count_models(self, root: int, scope=None) -> int:
        scope_set = set(scope) if scope is not None else set(self.vars)
        missing = len(scope_set - set(self.vars))
        memo: dict[int, int] = {0: 0, 1: 1}
        level = self.level
        for u in sorted(self.reachable(root)):
            if u <= 1:
                continue
            lvl = level[u]
            lo, hi = self.lo[u], self.hi[u]
            lo_count = memo[lo] << (level[lo] - lvl - 1)
            hi_count = memo[hi] << (level[hi] - lvl - 1)
            memo[u] = lo_count + hi_count
        total = memo[root] << level[root]
        return total << missing

    def weighted_count(self, root: int, weights: Mapping[str, tuple]):
        # Iterative mirror of ObddManager.weighted_count: same per-node
        # expression, same sequential (uncached) gap products.
        sums = [weights[v][0] + weights[v][1] for v in self.vars]

        def gap(from_level: int, to_level: int):
            f = 1
            for i in range(from_level, to_level):
                f = f * sums[i]
            return f

        memo: dict[int, object] = {0: 0, 1: 1}
        level = self.level
        for u in sorted(self.reachable(root)):
            if u <= 1:
                continue
            lvl = level[u]
            w0, w1 = weights[self.vars[lvl]]
            lo, hi = self.lo[u], self.hi[u]
            lo_val = memo[lo] * gap(lvl + 1, level[lo])
            hi_val = memo[hi] * gap(lvl + 1, level[hi])
            memo[u] = w0 * lo_val + w1 * hi_val
        return memo[root] * gap(0, level[root])

    def probability(self, root: int, prob: Mapping[str, float], *, exact: bool = False):
        weights = exact_weights(prob) if exact else float_weights(prob)
        value = self.weighted_count(root, weights)
        return Fraction(value) if exact else float(value)

    def evaluate(self, root: int, assignment: Mapping[str, int]) -> bool:
        w = root
        while w > 1:
            v = self.vars[self.level[w]]
            w = self.hi[w] if assignment[v] else self.lo[w]
        return bool(w)

    # ------------------------------------------------------------------
    def to_manager(self):
        """Rebuild a live :class:`ObddManager`; returns ``(manager,
        roots)``.  Stored nodes are reduced (``lo != hi``, interned), so
        ascending re-insertion reproduces identical node ids."""
        from ..obdd.obdd import ObddManager

        mgr = ObddManager(list(self.vars))
        idmap = {0: 0, 1: 1}
        for u in range(2, len(self.level)):
            idmap[u] = mgr.node(self.level[u], idmap[self.lo[u]], idmap[self.hi[u]])
        return mgr, [idmap[r] for r in self.roots]

    def stats(self) -> dict[str, int]:
        return {
            "frozen_vars": len(self.vars),
            "frozen_nodes": len(self.level),
            "frozen_roots": len(self.roots),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FrozenObdd(nodes={len(self.level)}, roots={len(self.roots)})"


# ======================================================================
# FrozenCompiled — the Compiled protocol over a frozen store
# ======================================================================
class FrozenCompiled:
    """A loaded compilation result satisfying the ``Compiled`` protocol.

    Wraps one frozen store plus the metadata and circuit saved alongside
    it, and answers every uniform accessor (``size``, ``width``,
    ``model_count()``, ``probability()``, ``evaluate()``) with the same
    values — float probabilities bit-identical — as the live ``Compiled``
    it was saved from, without rebuilding any manager.  The one
    exception is the ``canonical`` backend's float path, which the live
    object answers from its truth-table ``BooleanFunction``; that
    function is reconstructed lazily from the saved circuit here.
    """

    def __init__(self, store, *, meta: Mapping, circuit):
        self.store = store
        self.meta = dict(meta)
        self.backend: str = self.meta["backend"]
        self.circuit = circuit
        self.root: int = store.roots[0]
        self.strategy: str = self.meta.get("strategy", "")
        self.decomposition_width = self.meta.get("decomposition_width")
        if isinstance(store, FrozenSdd):
            self.vtree = store.vtree()
        elif self.meta.get("vtree_postfix") is not None:
            self.vtree = Vtree.from_postfix(self.meta["vtree_postfix"])
        else:
            self.vtree = None
        self._function = None

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.meta["size"]

    @property
    def width(self) -> int:
        return self.meta["width"]

    @property
    def circuit_variables(self) -> set[str]:
        return set(map(str, self.circuit.variables))

    def _fill_extra(self, prob, extra):
        from ..compiler.backends import _fill_extra

        return _fill_extra(prob, extra)

    def _fn(self):
        if self._function is None:
            self._function = self.circuit.function()
        return self._function

    # ------------------------------------------------------------------
    def model_count(self) -> int:
        if self.backend == "canonical":
            return self._fn().count_models()
        if self.backend == "ddnnf":
            return self.store.model_count(self.root, self.circuit.variables)
        if self.backend == "obdd":
            base = self.store.count_models(self.root)
            extra = set(self.store.vars) - self.circuit_variables
            return base >> len(extra)
        base = self.store.model_count(self.root, self.circuit.variables)
        extra = self.vtree.variables - self.circuit_variables
        return base >> len(extra)

    def probability(self, prob: Mapping[str, float], *, exact: bool = False):
        if self.backend == "canonical":
            if exact:
                weights = exact_weights(
                    self._fill_extra(prob, self.vtree.variables)
                )
                return Fraction(self.store.weighted_count(self.root, weights))
            return self._fn().probability(prob)
        if self.backend == "ddnnf":
            return self.store.probability(self.root, prob, exact=exact)
        if self.backend == "obdd":
            full = self._fill_extra(prob, set(self.store.vars))
            weights = exact_weights(full) if exact else float_weights(full)
            value = self.store.weighted_count(self.root, weights)
            return Fraction(value) if exact else float(value)
        full = self._fill_extra(prob, self.vtree.variables)
        return self.store.probability(self.root, full, exact=exact)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        if self.backend == "canonical":
            return bool(self._fn()(dict(assignment)))
        return self.store.evaluate(self.root, assignment)

    def stats(self) -> dict[str, int]:
        out = {"frozen": 1}
        out.update(self.store.stats())
        return out

    def save(self, path) -> None:
        """Re-save (round-trips exactly: same sections, same meta)."""
        from .format import _write_compiled_store

        _write_compiled_store(path, self.store, self.meta, self.circuit)

    def close(self) -> None:
        self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FrozenCompiled backend={self.backend!r} "
            f"vars={len(self.circuit_variables)} size={self.size}>"
        )
