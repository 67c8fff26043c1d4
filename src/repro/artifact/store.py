"""Immutable array-backed node stores for compiled circuits.

A *frozen* store is the flat, position-indexed twin of a live structure:

- :class:`FrozenSdd`   ↔ :class:`repro.sdd.manager.SddManager` (one vtree,
  many pinned roots),
- :class:`FrozenDdnnf` ↔ :class:`repro.dnnf.nodes.DnnfDag`,
- :class:`FrozenObdd`  ↔ :class:`repro.obdd.obdd.ObddManager`.

Each holds nothing but integer tables (node kinds, element pairs, child
lists, vtree shape) plus a variable-name table — exactly the sections of
the on-disk artifact format, which each store declares once as its
``KIND`` and ``SECTIONS`` rows.  A store can either be **frozen** from a
node table (the table's ``freeze``, i.e. ``from_manager`` /
``from_dag``; a frozen store re-freezes to the same tables) or **wrap
an mmap-ed file read-only** with zero copying (:meth:`load`): element and
child lists are served as ``zip``s and slices straight over the mapped
page cache, and N worker processes opening the same path share one
physical copy of the compiled circuit.

One evaluator, two node tables.  Each store exposes the read-only node
table its live twin has (:class:`repro.sdd.wmc.SddNodeTable`,
:class:`repro.dnnf.nodes.DnnfNodeTable`,
:class:`repro.obdd.obdd.ObddNodeTable`) and inherits every query from
it: WMC through the unchanged :class:`repro.sdd.wmc.SddWmcEvaluator` and
:class:`repro.dnnf.wmc.DnnfWmcEvaluator`, model count, evaluate,
size/width.  Only the per-node ``kind`` and ``vnode`` columns and the
literals' variables and signs become per-process lists.  Live and frozen
answers therefore run the same code —
float results are equal **bit-for-bit** by construction, which is what
lets a warm-started worker pool assert answers identical to the process
that compiled the artifact.

Freezing renumbers nodes into a canonical dense id space (constants,
then literals sorted by ``(var, sign)``, then decisions in creation-stamp
order), so ``freeze → write → load`` is deterministic and ascending-id
sweeps stay topological.  The thaw paths (:meth:`FrozenSdd.to_manager`,
:meth:`FrozenDdnnf.to_dag`, :meth:`FrozenObdd.to_manager`) rebuild live
structures for sessions that need apply/minimize on a loaded artifact.
"""

from __future__ import annotations

import json
import traceback
from array import array
from itertools import islice
from typing import Mapping, Sequence

from ..core.vtree import Vtree
from ..dnnf.nodes import DnnfDag, DnnfNodeTable
from ..obdd.obdd import ObddNodeTable
from ..sdd.wmc import SddNodeTable
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
    "FrozenDdnnf",
    "FrozenObdd",
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


# How each section dtype is written, and read back as a (zero-copy) view.
_ENCODE = {
    DTYPE_BYTES: pack_strings,
    DTYPE_U8: lambda values: bytes(bytearray(values)),
    DTYPE_I32: _i32,
    DTYPE_I64: _i64,
}
_DECODE = {
    DTYPE_BYTES: Artifact.strings,
    DTYPE_U8: Artifact.raw,
    DTYPE_I32: Artifact.i32,
    DTYPE_I64: Artifact.i64,
}


class _FrozenStore:
    """The artifact side of a frozen store, declared once per store.

    A store names its artifact ``KIND`` and its ``SECTIONS``: rows of
    ``(section, dtype, attribute)`` in file order, which is also the
    order its constructor takes the tables in — the ``vars`` row first,
    the ``roots`` row last.  Optional ``rootnames`` and ``meta`` sections
    follow them.  Reading, writing and unmapping are then the same code
    for every store.
    """

    KIND: int
    SECTIONS: tuple[tuple[str, int, str], ...]

    def _init_roots(self, vars, roots, root_names, meta, artifact) -> str | None:
        """Set the fields every store has; returns the artifact path for
        error messages."""
        self.vars = list(vars)
        self.roots = list(roots)
        self.root_names = list(root_names) if root_names is not None else None
        self.meta = dict(meta) if meta else {}
        self._artifact = artifact
        return artifact.path if artifact is not None else None

    def _check_roots(self, n_nodes: int, path: str | None) -> None:
        for r in self.roots:
            if not 0 <= r < n_nodes:
                raise ArtifactError(f"root id {r} out of range", path=path)
        if self.root_names is not None and len(self.root_names) != len(self.roots):
            raise ArtifactError("root name count mismatch", path=path)

    @classmethod
    def from_artifact(cls, art: Artifact):
        """Wrap a parsed artifact's sections (zero copy)."""
        if art.kind != cls.KIND:
            raise ArtifactError(
                f"artifact kind {art.kind} is not a {cls.__name__} store",
                offset=10, path=art.path,
            )
        tables = [_DECODE[dtype](art, name) for name, dtype, _ in cls.SECTIONS]
        names = art.strings("rootnames") if "rootnames" in art else None
        return cls(*tables, root_names=names, meta=_read_meta(art), _artifact=art)

    @classmethod
    def load(cls, path, *, use_mmap: bool = True):
        """mmap an artifact file read-only and wrap it (zero copy)."""
        return _open_store(cls, open_artifact(path, expect_kind=cls.KIND, use_mmap=use_mmap))

    def sections(self) -> list[tuple[str, int, bytes]]:
        out = [
            (name, dtype, _ENCODE[dtype](getattr(self, attr)))
            for name, dtype, attr in self.SECTIONS
        ]
        if self.root_names is not None:
            out.append(("rootnames", DTYPE_BYTES, pack_strings(self.root_names)))
        if self.meta:
            out.append(("meta", DTYPE_BYTES, _meta_bytes(self.meta)))
        return out

    def write(self, path) -> None:
        write_artifact(path, self.KIND, self.sections())

    def close(self) -> None:
        if self._artifact is None:
            return
        # Zero-copy tables are casted memoryviews into the mmap; they pin
        # the mapping, so they are released before the file is unmapped.
        for _, _, attr in self.SECTIONS:
            value = getattr(self, attr)
            if isinstance(value, memoryview):
                value.release()
                setattr(self, attr, None)
        self._artifact.close()
        self._artifact = None


def _open_store(cls, art: Artifact):
    """``cls.from_artifact(art)``; a rejected artifact is closed before the
    :class:`ArtifactError` propagates."""
    try:
        return cls.from_artifact(art)
    except ArtifactError as exc:
        # The rejected constructor's frames, kept alive by the traceback,
        # still hold views into the mapping: clear them, or unmapping fails.
        traceback.clear_frames(exc.__traceback__)
        art.close()
        raise


class _ElementPairs:
    """``node_elements`` of a frozen SDD: decision ``u``'s ``(prime, sub)``
    pairs as a ``zip`` over its slice of the element table (no copy, no
    per-access tuples)."""

    __slots__ = ("elems", "off", "base")

    def __init__(self, elems: Sequence[int], off: Sequence[int], base: int):
        self.elems = elems
        self.off = off
        self.base = base

    def __getitem__(self, u: int):
        j = u - self.base
        a, b = 2 * self.off[j], 2 * self.off[j + 1]
        return zip(self.elems[a:b:2], self.elems[a + 1:b:2])


# ======================================================================
# FrozenSdd
# ======================================================================
class FrozenSdd(_FrozenStore, SddNodeTable):
    """An immutable compiled SDD: vtree + node tables + named roots.

    Node id space: ``0`` = FALSE, ``1`` = TRUE, then ``n_lits`` literals,
    then ``n_decs`` decision nodes; decision children always have smaller
    ids, so ascending id order is topological (``node_stamp`` is
    ``range``).  The vtree is stored as postfix codes over positions
    ``0..m-1`` (leaf → index into the variable table, internal → ``-1``);
    position ``m-1`` is the root, and postfix order is the postorder
    :class:`~repro.sdd.wmc.SddWmcEvaluator` sweeps.
    """

    KIND = KIND_SDD
    SECTIONS = (
        ("vars", DTYPE_BYTES, "vars"),
        ("vt", DTYPE_I32, "vt"),
        ("lits", DTYPE_I32, "lits"),
        ("decvn", DTYPE_I32, "dec_vnode"),
        ("decoff", DTYPE_I64, "dec_off"),
        ("elems", DTYPE_I32, "elems"),
        ("roots", DTYPE_I64, "roots"),
    )

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
        path = self._init_roots(vars, roots, root_names, meta, _artifact)
        self.vt = vt
        self.lits = lits
        self.dec_vnode = dec_vnode
        self.dec_off = dec_off
        self.elems = elems
        # --- derive + validate the vtree shape ------------------------
        m = len(vt)
        n_vars = len(self.vars)
        if m != 2 * n_vars - 1 or n_vars == 0:
            raise ArtifactError(
                f"vtree postfix of {m} codes does not fit {n_vars} variables",
                path=path,
            )
        v_left: list[int | None] = [None] * m
        v_right: list[int | None] = [None] * m
        v_parent: list[int | None] = [None] * m
        # The subtree of postfix position k spans positions v_first[k]..k.
        v_first = list(range(m))
        leaf_pos = [-1] * n_vars
        stack: list[int] = []
        for k, c in enumerate(vt):
            if c == -1:
                if len(stack) < 2:
                    raise ArtifactError("malformed vtree postfix", path=path)
                r = stack.pop()
                left = stack.pop()
                v_left[k], v_right[k] = left, r
                v_parent[left] = v_parent[r] = k
                v_first[k] = v_first[left]
            else:
                if not 0 <= c < n_vars or leaf_pos[c] != -1:
                    raise ArtifactError(
                        f"bad vtree leaf code {c} at position {k}", path=path
                    )
                leaf_pos[c] = k
            stack.append(k)
        if len(stack) != 1:
            raise ArtifactError("malformed vtree postfix", path=path)
        names = self.vars
        leaf_of_var = dict(zip(names, leaf_pos))
        if len(leaf_of_var) != n_vars:
            raise ArtifactError("duplicate variable names", path=path)
        # --- validate node tables -------------------------------------
        self.n_lits = len(lits)
        self.n_decs = len(dec_vnode)
        self.dec_base = base = 2 + self.n_lits
        self.node_count_total = base + self.n_decs
        if self.n_lits and not (min(lits) >= 0 and max(lits) < 2 * n_vars):
            i = next(i for i, code in enumerate(lits) if not 0 <= code < 2 * n_vars)
            raise ArtifactError(f"bad literal code at index {i}", path=path)
        node_vnode = [-1, -1] + [leaf_pos[code >> 1] for code in lits]
        if len(dec_off) != self.n_decs + 1 or dec_off[0] != 0:
            raise ArtifactError("bad decision offset table", path=path)
        if len(elems) != 2 * dec_off[self.n_decs]:
            raise ArtifactError("element table length mismatch", path=path)
        pairs = zip(elems[::2], elems[1::2])
        decisions = zip(dec_vnode, dec_off, islice(dec_off, 1, None))
        for uid, (vn, a, b) in enumerate(decisions, base):
            if a > b:
                raise ArtifactError(
                    f"decision offsets not monotone at {uid - base}", path=path
                )
            if not 0 <= vn < m or (vl := v_left[vn]) is None:
                raise ArtifactError(
                    f"decision {uid - base} at invalid vtree position {vn}", path=path
                )
            # Primes sit under the left child, subs under the right one
            # (constants anywhere): the WMC gap climb relies on it.
            first = v_first[vn]
            for p, s in islice(pairs, b - a):
                if not (0 <= p < uid and 0 <= s < uid):
                    bad = s if 0 <= p < uid else p
                    raise ArtifactError(
                        f"decision {uid - base} references child {bad} "
                        "(not topological)", path=path,
                    )
                if p > 1 and not first <= node_vnode[p] <= vl:
                    raise ArtifactError(
                        f"decision {uid - base}: prime {p} is not under the left "
                        f"vtree child of position {vn}", path=path,
                    )
                if s > 1 and not vl < node_vnode[s] < vn:
                    raise ArtifactError(
                        f"decision {uid - base}: sub {s} is not under the right "
                        f"vtree child of position {vn}", path=path,
                    )
            node_vnode.append(vn)
        self._check_roots(self.node_count_total, path)
        # --- the node-table protocol (SddNodeTable) ---------------------
        self.node_kind = ["false", "true"] + ["lit"] * self.n_lits + ["dec"] * self.n_decs
        self.node_var = [None, None] + [names[code >> 1] for code in lits]
        self.node_sign = [None, None] + [code & 1 == 1 for code in lits]
        self.node_vnode = node_vnode
        self.node_elements = _ElementPairs(elems, dec_off, base)
        self.node_stamp = range(self.node_count_total)
        self.v_left = v_left
        self.v_right = v_right
        self.v_parent = v_parent
        self.v_root = m - 1
        self.leaf_of_var = leaf_of_var
        self.variables = frozenset(self.vars)

    def vtree_postorder(self) -> range:
        return range(len(self.vt))

    def register_wmc_cache(self, cache) -> None:
        """Nothing to register: frozen node ids never die and the vtree
        never rotates, so an evaluator's memo never goes stale."""

    def element_count(self, u: int) -> int:
        j = u - self.dec_base
        return self.dec_off[j + 1] - self.dec_off[j]

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
        """Freeze ``roots`` of any SDD node table: a live
        :class:`SddManager`, or a frozen store (which re-freezes to the
        same tables when ``roots`` are all of its roots).

        Uses the table's *current* postorder (correct after in-place
        rotations) and renumbers: literals sorted by ``(var, sign)``,
        decisions by creation stamp — child stamps precede parents, so
        the frozen ids are topological by construction.
        """
        order = mgr.vtree_postorder()
        var_at = {vi: var for var, vi in mgr.leaf_of_var.items()}
        pos: dict[int, int] = {}
        vars_tab: list[str] = []
        var_idx: dict[str, int] = {}
        vt: list[int] = []
        for k, vi in enumerate(order):
            pos[vi] = k
            if mgr.v_left[vi] is None:
                var = var_at[vi]
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

    # ------------------------------------------------------------------
    # vtree and roots
    # ------------------------------------------------------------------
    def vtree(self) -> Vtree:
        return Vtree.from_postfix(
            [self.vars[c] if c >= 0 else None for c in self.vt]
        )

    def root_named(self, name: str) -> int:
        if self.root_names is None:
            raise KeyError(name)
        return self.roots[self.root_names.index(name)]

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
                (idmap[p], idmap[s]) for p, s in self.node_elements[uid]
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


# ======================================================================
# FrozenDdnnf
# ======================================================================
_K_FALSE, _K_TRUE, _K_LIT, _K_AND, _K_OR = 0, 1, 2, 3, 4
_KIND_NAMES = ("const", "const", "lit", "and", "or")


class _ChildSlices:
    """``node_children`` of a frozen d-DNNF: node ``u``'s slice of the
    child table (a view, no copy, when the table is mmap-ed)."""

    __slots__ = ("children", "off")

    def __init__(self, children: Sequence[int], off: Sequence[int]):
        self.children = children
        self.off = off

    def __getitem__(self, u: int):
        return self.children[self.off[u]:self.off[u + 1]]


class FrozenDdnnf(_FrozenStore, DnnfNodeTable):
    """An immutable smooth d-DNNF DAG: kinds, literal codes, child lists.

    Ids ``0``/``1`` are FALSE/TRUE; children always have smaller ids
    (the monotone renumbering of a hash-consed DAG), so ascending order
    is topological.
    """

    KIND = KIND_DDNNF
    SECTIONS = (
        ("vars", DTYPE_BYTES, "vars"),
        ("kinds", DTYPE_U8, "kinds"),
        ("litv", DTYPE_I32, "litv"),
        ("choff", DTYPE_I64, "ch_off"),
        ("children", DTYPE_I32, "children"),
        ("roots", DTYPE_I64, "roots"),
    )

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
        path = self._init_roots(vars, roots, root_names, meta, _artifact)
        self.kinds = kinds
        self.litv = litv
        self.ch_off = ch_off
        self.children = children
        n = len(kinds)
        if n < 2 or kinds[0] != _K_FALSE or kinds[1] != _K_TRUE:
            raise ArtifactError("d-DNNF store missing constant nodes", path=path)
        if len(litv) != n or len(ch_off) != n + 1 or ch_off[0] != 0:
            raise ArtifactError("d-DNNF table length mismatch", path=path)
        if len(children) != ch_off[n]:
            raise ArtifactError("child table length mismatch", path=path)
        if ch_off[1] or ch_off[2]:
            raise ArtifactError("constant nodes have children", path=path)
        # The node-table protocol (DnnfNodeTable): kinds as a per-process
        # list, literal variables and signs keyed by literal id.
        node_kind = list(_KIND_NAMES[:2])
        node_var: dict[int, str] = {}
        node_sign: dict[int, bool] = {}
        for u in range(2, n):
            k = kinds[u]
            if k not in (_K_LIT, _K_AND, _K_OR):
                raise ArtifactError(f"bad node kind {k} at id {u}", path=path)
            a, b = ch_off[u], ch_off[u + 1]
            if a > b:
                raise ArtifactError(f"child offsets not monotone at {u}", path=path)
            if k == _K_LIT:
                code = litv[u]
                if not 0 <= code < 2 * len(self.vars) or a != b:
                    raise ArtifactError(f"bad literal code at id {u}", path=path)
                node_var[u] = self.vars[code >> 1]
                node_sign[u] = bool(code & 1)
            for c in children[a:b]:
                if not 0 <= c < u:
                    raise ArtifactError(
                        f"node {u} references child {c} (not topological)", path=path
                    )
            node_kind.append(_KIND_NAMES[k])
        self._check_roots(n, path)
        self.node_kind = node_kind
        self.node_var = node_var
        self.node_sign = node_sign
        self.node_children = _ChildSlices(children, ch_off)
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
        """Freeze ``roots`` of any d-DNNF node table, live or frozen
        (monotone renumber: DAG ids are creation-order topological, so
        sorted-children invariants survive)."""
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

    # ------------------------------------------------------------------
    def to_dag(self):
        """Rebuild a live :class:`DnnfDag`; returns ``(dag, roots)``.

        The stored nodes are already canonical (no constant children, no
        single-child gates, AND children sorted), so re-interning them in
        ascending order reproduces the structure exactly.
        """
        dag = DnnfDag()
        idmap = {_FALSE: _FALSE, _TRUE: _TRUE}
        for u in range(2, len(self.kinds)):
            k = self.kinds[u]
            if k == _K_LIT:
                code = self.litv[u]
                idmap[u] = dag.literal(self.vars[code >> 1], bool(code & 1))
            elif k == _K_AND:
                idmap[u] = dag.conjoin([idmap[c] for c in self.node_children[u]])
            else:
                idmap[u] = dag.disjoin([idmap[c] for c in self.node_children[u]])
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


# ======================================================================
# FrozenObdd
# ======================================================================
class FrozenObdd(_FrozenStore, ObddNodeTable):
    """An immutable reduced OBDD: variable order + level/lo/hi tables.

    Ids ``0``/``1`` are the terminals (stored at level ``n`` with child
    slots ``-1``); internal nodes follow in topological (ascending)
    order, exactly like a live :class:`ObddManager`.
    """

    KIND = KIND_OBDD
    SECTIONS = (
        ("vars", DTYPE_BYTES, "vars"),
        ("level", DTYPE_I32, "level"),
        ("lo", DTYPE_I32, "lo"),
        ("hi", DTYPE_I32, "hi"),
        ("roots", DTYPE_I64, "roots"),
    )

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
        path = self._init_roots(vars, roots, root_names, meta, _artifact)
        self.level = level
        self.lo = lo
        self.hi = hi
        n = len(self.vars)
        self.order = tuple(self.vars)
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
        self._check_roots(m, path)

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
        """Freeze ``roots`` of any OBDD node table, live or frozen (ids
        are creation-order topological, so a monotone renumber
        suffices)."""
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
