"""Artifact kinds: what goes inside the container for each structure.

:mod:`repro.artifact.encoding` owns the framing (magic, version, CRC,
section directory); this module owns the per-kind section schemas and the
public save/load surface:

========  =======================  ==========================================
kind      payload sections         loader
========  =======================  ==========================================
VTREE     ``vars``, ``vt``         :func:`load_vtree`
SDD       FrozenSdd tables         :class:`~repro.artifact.store.FrozenSdd`
DDNNF     FrozenDdnnf tables       :class:`~repro.artifact.store.FrozenDdnnf`
OBDD      FrozenObdd tables        :class:`~repro.artifact.store.FrozenObdd`
NNF       ``json``                 :func:`nnf_from_bytes`
CIRCUIT   ``json``                 :func:`circuit_from_bytes`
========  =======================  ==========================================

Compiled artifacts (``Compiled.save(path)`` / :func:`load_compiled`) are
SDD/DDNNF/OBDD stores carrying two extra sections: ``meta`` (backend,
strategy, size, width, …) and ``circuit`` (the compiled circuit).  A
result saves its table's frozen store, and loading rebuilds the same
``Compiled`` class over that store, so a loaded handle answers
``model_count``/``probability`` through the very code the live one ran.

The module also speaks the **pysdd text convention** (``.sdd`` /
``.vtree`` files as used by the SDD package ecosystem and the nnf2sdd
exemplar): :func:`write_pysdd` / :func:`read_pysdd` and the string-level
:func:`export_vtree_text` / :func:`export_sdd_text` /
:func:`import_sdd_text`.  Caveats: the text format identifies variables
by 1-based integers, so names ride along in ``c var`` comment lines (and
default to ``v<i>`` on import); foreign files may contain decision nodes
our manager would have trimmed — they load fine into a
:class:`FrozenSdd`, but :meth:`FrozenSdd.to_manager` re-canonicalizes.
"""

from __future__ import annotations

import json
from typing import Sequence

from ..core.vtree import Vtree
from .encoding import (
    DTYPE_BYTES,
    DTYPE_I32,
    KIND_CIRCUIT,
    KIND_DDNNF,
    KIND_NNF,
    KIND_OBDD,
    KIND_SDD,
    KIND_VTREE,
    Artifact,
    ArtifactError,
    load_artifact_bytes,
    open_artifact,
    pack_artifact,
    pack_strings,
    write_artifact,
)
from .store import FrozenDdnnf, FrozenObdd, FrozenSdd, _i32, _open_store

__all__ = [
    "KIND_VTREE",
    "KIND_SDD",
    "KIND_DDNNF",
    "KIND_OBDD",
    "KIND_NNF",
    "KIND_CIRCUIT",
    "vtree_to_bytes",
    "vtree_from_bytes",
    "save_vtree",
    "load_vtree",
    "nnf_to_bytes",
    "nnf_from_bytes",
    "circuit_to_bytes",
    "circuit_from_bytes",
    "write_compiled",
    "load_compiled",
    "load_store",
    "export_vtree_text",
    "export_sdd_text",
    "import_vtree_text",
    "import_sdd_text",
    "write_pysdd",
    "read_pysdd",
]


# ----------------------------------------------------------------------
# vtrees
# ----------------------------------------------------------------------
def _vtree_sections(vtree: Vtree) -> list[tuple[str, int, bytes]]:
    vars_tab: list[str] = []
    codes: list[int] = []
    for op in vtree.to_postfix():
        if op is None:
            codes.append(-1)
        else:
            codes.append(len(vars_tab))
            vars_tab.append(op)
    return [
        ("vars", DTYPE_BYTES, pack_strings(vars_tab)),
        ("vt", DTYPE_I32, _i32(codes)),
    ]


def vtree_to_bytes(vtree: Vtree) -> bytes:
    """A standalone vtree artifact image (kind ``VTREE``)."""
    return pack_artifact(KIND_VTREE, _vtree_sections(vtree))


def _vtree_from_artifact(art: Artifact) -> Vtree:
    vars_tab = art.strings("vars")
    ops: list[str | None] = []
    for c in art.i32("vt"):
        if c == -1:
            ops.append(None)
        elif 0 <= c < len(vars_tab):
            ops.append(vars_tab[c])
        else:
            raise ArtifactError(f"bad vtree leaf code {c}", path=art.path)
    try:
        return Vtree.from_postfix(ops)
    except ValueError as exc:
        raise ArtifactError(str(exc), path=art.path) from None


def vtree_from_bytes(data: bytes) -> Vtree:
    with load_artifact_bytes(data, expect_kind=KIND_VTREE) as art:
        return _vtree_from_artifact(art)


def save_vtree(path, vtree: Vtree) -> None:
    write_artifact(path, KIND_VTREE, _vtree_sections(vtree))


def load_vtree(path) -> Vtree:
    with open_artifact(path, expect_kind=KIND_VTREE) as art:
        return _vtree_from_artifact(art)


# ----------------------------------------------------------------------
# NNF / circuit payloads (the consolidated framing for
# repro.circuits.serialize — one container, one varint codec, one CRC)
# ----------------------------------------------------------------------
def _json_artifact(kind: int, payload: dict) -> bytes:
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    return pack_artifact(kind, [("json", DTYPE_BYTES, data)])


def _json_payload(data: bytes, kind: int) -> dict:
    with load_artifact_bytes(data, expect_kind=kind) as art:
        try:
            return json.loads(bytes(art.raw("json")).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ArtifactError("corrupt json payload", path=art.path) from None


def nnf_to_bytes(root) -> bytes:
    """Serialize an NNF DAG into the shared artifact container."""
    from ..circuits.serialize import nnf_to_dict

    return _json_artifact(KIND_NNF, nnf_to_dict(root))


def nnf_from_bytes(data: bytes):
    from ..circuits.serialize import nnf_from_dict

    return nnf_from_dict(_json_payload(data, KIND_NNF))


def circuit_to_bytes(circuit) -> bytes:
    """Serialize a circuit into the shared artifact container."""
    from ..circuits.serialize import circuit_to_dict

    return _json_artifact(KIND_CIRCUIT, circuit_to_dict(circuit))


def circuit_from_bytes(data: bytes):
    from ..circuits.serialize import circuit_from_dict

    return circuit_from_dict(_json_payload(data, KIND_CIRCUIT))


# ----------------------------------------------------------------------
# compiled artifacts
# ----------------------------------------------------------------------
def write_compiled(path, store, circuit) -> None:
    """Write a frozen ``store`` (its meta included) plus a ``circuit``
    section: the artifact ``Compiled.save`` writes."""
    from ..circuits.serialize import circuit_to_dict

    data = json.dumps(circuit_to_dict(circuit), sort_keys=True).encode("utf-8")
    write_artifact(path, store.KIND, store.sections() + [("circuit", DTYPE_BYTES, data)])


def load_store(path, *, use_mmap: bool = True):
    """Open any SDD/DDNNF/OBDD artifact as the frozen store of its kind."""
    art = open_artifact(path, use_mmap=use_mmap)
    for cls in (FrozenSdd, FrozenDdnnf, FrozenObdd):
        if cls.KIND == art.kind:
            return _open_store(cls, art)
    art.close()
    raise ArtifactError(f"artifact kind {art.kind} is not a compiled store", path=art.path)


def load_compiled(path, *, use_mmap: bool = True):
    """Load a ``Compiled.save()`` artifact as the ``Compiled`` class that
    saved it (:class:`~repro.compiler.backends.ApplyCompiled`, ...), over
    the frozen store.

    The store sections are mmap-backed (zero copy); the small meta and
    circuit sections are decoded eagerly.
    """
    from ..circuits.serialize import circuit_from_dict
    from ..compiler import backends

    store = load_store(path, use_mmap=use_mmap)
    art = store._artifact
    try:
        if "circuit" not in art:
            raise ArtifactError(
                "artifact has no circuit section (an engine artifact? "
                "use FrozenSdd.load instead)", path=art.path,
            )
        try:
            circuit = circuit_from_dict(json.loads(bytes(art.raw("circuit")).decode("utf-8")))
        except (ValueError, UnicodeDecodeError):
            raise ArtifactError("corrupt circuit section", path=art.path) from None
        classes = (backends.CanonicalCompiled, backends.ApplyCompiled,
                   backends.ObddCompiled, backends.DdnnfCompiled)
        cls = {c.backend: c for c in classes}.get(store.meta.get("backend"))
        if cls is None or "size" not in store.meta:
            raise ArtifactError("compiled artifact missing meta fields", path=art.path)
        return cls._from_store(store, circuit)
    except ArtifactError:
        store.close()
        raise


# ----------------------------------------------------------------------
# pysdd text convention (.vtree / .sdd)
# ----------------------------------------------------------------------
def export_vtree_text(vtree: Vtree) -> str:
    """The pysdd ``.vtree`` file: nodes bottom-up, ids = postorder
    positions, variables 1-based in left-to-right leaf order.  Variable
    names ride in ``c var`` comments (ignored by other readers)."""
    lines = [
        "c ids of vtree nodes start at 0",
        "c ids of variables start at 1",
        "c vtree nodes appear bottom-up, children before parents",
    ]
    ops = vtree.to_postfix()
    leaves = [op for op in ops if op is not None]
    for i, name in enumerate(leaves):
        lines.append(f"c var {i + 1} {name}")
    lines.append(f"vtree {len(ops)}")
    var_no = 0
    stack: list[int] = []
    for k, op in enumerate(ops):
        if op is None:
            right = stack.pop()
            left = stack.pop()
            lines.append(f"I {k} {left} {right}")
        else:
            var_no += 1
            lines.append(f"L {k} {var_no}")
        stack.append(k)
    return "\n".join(lines) + "\n"


def export_sdd_text(frozen: FrozenSdd, root: int | None = None) -> str:
    """The pysdd ``.sdd`` file for one root: nodes children-first, root
    last; literals are signed 1-based variable ints; every node carries
    the id of the vtree node it is normalized for."""
    if root is None:
        root = frozen.roots[0]
    order = sorted(frozen.reachable(root))
    fid = {u: i for i, u in enumerate(order)}
    lines = [
        "c ids of sdd nodes start at 0",
        "c sdd nodes appear bottom-up, children before parents",
        f"sdd {len(order)}",
    ]
    for u in order:
        if u == 0:
            lines.append(f"F {fid[u]}")
        elif u == 1:
            lines.append(f"T {fid[u]}")
        elif u < frozen.dec_base:
            code = frozen.lits[u - 2]
            var_no = (code >> 1) + 1
            lit = var_no if code & 1 else -var_no
            lines.append(f"L {fid[u]} {frozen.node_vnode[u]} {lit}")
        else:
            parts = [f"D {fid[u]} {frozen.node_vnode[u]}", str(frozen.element_count(u))]
            for p, s in frozen.node_elements[u]:
                parts.append(f"{fid[p]} {fid[s]}")
            lines.append(" ".join(parts))
    # Root-last convention: move the root's line to the end if it is not
    # already there (ascending frozen ids put it last except when the
    # root is a constant or literal under other reachable nodes — which
    # cannot happen: the root is the maximal reachable id or a constant).
    return "\n".join(lines) + "\n"


def import_vtree_text(text: str):
    """Parse a pysdd ``.vtree`` file.

    Returns ``(vars_tab, vt_codes, pos_of_file_id, idx_of_var_int)`` —
    everything both :func:`import_sdd_text` and plain vtree loading need.
    """
    names: dict[int, str] = {}
    leaves: dict[int, int] = {}
    internals: dict[int, tuple[int, int]] = {}
    declared: int | None = None
    for ln, line in enumerate(text.splitlines(), 1):
        toks = line.split()
        if not toks:
            continue
        if toks[0] == "c":
            if len(toks) >= 4 and toks[1] == "var":
                try:
                    names[int(toks[2])] = " ".join(toks[3:])
                except ValueError:
                    pass
            continue
        try:
            if toks[0] == "vtree" and len(toks) == 2:
                declared = int(toks[1])
            elif toks[0] == "L" and len(toks) == 3:
                leaves[int(toks[1])] = int(toks[2])
            elif toks[0] == "I" and len(toks) == 4:
                internals[int(toks[1])] = (int(toks[2]), int(toks[3]))
            else:
                raise ValueError
        except ValueError:
            raise ArtifactError(f"bad vtree line {ln}: {line!r}") from None
    node_ids = set(leaves) | set(internals)
    if not node_ids:
        raise ArtifactError("empty vtree file")
    if declared is not None and declared != len(node_ids):
        raise ArtifactError(
            f"vtree header declares {declared} nodes, file has {len(node_ids)}"
        )
    children = {c for lr in internals.values() for c in lr}
    roots = node_ids - children
    if len(roots) != 1:
        raise ArtifactError(f"vtree file has {len(roots)} roots")
    (root,) = roots
    # Iterative postorder over the file's tree.
    vars_tab: list[str] = []
    idx_of_var_int: dict[int, int] = {}
    vt_codes: list[int] = []
    pos_of_file_id: dict[int, int] = {}
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        nid, expanded = stack.pop()
        if expanded or nid in leaves:
            pos_of_file_id[nid] = len(vt_codes)
            if nid in leaves:
                var_int = leaves[nid]
                if var_int in idx_of_var_int:
                    raise ArtifactError(f"duplicate variable {var_int} in vtree file")
                idx_of_var_int[var_int] = len(vars_tab)
                vt_codes.append(len(vars_tab))
                vars_tab.append(names.get(var_int, f"v{var_int}"))
            else:
                vt_codes.append(-1)
        else:
            left, right = internals[nid]
            if left not in node_ids or right not in node_ids:
                raise ArtifactError(f"vtree node {nid} has undefined children")
            stack.append((nid, True))
            stack.append((right, False))
            stack.append((left, False))
    if len(vt_codes) != len(node_ids):
        raise ArtifactError("vtree file is not a tree (shared or cyclic nodes)")
    return vars_tab, vt_codes, pos_of_file_id, idx_of_var_int


def vtree_from_pysdd(text: str) -> Vtree:
    vars_tab, vt_codes, _, _ = import_vtree_text(text)
    return Vtree.from_postfix(
        [vars_tab[c] if c >= 0 else None for c in vt_codes]
    )


def import_sdd_text(sdd_text: str, vtree_text: str) -> FrozenSdd:
    """Parse a pysdd ``.sdd`` + ``.vtree`` pair into a :class:`FrozenSdd`
    (one root: the last node listed, per the convention)."""
    vars_tab, vt_codes, pos_of_file_id, idx_of_var_int = import_vtree_text(vtree_text)
    lits_by_file: dict[int, tuple[int, bool]] = {}
    decs: list[tuple[int, int, list[tuple[int, int]]]] = []  # (file id, vnode pos, elements)
    consts: dict[int, int] = {}
    declared: int | None = None
    last_id: int | None = None
    for ln, line in enumerate(sdd_text.splitlines(), 1):
        toks = line.split()
        if not toks or toks[0] == "c":
            continue
        try:
            if toks[0] == "sdd" and len(toks) == 2:
                declared = int(toks[1])
                continue
            nid = int(toks[1])
            if toks[0] == "F" and len(toks) == 2:
                consts[nid] = 0
            elif toks[0] == "T" and len(toks) == 2:
                consts[nid] = 1
            elif toks[0] == "L" and len(toks) == 4:
                lit = int(toks[3])
                var_int = abs(lit)
                if var_int not in idx_of_var_int:
                    raise ValueError
                lits_by_file[nid] = (idx_of_var_int[var_int], lit > 0)
            elif toks[0] == "D" and len(toks) >= 4:
                vfile = int(toks[2])
                count = int(toks[3])
                ids = [int(t) for t in toks[4:]]
                if len(ids) != 2 * count or vfile not in pos_of_file_id:
                    raise ValueError
                pairs = [(ids[2 * i], ids[2 * i + 1]) for i in range(count)]
                decs.append((nid, pos_of_file_id[vfile], pairs))
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise ArtifactError(f"bad sdd line {ln}: {line!r}") from None
        last_id = nid
    total = len(consts) + len(lits_by_file) + len(decs)
    if last_id is None:
        raise ArtifactError("empty sdd file")
    if declared is not None and declared != total:
        raise ArtifactError(
            f"sdd header declares {declared} nodes, file has {total}"
        )
    # Frozen id assignment: literals sorted by (var idx, sign), then
    # decisions in file (= children-first) order.
    lit_files = sorted(lits_by_file, key=lambda f: lits_by_file[f])
    fmap: dict[int, int] = {}
    for f, c in consts.items():
        fmap[f] = c
    seen_codes: set[int] = set()
    lits: list[int] = []
    for i, f in enumerate(lit_files):
        idx, sign = lits_by_file[f]
        code = idx * 2 + (1 if sign else 0)
        if code in seen_codes:
            raise ArtifactError(f"duplicate literal node for code {code}")
        seen_codes.add(code)
        fmap[f] = 2 + i
        lits.append(code)
    base = 2 + len(lits)
    dec_vnode: list[int] = []
    dec_off = [0]
    elems: list[int] = []
    for j, (f, vn, pairs) in enumerate(decs):
        if f in fmap:
            raise ArtifactError(f"duplicate sdd node id {f}")
        fmap[f] = base + j
    for f, vn, pairs in decs:
        dec_vnode.append(vn)
        for p, s in pairs:
            if p not in fmap or s not in fmap:
                raise ArtifactError(
                    f"decision {f} references undefined node ({p}, {s})"
                )
            elems.append(fmap[p])
            elems.append(fmap[s])
        dec_off.append(len(elems) // 2)
    return FrozenSdd(
        vars_tab, vt_codes, lits, dec_vnode, dec_off, elems, [fmap[last_id]]
    )


def write_pysdd(frozen: FrozenSdd, sdd_path, vtree_path,
                root: int | None = None) -> None:
    """Write a ``.sdd``/``.vtree`` pair in the pysdd text convention."""
    with open(vtree_path, "w") as fh:
        fh.write(export_vtree_text(frozen.vtree()))
    with open(sdd_path, "w") as fh:
        fh.write(export_sdd_text(frozen, root))


def read_pysdd(sdd_path, vtree_path) -> FrozenSdd:
    """Read a ``.sdd``/``.vtree`` pair into a :class:`FrozenSdd`."""
    with open(vtree_path) as fh:
        vtree_text = fh.read()
    with open(sdd_path) as fh:
        sdd_text = fh.read()
    return import_sdd_text(sdd_text, vtree_text)
