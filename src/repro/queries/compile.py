"""Query compilation: lineage → OBDD / SDD (the paper's pipeline).

The positive side of the paper's Figures 2–3 rests on Jha–Suciu's
constructions: inversion-free UCQs compile to constant-*width* OBDDs, and
inversion-free UCQs with inequalities to polynomial-*size* OBDDs.  The
crucial ingredient is the variable order: tuples are grouped by the domain
value of the query's root variables, so each block is processed before the
next begins.  :func:`hierarchy_order` produces that order; the benches then
measure constant width / polynomial size empirically.
"""

from __future__ import annotations

from typing import Sequence

from .database import Database, tuple_variable
from .lineage import lineage_circuit, lineage_terms, terms_circuit
from .syntax import UCQ
from ..core.vtree import Vtree
from ..obdd.obdd import ObddManager
from ..sdd.manager import SddManager

__all__ = [
    "hierarchy_order",
    "lineage_vtree",
    "compile_lineage_obdd",
    "compile_lineage_sdd",
    "compile_lineage_ddnnf",
    "lineage_obdd_width",
    "lineage_sdd_size",
]


def hierarchy_order(query: UCQ, db: Database) -> list[str]:
    """A tuple-variable order grouping tuples by domain value of the most
    frequent query variable (Jha–Suciu's hierarchical traversal).

    Tuples whose atoms contain the root variable are emitted domain value by
    domain value (recursively ordered by the remaining values); relations
    not mentioning the root variable are appended per-value where possible.
    The order covers *all* tuple variables of the database.
    """
    dom = db.active_domain()
    # Rank query variables by how many atoms contain them (root first).
    freq: dict[str, int] = {}
    for cq in query.disjuncts:
        for v in cq.variables():
            freq[v] = freq.get(v, 0) + len(cq.atoms_containing(v))
    root_vars = sorted(freq, key=lambda v: (-freq[v], v))
    # Positions of the root variable inside each relation (first occurrence).
    root_pos: dict[str, int] = {}
    if root_vars:
        root = root_vars[0]
        for cq in query.disjuncts:
            for atom in cq.atoms:
                for i, t in enumerate(atom.args):
                    if t.is_variable and t.name == root:
                        root_pos.setdefault(atom.relation, i)
                        break
    order: list[str] = []
    emitted: set[str] = set()

    def emit(name: str) -> None:
        if name not in emitted:
            emitted.add(name)
            order.append(name)

    for value in dom:
        for rel in sorted(db.relations):
            pos = root_pos.get(rel)
            if pos is None:
                continue
            for tup in sorted(db.relations[rel], key=repr):
                if pos < len(tup) and tup[pos] == value:
                    emit(tuple_variable(rel, tup))
    # Relations without the root variable (and any leftovers) at the end,
    # grouped by their first attribute to stay block-local.
    for rel in sorted(db.relations):
        for tup in sorted(db.relations[rel], key=repr):
            emit(tuple_variable(rel, tup))
    return order


def compile_lineage_obdd(
    query: UCQ, db: Database, order: Sequence[str] | None = None
) -> tuple[ObddManager, int]:
    """Compile the lineage into an OBDD (default order:
    :func:`hierarchy_order`).

    The OBDD is the benchmarks' and evaluators' independent reference, so
    it compiles the grounded DNF, not :func:`lineage_circuit` (the builder
    the SDD and d-DNNF paths share).  An OBDD is canonical per order, so
    the circuit shape does not change the result."""
    circuit = terms_circuit(lineage_terms(query, db))
    o = list(order) if order is not None else hierarchy_order(query, db)
    missing = set(circuit.variables) - set(o)
    if missing:
        o = o + sorted(missing)
    mgr = ObddManager(o)
    return mgr, mgr.compile_circuit(circuit)


def lineage_vtree(query: UCQ, db: Database, shape: str = "right") -> Vtree:
    """The default lineage vtree: the hierarchy order arranged right-linear
    (mirroring the OBDD construction) or balanced.

    The order covers *every* tuple variable of ``db``, so one vtree — and
    hence one :class:`SddManager` — serves any query against the same
    database (what :class:`repro.queries.QueryEngine` sessions exploit).
    """
    order = hierarchy_order(query, db)
    missing = set(db.all_tuple_variables()) - set(order)
    if missing:
        order = order + sorted(missing)
    if shape == "right":
        return Vtree.right_linear(order)
    if shape == "balanced":
        return Vtree.balanced(order)
    raise ValueError(f"unknown vtree shape {shape!r}")


def compile_lineage_sdd(
    query: UCQ,
    db: Database,
    vtree: Vtree | None = None,
    *,
    manager: SddManager | None = None,
    deadline=None,
) -> tuple[SddManager, int]:
    """Compile the lineage into an SDD via bottom-up ``apply`` — no truth
    table, so instances with hundreds of tuples compile.

    Default vtree: right-linear over the hierarchy order, mirroring the
    OBDD construction; callers exploring Figure-2/3 shapes may pass
    balanced or custom vtrees.  Passing ``manager`` compiles into an
    existing manager (its vtree must cover the lineage variables), sharing
    its hash-cons tables and apply cache with previous compilations.
    ``deadline`` (a :class:`~repro.service.errors.Deadline`) cancels the
    compilation cooperatively at the per-gate safepoints.
    """
    circuit = lineage_circuit(query, db)
    if manager is None:
        if vtree is None:
            vtree = lineage_vtree(query, db)
        manager = SddManager(vtree)
    missing = set(circuit.variables) - manager.vtree.variables
    if missing:
        raise ValueError(f"manager vtree misses lineage variables: {sorted(missing)[:5]}")
    return manager, manager.compile_circuit(circuit, deadline=deadline)


def compile_lineage_ddnnf(query: UCQ, db: Database, *, deadline=None):
    """Compile the lineage bag-by-bag into a d-DNNF — no variable order, no
    manager, no apply cascade: the decomposition of the lineage circuit's
    gate graph drives the build directly (:mod:`repro.dnnf`).

    Returns the :class:`~repro.dnnf.builder.DdnnfResult`; pair it with
    :func:`repro.dnnf.wmc.probability` or hand both to
    :func:`repro.queries.evaluate.probability_via_ddnnf`.  ``deadline``
    cancels cooperatively at the bag walk's safepoints.
    """
    from ..dnnf.builder import build_ddnnf

    return build_ddnnf(lineage_circuit(query, db), deadline=deadline)


def lineage_obdd_width(query: UCQ, db: Database, order: Sequence[str] | None = None) -> int:
    mgr, root = compile_lineage_obdd(query, db, order)
    return mgr.width(root)


def lineage_sdd_size(query: UCQ, db: Database, vtree: Vtree | None = None) -> int:
    mgr, root = compile_lineage_sdd(query, db, vtree)
    return mgr.size(root)
