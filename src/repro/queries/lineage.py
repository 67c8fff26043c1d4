"""Lineage of a Boolean UCQ over a database.

``L(Q, D)`` is the monotone Boolean function over the tuples of ``D`` that
accepts ``D' ⊆ D`` iff ``D' |= Q``.  We materialize it three ways:

- :func:`lineage_terms` — the grounded DNF terms (sets of tuple variables);
- :func:`lineage_circuit` — a DNF-shaped :class:`Circuit` (polynomial for
  fixed ``Q``, as in the paper's setup);
- :func:`lineage_function` — the exact :class:`BooleanFunction` (small
  instances; used for ground truth in tests/benches).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Sequence

from .database import Database, tuple_variable
from .syntax import Atom, ConjunctiveQuery, UCQ
from ..circuits.circuit import Circuit
from ..circuits.nnf import NNF, conj, disj, false_node, lit

if TYPE_CHECKING:
    from ..core.boolfunc import BooleanFunction

__all__ = [
    "ground_cq",
    "lineage_terms",
    "lineage_circuit",
    "terms_circuit",
    "lineage_nnf",
    "lineage_function",
]


def ground_cq(cq: ConjunctiveQuery, db: Database, domain: Sequence | None = None):
    """Yield, for every satisfying assignment of the query variables to the
    domain, the frozenset of tuple variables the assignment uses."""
    dom = list(domain) if domain is not None else db.active_domain()
    variables = cq.variables()
    for values in itertools.product(dom, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        ok = True
        for ineq in cq.inequalities:
            if assignment[ineq.left] == assignment[ineq.right]:
                ok = False
                break
        if not ok:
            continue
        used: set[str] = set()
        for atom in cq.atoms:
            tup = tuple(
                assignment[t.name] if t.is_variable else _coerce(t.name) for t in atom.args
            )
            if not db.contains(atom.relation, tup):
                ok = False
                break
            used.add(tuple_variable(atom.relation, tup))
        if ok:
            yield frozenset(used)


def _coerce(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def lineage_terms(
    query: UCQ, db: Database, domain: Sequence | None = None
) -> list[frozenset[str]]:
    """The grounded DNF terms, deduplicated, in deterministic order."""
    seen: dict[frozenset[str], None] = {}
    for cq in query.disjuncts:
        for term in ground_cq(cq, db, domain):
            seen.setdefault(term)
    return sorted(seen, key=lambda t: sorted(t))


def lineage_circuit(
    query: UCQ,
    db: Database,
    domain: Sequence | None = None,
    *,
    terms: Sequence[frozenset[str]] | None = None,
) -> Circuit:
    """The lineage as a DNF-shaped circuit over tuple variables.

    The circuit contains one variable gate per tuple of ``D`` (so the
    lineage is a function of *all* tuples, matching ``L(Q, D)``'s scope),
    one AND per grounded term, and a top OR.  ``terms`` may pass
    pre-grounded terms (callers that also need the term sets, e.g. the
    engine's update diffing) to skip grounding twice.
    """
    c = Circuit()
    for name in db.all_tuple_variables():
        c.add_var(name)
    if terms is None:
        terms = lineage_terms(query, db, domain)
    ands = []
    for term in terms:
        ids = [c.add_var(v) for v in sorted(term)]
        ands.append(c.add_and(*ids) if ids else c.add_const(True))
    c.set_output(c.add_or(*ands) if ands else c.add_const(False))
    return c


def terms_circuit(terms: Iterable[frozenset[str]]) -> Circuit:
    """A DNF-shaped circuit over exactly the variables the terms mention.

    The delta-patch compile path: the terms an insert added are compiled
    alone and disjoined onto a cached root, so the circuit must not drag
    in every database tuple the way :func:`lineage_circuit` does.  Terms
    are sorted for a deterministic gate order (canonical compilation
    across parallel workers depends on it).
    """
    c = Circuit()
    ands = []
    for term in sorted(terms, key=lambda t: sorted(t)):
        ids = [c.add_var(v) for v in sorted(term)]
        ands.append(c.add_and(*ids) if ids else c.add_const(True))
    c.set_output(c.add_or(*ands) if ands else c.add_const(False))
    return c


def lineage_nnf(query: UCQ, db: Database, domain: Sequence | None = None) -> NNF:
    """The lineage as a (generally non-deterministic) monotone NNF."""
    terms = lineage_terms(query, db, domain)
    if not terms:
        return false_node()
    return disj([conj([lit(v, True) for v in sorted(term)]) for term in terms])


def lineage_function(
    query: UCQ, db: Database, domain: Sequence | None = None
) -> BooleanFunction:
    """Exact lineage function over *all* tuple variables of ``D``."""
    return lineage_circuit(query, db, domain).function(db.all_tuple_variables())
