"""Lineage of a Boolean UCQ over a database.

``L(Q, D)`` is the monotone Boolean function over the tuples of ``D`` that
accepts ``D' ⊆ D`` iff ``D' |= Q``.  We materialize it four ways:

- :func:`lineage_terms` — the grounded DNF terms (sets of tuple variables);
- :func:`lineage_circuit` — a factorized :class:`Circuit`, the one the SDD
  and d-DNNF compilers consume;
- :func:`terms_circuit` — a DNF-shaped circuit over given terms;
- :func:`lineage_function` — the exact :class:`BooleanFunction` (small
  instances; used for ground truth in tests/benches).

:func:`lineage_circuit` eliminates query variables instead of emitting one
AND per grounded term, so the circuit follows the query's shape and its
treewidth stays far below the DNF's (5 against 9 for
``S(x,y),U(y,z),S(z,w)`` at domain 3).  For each CQ, bound values
are substituted into the atoms and inequalities.  A fully bound atom
becomes its tuple's variable gate (``False`` if the tuple is absent), and
a fully bound inequality is a filter.  The remaining atoms and
inequalities split into connected components over their free variables,
and the components are ANDed.  Within a component, the variable occurring
in the most atoms (ties by name) is eliminated: the component becomes the
OR, over the domain, of its sub-circuit with that variable bound.  Each
component's gate is memoized on its substituted atoms and inequalities
(sorted and deduplicated), and the memo is shared by all disjuncts of a
UCQ, which is the OR of its CQ circuits.  Every choice is made in sorted
order, so the gate list does not depend on ``PYTHONHASHSEED``.

:func:`lineage_delta` is the same builder with one atom bound to one
tuple: the part of the lineage that uses that tuple, which the engine
disjoins onto a cached root when the tuple is inserted.
:func:`unifies` and :func:`has_inequality_only_variable` are the two
tests the engine runs to decide whether a root needs patching at all.

No SDD-engine path grounds the DNF.  It is ground only by the references
that must not share the builder they check: the OBDD compile of
:mod:`repro.queries.compile`, :func:`lineage_function` and
:func:`lineage_nnf`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Sequence

from .database import Database, tuple_variable
from .syntax import ConjunctiveQuery, UCQ
from ..circuits.circuit import AND, OR, VAR, Circuit
from ..circuits.nnf import NNF, conj, disj, false_node, lit

if TYPE_CHECKING:
    from ..core.boolfunc import BooleanFunction

__all__ = [
    "ground_cq",
    "lineage_terms",
    "lineage_circuit",
    "lineage_delta",
    "unifies",
    "has_inequality_only_variable",
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


def lineage_circuit(query: UCQ, db: Database, domain: Sequence | None = None) -> Circuit:
    """The lineage as a factorized circuit over tuple variables (see the
    module docstring for the elimination rule).

    The circuit contains one variable gate per tuple of ``D`` (so the
    lineage is a function of *all* tuples, matching ``L(Q, D)``'s scope),
    then the AND/OR gates reachable from the output.  Variables range over
    ``domain`` (default: the active domain), as in :func:`ground_cq`.
    """
    dom = list(domain) if domain is not None else db.active_domain()
    f = _Factorizer(db, dom)
    root = f.gate(OR, (f.conjoin(_cq_items(cq)) for cq in query.disjuncts))
    return f.emit(root, every_tuple=True)


def lineage_delta(query: UCQ, db: Database, relation: str, values: Sequence) -> Circuit:
    """The part of the lineage that uses the tuple ``relation(values)``.

    For every CQ and every atom that unifies with the tuple, the atom's
    variables are bound to the tuple's values and the bound CQ is
    factorized as in :func:`lineage_circuit`; the result is the OR over
    all of them.  Variables range over ``db``'s active domain, the one a
    fresh :func:`lineage_circuit` would use, so a cached root compiled
    over that domain patches exactly.  As a function it is the OR of the
    DNF terms that contain the tuple's variable (``False`` if the tuple is
    not in ``db``).  Unlike :func:`lineage_circuit`, the circuit has
    variable gates only for the tuples it uses, sorted by name, so it can
    be compiled on its own and disjoined onto a cached root.
    """
    f = _Factorizer(db, db.active_domain())
    root = f.gate(OR, (
        f.conjoin(_bind_all(items, binding))
        for items, binding in _unifiers(query, relation, tuple(values))
    ))
    return f.emit(root, every_tuple=False)


def unifies(query: UCQ, relation: str, values: Sequence) -> bool:
    """Whether some atom of ``query`` unifies with ``relation(values)``:
    when none does, no lineage term of ``query`` can use the tuple."""
    return next(_unifiers(query, relation, tuple(values)), None) is not None


def has_inequality_only_variable(query: UCQ) -> bool:
    """Whether a CQ of ``query`` has a variable that occurs in no atom.

    Such a variable ranges over the whole active domain, so the lineage's
    terms can change with the domain even where they do not use a changed
    tuple.  Every other variable is bound through an atom to values of the
    tuples the term uses."""
    for cq in query.disjuncts:
        in_atoms = {name for a in cq.atoms for name in a.variables()}
        if any({i.left, i.right} - in_atoms for i in cq.inequalities):
            return True
    return False


# Atoms and inequalities are both items ``(head, terms)``: the relation
# name or ``"!="``, and a tuple of substituted terms, each ``(True,
# variable name)`` or ``(False, value)``.  Factorizer nodes are indices
# into ``_Factorizer.nodes``, or one of the two constants:
_FALSE, _TRUE = -1, -2
_NEQ = "!="


def _cq_items(cq: ConjunctiveQuery) -> tuple:
    atoms = tuple(
        (a.relation, tuple((t.is_variable, t.name if t.is_variable else _coerce(t.name))
                           for t in a.args))
        for a in cq.atoms
    )
    return atoms + tuple((_NEQ, ((True, i.left), (True, i.right))) for i in cq.inequalities)


def _unifiers(query: UCQ, relation: str, values: tuple):
    """Yield ``(items, binding)`` for every CQ of ``query`` (as items) and
    every atom of it that unifies with ``relation(values)``: ``binding``
    maps the atom's variables to the tuple's values.  Constants must match,
    and a repeated variable must meet the same value at every position."""
    for cq in query.disjuncts:
        items = _cq_items(cq)
        for head, terms in items:
            if head != relation or len(terms) != len(values):
                continue
            binding: dict = {}
            for (is_var, name), value in zip(terms, values):
                if (binding.setdefault(name, value) if is_var else name) != value:
                    break
            else:
                yield items, binding


def _bind_all(items: tuple, binding: dict) -> tuple:
    for var, value in binding.items():
        items = _bind(items, var, value)
    return items


def _free(terms: tuple) -> list[str]:
    return [name for is_var, name in terms if is_var]


def _bind(items: tuple, var: str, value) -> tuple:
    """Substitute ``value`` for ``var`` in every item."""
    free, bound = (True, var), (False, value)
    return tuple(
        (head, tuple(bound if t == free else t for t in terms)) for head, terms in items
    )


def _components(items: list) -> list[tuple]:
    """Split items (each with a free variable) into connected components
    over their free variables.  Each component is a sorted, deduplicated
    tuple of items (its memo key), and the components come sorted too."""
    groups: list[tuple[set[str], list]] = []
    for item in items:
        names = set(_free(item[1]))
        merged: tuple[set[str], list] = (set(names), [item])
        rest = []
        for g in groups:
            if g[0] & names:
                merged[0].update(g[0])
                merged[1].extend(g[1])
            else:
                rest.append(g)
        groups = rest + [merged]
    return sorted((tuple(sorted(set(g[1]), key=repr)) for g in groups), key=repr)


class _Factorizer:
    """Builds the factorized lineage as a hash-consed AND/OR DAG, then
    emits the part reachable from the root as a :class:`Circuit`."""

    def __init__(self, db: Database, dom: list) -> None:
        self.db = db
        self.dom = dom
        self.nodes: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self._memo: dict[tuple, int] = {}

    def _node(self, entry: tuple) -> int:
        nid = self._ids.get(entry)
        if nid is None:
            nid = self._ids[entry] = len(self.nodes)
            self.nodes.append(entry)
        return nid

    def gate(self, kind: str, children: Iterable[int]) -> int:
        """AND/OR with constant folding; stops at an absorbing child, so a
        lazy ``children`` builds nothing past it."""
        absorbing, neutral = (_FALSE, _TRUE) if kind == AND else (_TRUE, _FALSE)
        kept: dict[int, None] = {}
        for ch in children:
            if ch == absorbing:
                return absorbing
            if ch != neutral:
                kept.setdefault(ch)
        if not kept:
            return neutral
        if len(kept) == 1:
            return next(iter(kept))
        return self._node((kind, tuple(kept)))

    def conjoin(self, items: tuple) -> int:
        """The existential closure of the conjunction of ``items``."""
        tuples: list[int] = []
        free = []
        for head, terms in items:
            if _free(terms):
                # Inequalities are symmetric: one key for both orders.
                free.append((head, tuple(sorted(terms, key=repr)) if head == _NEQ else terms))
            elif head == _NEQ:
                if terms[0] == terms[1]:
                    return _FALSE
            else:
                tup = tuple(value for _, value in terms)
                if not self.db.contains(head, tup):
                    return _FALSE
                tuples.append(self._node((VAR, tuple_variable(head, tup))))
        comps = _components(free)
        return self.gate(AND, itertools.chain(tuples, (self._eliminate(c) for c in comps)))

    def _eliminate(self, items: tuple) -> int:
        """One connected component: the OR over the domain of its
        sub-circuit with its most frequent variable bound."""
        hit = self._memo.get(items)
        if hit is not None:
            return hit
        freq = {name: 0 for _, terms in items for name in _free(terms)}
        for head, terms in items:
            if head != _NEQ:
                for name in set(_free(terms)):
                    freq[name] += 1
        var = min(freq, key=lambda v: (-freq[v], v))
        out = self._memo[items] = self.gate(
            OR, (self.conjoin(_bind(items, var, a)) for a in self.dom)
        )
        return out

    def emit(self, root: int, every_tuple: bool) -> Circuit:
        """The part reachable from ``root`` as a :class:`Circuit`.  Variable
        gates come first: one per tuple of the database if
        ``every_tuple``, else only the reachable ones, sorted by name."""
        reach = set() if root < 0 else {root}
        stack = list(reach)
        while stack:
            kind, payload = self.nodes[stack.pop()]
            if kind != VAR:
                for ch in payload:
                    if ch not in reach:
                        reach.add(ch)
                        stack.append(ch)
        c = Circuit()
        if every_tuple:
            names = self.db.all_tuple_variables()
        else:
            names = sorted(self.nodes[n][1] for n in reach if self.nodes[n][0] == VAR)
        for name in names:
            c.add_var(name)
        if root < 0:
            c.set_output(c.add_const(root == _TRUE))
            return c
        # Children precede parents in ``nodes``, so index order is topological.
        gid: dict[int, int] = {}
        for n in sorted(reach):
            kind, payload = self.nodes[n]
            if kind == VAR:
                gid[n] = c.add_var(payload)
            else:
                ids = [gid[ch] for ch in payload]
                gid[n] = c.add_and(*ids) if kind == AND else c.add_or(*ids)
        c.set_output(gid[root])
        return c


def terms_circuit(terms: Iterable[frozenset[str]]) -> Circuit:
    """A DNF-shaped circuit over exactly the variables the terms mention.

    The grounded-DNF side of the references (the OBDD compile and
    :func:`lineage_function`), kept independent of the factorizing
    builder they check.  Terms are sorted for a deterministic gate order.
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
    """Exact lineage function over *all* tuple variables of ``D``, from the
    grounded terms (independent of :func:`lineage_circuit`, which tests
    check against it)."""
    return terms_circuit(lineage_terms(query, db, domain)).function(db.all_tuple_variables())
