"""The recursive apply fast path and the trampoline build the same SDDs.

``SddManager._apply_rec`` recurses directly up to the frame budget
``_APPLY_REC_BUDGET`` and hands deeper sub-problems to the generator
trampoline.  It issues sub-applies and allocations in the trampoline's
order, so where the handoff happens must not show in the result: with the
budget patched to 0 (every apply on the trampoline), 1, 3 and the
default, compiling the same circuit under the same vtree must yield the
same node tables, bit-identical float WMC and equal exact WMC.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.circuits.build import chain_and_or, grid, ladder
from repro.compiler.strategies import natural_variable_order
from repro.core.vtree import Vtree
from repro.queries.database import ProbabilisticDatabase
from repro.queries.lineage import lineage_circuit
from repro.queries.syntax import parse_ucq
from repro.sdd.manager import SddManager
from repro.sdd.wmc import probability

BUDGETS = (0, 1, 3, SddManager._APPLY_REC_BUDGET)


def _lineage(text: str, domain: int):
    db = ProbabilisticDatabase()
    for x in range(1, domain + 1):
        db.add("R", x, p=0.5)
        for y in range(1, domain + 1):
            db.add("S", x, y, p=0.3)
            db.add("U", x, y, p=0.6)
    return lineage_circuit(parse_ucq(text), db), list(db.all_tuple_variables())


CIRCUITS = {
    "chain_and_or": lambda: (c := chain_and_or(40), natural_variable_order(c)),
    "ladder": lambda: (c := ladder(8), natural_variable_order(c)),
    "grid": lambda: (c := grid(3, 3), natural_variable_order(c)),
    "ucq-SS": lambda: _lineage("S(x,y),S(y,z)", 3),
    # At domain 3 this lineage blows up under the left-linear vtree.
    "ucq-SUS": lambda: _lineage("S(x,y),U(y,z),S(z,w)", 2),
}
VTREES = {
    "right": Vtree.right_linear,
    "left": Vtree.left_linear,
    "balanced": Vtree.balanced,
}


def _compile(circuit, order, make_vtree):
    mgr = SddManager(make_vtree(order))
    root = mgr.compile_circuit(circuit)
    neg = mgr.negate(root)
    cond = mgr.condition(root, {order[1]: 1})
    prob = {v: (i % 19 + 1) / 20 for i, v in enumerate(order)}
    answers = [
        (repr(probability(mgr, u, prob)), probability(mgr, u, prob, exact=True))
        for u in (root, neg, cond)
    ]
    tables = (list(mgr.node_kind), list(mgr.node_vnode), list(mgr.node_elements))
    return tables, answers, (root, neg, cond), mgr.stats()["apply_trampoline_handoffs"]


@pytest.mark.parametrize("vtree", sorted(VTREES))
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_node_tables_do_not_depend_on_the_budget(monkeypatch, name, vtree):
    circuit, order = CIRCUITS[name]()
    runs = {}
    for budget in BUDGETS:
        monkeypatch.setattr(SddManager, "_APPLY_REC_BUDGET", budget)
        runs[budget] = _compile(circuit, order, VTREES[vtree])
    tables, answers, roots, handoffs = runs[0]
    # Budget 0 is the pure trampoline: every apply miss is a handoff.
    assert handoffs > 0
    for budget in BUDGETS[1:]:
        got_tables, got_answers, got_roots, _ = runs[budget]
        assert got_roots == roots, budget
        assert got_tables == tables, budget
        for (f0, x0), (f, x) in zip(answers, got_answers):
            assert f == f0, budget  # float repr: bit-identical
            assert isinstance(x, Fraction) and x == x0, budget


def test_default_budget_covers_shallow_vtrees():
    """A balanced vtree is shallow: its applies never reach the budget."""
    circuit = chain_and_or(200)
    mgr = SddManager(Vtree.balanced(natural_variable_order(circuit)))
    mgr.compile_circuit(circuit)
    assert mgr.stats()["apply_trampoline_handoffs"] == 0
