"""Apply, one-sided case included, builds the canonical SDD.

When one operand of an apply lies below the left child of the operands'
lowest common vtree node, the apply kernel (``SddManager._apply_miss``)
only restricts the other operand's primes instead of multiplying out a
full product.  The result must still be the compressed, trimmed SDD of
the function, which is unique per vtree: the canonical construction
``S_{F,T}`` of :mod:`repro.core.sdd_compile`, trimmed, must have the
same size, and both must give the truth table's model count and exact
weighted model count; ``negate`` and ``condition`` of the result must
give the truth table's counts too.  Random circuits of up to ten
variables run under right-linear, left-linear, balanced and Lemma-1
vtrees, and a few named circuits and query lineages under right-linear,
left-linear and balanced ones.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.build import chain_and_or, grid, ladder
from repro.circuits.random_circuits import random_circuit
from repro.compiler import Lemma1Strategy, natural_variable_order
from repro.core.sdd_compile import compile_canonical_sdd
from repro.core.vtree import Vtree
from repro.queries.database import ProbabilisticDatabase
from repro.queries.lineage import lineage_circuit
from repro.queries.syntax import parse_ucq
from repro.sdd.manager import CompilationBudgetExceeded, SddManager
from repro.sdd.wmc import model_count, probability

VTREES = {
    "right": Vtree.right_linear,
    "left": Vtree.left_linear,
    "balanced": Vtree.balanced,
}


def _trimmed_canonical(circuit, vtree) -> tuple[SddManager, int]:
    """``S_{F,T}`` interned node by node into a fresh manager — through
    :meth:`SddManager.intern_decision` only, which trims but never
    applies — so its size is the trimmed canonical size."""
    canonical = compile_canonical_sdd(circuit.function(), vtree)
    nodes = canonical.root.nodes()
    elements = {id(c) for n in nodes if n.kind == "or" for c in n.children}
    ref = SddManager(vtree)
    ids: dict[int, int] = {}
    for node in nodes:
        if node.kind == "true":
            ids[id(node)] = ref.true
        elif node.kind == "false":
            ids[id(node)] = ref.false
        elif node.kind == "lit":
            ids[id(node)] = ref.literal(node.var, bool(node.sign))
        elif node.kind == "or":
            ids[id(node)] = _intern(ref, vtree, node.children, ids)
        elif id(node) not in elements:  # a one-element decision
            ids[id(node)] = _intern(ref, vtree, [node], ids)
    return ref, ids[id(canonical.root)]


def _intern(ref, vtree, ands, ids) -> int:
    """One canonical decision from its element ANDs ``(prime, sub)``, at
    the vtree node that structures them all (where it is not trimmed)."""
    primes = frozenset().union(*(a.children[0].variables for a in ands))
    subs = frozenset().union(*(a.children[1].variables for a in ands))
    elems = [(ids[id(a.children[0])], ids[id(a.children[1])]) for a in ands]
    v = vtree.find_structuring_node(primes, subs)
    vnode = ref.v_root if v is None else ref.v_index[id(v)]
    return ref.intern_decision(vnode, sorted(e for e in elems if e[0] != ref.false))


def _check_canonical(circuit, vtree, order) -> None:
    """Compile ``circuit`` under ``vtree`` (over exactly ``order``) and
    hold the result, its negation and a conditioning against the trimmed
    canonical SDD and the truth table."""
    f = circuit.function()
    mgr = SddManager(vtree)
    root = mgr.compile_circuit(circuit)
    mgr.check_unique_table()
    ref, ref_root = _trimmed_canonical(circuit, vtree)
    assert mgr.size(root) == ref.size(ref_root)

    assert model_count(mgr, root) == ref.function(ref_root, order).count_models()
    assert model_count(mgr, root) == f.count_models()
    prob = {v: Fraction(i % 7 + 1, 9) for i, v in enumerate(order)}
    want = Fraction(0)
    for model in f.models():
        term = Fraction(1)
        for v in order:
            term *= prob[v] if model[v] else 1 - prob[v]
        want += term
    assert probability(mgr, root, prob, exact=True) == want

    neg = mgr.negate(root)
    assert model_count(mgr, neg) == (1 << len(order)) - f.count_models()
    # Conditioning leaves the variable free: it counts twice.
    cond = mgr.condition(root, {order[0]: 1})
    assert model_count(mgr, cond) == 2 * f.cofactor({order[0]: 1}).count_models()


RANDOM_CASES = (
    st.integers(0, 10_000),
    st.integers(1, 10),
    st.integers(2, 14),
    st.sampled_from(["right", "left", "balanced", "lemma1"]),
)


def _random_case(seed, n_vars, n_gates, shape):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n_vars=n_vars, n_gates=n_gates)
    order = sorted(circuit.variables)
    if shape == "lemma1":
        vtree = Lemma1Strategy(exact=False)(circuit).vtree
    else:
        vtree = VTREES[shape](order)
    return circuit, vtree, order


@settings(max_examples=60, deadline=None)
@given(*RANDOM_CASES)
def test_apply_builds_the_trimmed_canonical_sdd(seed, n_vars, n_gates, shape):
    _check_canonical(*_random_case(seed, n_vars, n_gates, shape))


@settings(max_examples=40, deadline=None)
@given(*RANDOM_CASES)
def test_negate_never_applies(seed, n_vars, n_gates, shape):
    """Apply's one-sided case negates an operand inside the kernel, whose
    Python stack stays O(1) only if no apply runs inside another: negation
    interns each negated node as is, without a compression apply."""
    circuit, vtree, order = _random_case(seed, n_vars, n_gates, shape)
    mgr = SddManager(vtree)
    root = mgr.compile_circuit(circuit)

    def no_apply(*args):
        raise AssertionError("negate ran an apply")

    with mock.patch.object(SddManager, "_apply", no_apply):
        neg = mgr.negate(root)
        assert mgr.negate(neg) == root
    assert model_count(mgr, root) + model_count(mgr, neg) == 1 << len(order)


def _lineage(text: str, domain: int):
    """The lineage of a query over binary relations on the complete
    instance of the relations it names (the lineage has a variable per
    tuple, so an unused relation would only widen the truth table), with
    its variables in the database's tuple order."""
    query = parse_ucq(text)
    db = ProbabilisticDatabase()
    for rel in sorted(query.relations()):
        for x in range(1, domain + 1):
            for y in range(1, domain + 1):
                db.add(rel, x, y, p=0.3)
    return lineage_circuit(query, db), list(db.all_tuple_variables())


# Each fits a truth table: at most 12 variables.
NAMED = {
    "chain_and_or": lambda: (c := chain_and_or(12), natural_variable_order(c)),
    "grid": lambda: (c := grid(3, 3), natural_variable_order(c)),
    "ladder": lambda: (c := ladder(6), natural_variable_order(c)),
    "ucq-SS": lambda: _lineage("S(x,y),S(y,z)", 3),
    # At domain 3 this lineage blows up under the left-linear vtree.
    "ucq-SUS": lambda: _lineage("S(x,y),U(y,z),S(z,w)", 2),
}


@pytest.mark.parametrize("shape", sorted(VTREES))
@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_circuits_are_canonical(name, shape):
    circuit, order = NAMED[name]()
    assert sorted(order) == sorted(circuit.variables)
    _check_canonical(circuit, VTREES[shape](order), order)


def test_node_budget_binds_at_allocation():
    """A budget is checked at every new node, not between gates: the
    compile stops inside the apply that would cross it.  grid(3,4) over a
    left-linear vtree peaks near 2900 live nodes unbudgeted (the oriented
    Lemma-1 vtree peaks near 170, so it cannot exercise the budget)."""
    circuit = grid(3, 4)
    vtree = Vtree.left_linear(natural_variable_order(circuit))
    budget = 2000
    unbudgeted = SddManager(vtree)
    unbudgeted.compile_circuit(circuit)
    assert unbudgeted.live_node_count > budget  # the budget must bind
    mgr = SddManager(vtree)
    with pytest.raises(CompilationBudgetExceeded):
        mgr.compile_circuit(circuit, node_budget=budget)
    assert mgr.live_node_count <= budget
    # The budget belongs to that compile only.
    root = mgr.compile_circuit(circuit)
    mgr.check_unique_table()
    assert model_count(mgr, root) == circuit.function().count_models()
