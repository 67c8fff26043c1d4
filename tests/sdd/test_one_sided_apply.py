"""Apply, one-sided case included, builds the canonical SDD.

When one operand of an apply lies below the left child of the operands'
lowest common vtree node, ``SddManager._apply_rec`` only restricts the
other operand's primes instead of multiplying out a full product.  The
result must still be the compressed, trimmed SDD of the function, which
is unique per vtree: the canonical construction ``S_{F,T}`` of
:mod:`repro.core.sdd_compile`, trimmed, must have the same size, and
both must give the truth table's model count and exact weighted model
count.  Random circuits of up to ten variables run under right-linear,
left-linear, balanced and Lemma-1 vtrees.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.build import grid
from repro.circuits.random_circuits import random_circuit
from repro.compiler import Lemma1Strategy, natural_variable_order
from repro.core.sdd_compile import compile_canonical_sdd
from repro.core.vtree import Vtree
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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 10),
    st.integers(2, 14),
    st.sampled_from(["right", "left", "balanced", "lemma1"]),
)
def test_apply_builds_the_trimmed_canonical_sdd(seed, n_vars, n_gates, shape):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n_vars=n_vars, n_gates=n_gates)
    order = sorted(circuit.variables)
    if shape == "lemma1":
        vtree = Lemma1Strategy(exact=False)(circuit).vtree
    else:
        vtree = VTREES[shape](order)
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
