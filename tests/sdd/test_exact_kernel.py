"""The scaled-integer exact WMC kernel, on live and frozen node tables.

Exact weights (any pair holding a ``Fraction``) are swept in Python ints
over per-variable denominators and divided once at the end.  These tests
pin that the quotient is exactly the brute-force ``Fraction`` enumeration
for the SDD and d-DNNF evaluators over live and frozen tables — on random circuits
over right-linear, left-linear and balanced vtrees, with weights whose
denominators differ per variable and pairs that do not sum to 1 — and
that it stays exact when a weight update changes a denominator, after
garbage collection recycles node ids, and after in-place minimization
refreshes the vtree tables.  ``int`` weights keep returning ``int``, and
a sweep only visits the nodes whose values are stale.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact.store import FrozenDdnnf
from repro.circuits.build import chain_and_or
from repro.circuits.random_circuits import random_circuit
from repro.core.vtree import Vtree
from repro.dnnf.builder import build_ddnnf
from repro.dnnf.nodes import FALSE, TRUE, DnnfDag
from repro.dnnf.wmc import DnnfWmcEvaluator
from repro.sdd.manager import SddManager
from repro.sdd.wmc import SddWmcEvaluator, exact_weights, scaled_weights

VTREES = {
    "right": Vtree.right_linear,
    "left": Vtree.left_linear,
    "balanced": Vtree.balanced,
}


def _p(p) -> tuple:
    return exact_weights({"x": p})["x"]


WEIGHT_PAIRS = [
    _p(Fraction(1, 3)),
    _p(Fraction(2, 7)),
    _p(0.15),
    _p(0),
    _p(1),
    (Fraction(1, 2), Fraction(1, 2)),
    # Pairs that do not sum to 1, one of them mixing int and Fraction.
    (Fraction(2, 3), Fraction(5, 7)),
    (Fraction(3), Fraction(1, 9)),
    (1, Fraction(4, 5)),
]


def brute_wmc(circuit, weights) -> Fraction:
    vs = sorted(weights)
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(vs)):
        a = dict(zip(vs, bits))
        if circuit.evaluate(a):
            term = Fraction(1)
            for v, b in a.items():
                term *= weights[v][b]
            total += term
    return total


@st.composite
def cases(draw, max_vars: int = 10):
    n = draw(st.integers(1, max_vars))
    gates = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    c = random_circuit(np.random.default_rng(seed), n_vars=n, n_gates=gates)
    vs = sorted(map(str, c.variables))
    shape = draw(st.sampled_from(sorted(VTREES)))
    weights = {v: draw(st.sampled_from(WEIGHT_PAIRS)) for v in vs}
    return c, vs, shape, weights


class Compiled:
    """One circuit compiled both ways, live and frozen."""

    def __init__(self, circuit, vs, shape):
        self.circuit = circuit
        self.mgr = SddManager(VTREES[shape](vs))
        self.root = self.mgr.pin(self.mgr.compile_circuit(circuit))
        self.ddnnf = build_ddnnf(circuit, exact=False)
        self.scope = self.ddnnf.dag.scopes(self.ddnnf.root)[self.ddnnf.root]

    def full(self, value, weights):
        """A d-DNNF value (over the root's scope) over every variable."""
        for v, (w0, w1) in weights.items():
            if v not in self.scope:
                value *= w0 + w1
        return value

    def frozen_values(self, weights) -> list:
        fz_sdd = self.mgr.freeze([self.root])
        fz_dag = FrozenDdnnf.from_dag(self.ddnnf.dag, [self.ddnnf.root])
        return [
            SddWmcEvaluator(fz_sdd, weights).value(fz_sdd.roots[0]),
            self.full(DnnfWmcEvaluator(fz_dag, weights).value(fz_dag.roots[0]), weights),
        ]

    def values(self, weights) -> list:
        return [
            SddWmcEvaluator(self.mgr, weights).value(self.root),
            self.full(
                DnnfWmcEvaluator(self.ddnnf.dag, weights).value(self.ddnnf.root),
                weights,
            ),
        ] + self.frozen_values(weights)


class TestExactRing:
    @settings(max_examples=30, deadline=None)
    @given(cases())
    def test_four_evaluators_equal_brute_force(self, case):
        c, vs, shape, weights = case
        truth = brute_wmc(c, weights)
        got = Compiled(c, vs, shape).values(weights)
        assert got == [truth] * 4
        assert all(isinstance(v, Fraction) for v in got)

    @settings(max_examples=15, deadline=None)
    @given(cases(max_vars=8))
    def test_int_weights_return_int(self, case):
        c, vs, shape, _ = case
        weights = {v: (1 + i % 2, 2) for i, v in enumerate(vs)}
        got = Compiled(c, vs, shape).values(weights)
        assert got == [brute_wmc(c, weights)] * 4
        assert all(type(v) is int for v in got)

    def test_encoding_chooses_the_ring(self):
        assert scaled_weights({"a": (1, 2)}) is None
        assert scaled_weights({"a": (0.5, 0.5), "b": _p(Fraction(1, 3))}) is None
        enc = scaled_weights({"a": (Fraction(1, 4), Fraction(5, 6)), "b": (1, 2)})
        assert enc.pairs == {"a": (3, 10), "b": (1, 2)}
        assert enc.den == {"a": 12, "b": 1}


class TestUpdatesGcMinimize:
    CHAIN = [Fraction(1, 20), Fraction(1, 3), Fraction(1, 8)]

    @settings(max_examples=20, deadline=None)
    @given(cases(max_vars=8), st.data())
    def test_denominator_chain(self, case, data):
        c, vs, shape, weights = case
        comp = Compiled(c, vs, shape)
        sdd = SddWmcEvaluator(comp.mgr, weights)
        dnnf = DnnfWmcEvaluator(comp.ddnnf.dag, weights)
        sdd.value(comp.root)
        dnnf.value(comp.ddnnf.root)
        var = data.draw(st.sampled_from(vs))
        weights = dict(weights)
        for p in self.CHAIN:
            weights[var] = _p(p)
            sdd.update_weights({var: weights[var]})
            dnnf.update_weights({var: weights[var]})
            truth = brute_wmc(c, weights)
            assert sdd.value(comp.root) == truth
            assert comp.full(dnnf.value(comp.ddnnf.root), weights) == truth
            assert comp.frozen_values(weights) == [truth, truth]

    def test_gc_recycled_ids(self):
        vs = [f"v{i}" for i in range(8)]
        rng = np.random.default_rng(7)
        circuits = [random_circuit(rng, n_vars=8, n_gates=10) for _ in range(3)]
        weights = {v: WEIGHT_PAIRS[i % len(WEIGHT_PAIRS)] for i, v in enumerate(vs)}
        mgr = SddManager(Vtree.balanced(vs))
        ev = SddWmcEvaluator(mgr, weights)
        kept = mgr.pin(mgr.compile_circuit(circuits[0]))
        garbage = mgr.compile_circuit(circuits[1])
        assert ev.value(kept) == brute_wmc(circuits[0], weights)
        assert ev.value(garbage) == brute_wmc(circuits[1], weights)
        assert mgr.gc()["collected"] > 0
        weights["v0"] = _p(Fraction(1, 20))
        ev.update_weights({"v0": weights["v0"]})
        fresh = mgr.compile_circuit(circuits[2])
        assert ev.value(fresh) == brute_wmc(circuits[2], weights)
        assert ev.value(kept) == brute_wmc(circuits[0], weights)

    @settings(max_examples=10, deadline=None)
    @given(cases(max_vars=8))
    def test_minimize_then_update(self, case):
        c, vs, shape, weights = case
        mgr = SddManager(VTREES[shape](vs))
        root = mgr.pin(mgr.compile_circuit(c))
        ev = SddWmcEvaluator(mgr, weights)
        truth = brute_wmc(c, weights)
        assert ev.value(root) == truth
        root = mgr.minimize(rounds=1).get(root, root)
        assert ev.value(root) == truth
        weights = dict(weights)
        for p in self.CHAIN:
            weights[vs[0]] = _p(p)
            ev.update_weights({vs[0]: weights[vs[0]]})
            truth = brute_wmc(c, weights)
            assert ev.value(root) == truth
            fz = mgr.freeze([root])
            assert SddWmcEvaluator(fz, weights).value(fz.roots[0]) == truth

    def test_ring_switch_on_update(self):
        """A Fraction joining int weights stays exact; a float joining
        exact weights voids the integer memo instead of mixing rings."""
        c = chain_and_or(4)
        vs = sorted(map(str, c.variables))
        mgr = SddManager(Vtree.right_linear(vs))
        root = mgr.pin(mgr.compile_circuit(c))
        dag = build_ddnnf(c, exact=False)
        weights = {v: (1, 1) for v in vs}
        evs = [SddWmcEvaluator(mgr, weights), DnnfWmcEvaluator(dag.dag, weights)]
        roots = [root, dag.root]
        for change in ({vs[0]: _p(Fraction(1, 3))}, {vs[1]: (0.5, 0.5)}):
            weights = {**weights, **change}
            truth = brute_wmc(c, weights)
            for ev, r in zip(evs, roots):
                ev.update_weights(change)
                got = ev.value(r)
                if isinstance(got, float):
                    assert got == pytest.approx(float(truth))
                else:
                    assert got == truth
        assert all(isinstance(ev.value(r), float) for ev, r in zip(evs, roots))


class TestDdnnfShapes:
    W = {"a": _p(Fraction(1, 3)), "b": _p(Fraction(2, 7)), "c": _p(0.15)}

    def _dag(self):
        dag = DnnfDag()
        a, na = dag.literal("a", True), dag.literal("a", False)
        b, nb = dag.literal("b", True), dag.literal("b", False)
        ab = dag.conjoin([a, b])
        # An OR with a FALSE child, interned directly (disjoin drops it).
        or_false = dag._intern(("or", (FALSE, ab)), "or", (FALSE, ab))
        or_false_last = dag._intern(("or", (ab, FALSE)), "or", (ab, FALSE))
        # A deterministic but non-smooth OR: children of different scopes.
        nonsmooth = dag.disjoin([a, dag.conjoin([na, nb])])
        return dag, {"or_false": or_false, "or_false_last": or_false_last,
                     "nonsmooth": nonsmooth, "true": TRUE, "false": FALSE}

    def test_or_false_child_and_constant_roots(self):
        dag, roots = self._dag()
        (a0, a1), (b0, b1) = self.W["a"], self.W["b"]
        expect = {
            "or_false": a1 * b1,
            "or_false_last": a1 * b1,
            "nonsmooth": a1 + a0 * b0,
            "true": Fraction(1),
            "false": Fraction(0),
        }
        live = DnnfWmcEvaluator(dag, self.W)
        frozen_store = FrozenDdnnf.from_dag(dag, list(roots.values()))
        frozen = DnnfWmcEvaluator(frozen_store, self.W)
        for (name, root), froot in zip(roots.items(), frozen_store.roots):
            for got in (live.value(root), frozen.value(froot)):
                assert got == expect[name], name
                assert isinstance(got, Fraction), name

    def test_sdd_constant_roots(self):
        mgr = SddManager(Vtree.balanced(sorted(self.W)))
        total = Fraction(1)
        for w0, w1 in self.W.values():
            total *= w0 + w1
        ev = SddWmcEvaluator(mgr, self.W)
        fz = mgr.freeze([mgr.true, mgr.false])
        fev = SddWmcEvaluator(fz, self.W)
        for got, want in [
            (ev.value(mgr.true), total),
            (ev.value(mgr.false), 0),
            (fev.value(fz.roots[0]), total),
            (fev.value(fz.roots[1]), 0),
        ]:
            assert got == want
            assert isinstance(got, Fraction)


class TestNodesSwept:
    """``nodes_swept`` counts node values computed: nothing on a repeat,
    exactly the evicted cone after an update."""

    def _roots(self, mgr):
        rng = np.random.default_rng(11)
        return [
            mgr.pin(mgr.compile_circuit(random_circuit(rng, n_vars=7, n_gates=9)))
            for _ in range(2)
        ]

    def test_sdd(self):
        vs = [f"v{i}" for i in range(7)]
        mgr = SddManager(Vtree.balanced(vs))
        r1, r2 = self._roots(mgr)
        ev = SddWmcEvaluator(mgr, exact_weights({v: 0.3 for v in vs}))
        ev.value(r1)
        ev.value(r2)
        swept = ev.stats()["nodes_swept"]
        ev.value(r1)
        assert ev.stats()["nodes_swept"] == swept
        var = "v3"
        evicted = ev.update_weights({var: _p(Fraction(1, 7))})
        path = set()
        x = mgr.leaf_of_var[var]
        while x is not None:
            path.add(x)
            x = mgr.v_parent[x]
        stale_r1 = {
            u for u in mgr.reachable(r1) if u > 1 and mgr.node_vnode[u] in path
        }
        ev.value(r1)
        after_r1 = ev.stats()["nodes_swept"]
        assert after_r1 - swept == len(stale_r1)
        ev.value(r2)
        assert ev.stats()["nodes_swept"] - swept == evicted

    def test_ddnnf(self):
        dag = DnnfDag()
        lits = {v: (dag.literal(v, False), dag.literal(v, True)) for v in "abcd"}
        cd = dag.disjoin([dag.conjoin([lits["c"][1], lits["d"][0]]),
                          dag.conjoin([lits["c"][0], lits["d"][1]])])
        r1 = dag.disjoin([dag.conjoin([lits["a"][1], cd]),
                          dag.conjoin([lits["a"][0], lits["b"][1], cd])])
        r2 = dag.conjoin([lits["b"][0], cd])
        ev = DnnfWmcEvaluator(dag, exact_weights({v: 0.3 for v in "abcd"}))
        ev.value(r1)
        ev.value(r2)
        swept = ev.stats()["nodes_swept"]
        ev.value(r2)
        assert ev.stats()["nodes_swept"] == swept
        evicted = ev.update_weights({"d": _p(Fraction(1, 7))})
        scopes = dag.scopes(r2)
        stale_r2 = {u for u in dag.reachable(r2) if u > TRUE and "d" in scopes[u]}
        ev.value(r2)
        assert ev.stats()["nodes_swept"] - swept == len(stale_r2)
        ev.value(r1)
        assert ev.stats()["nodes_swept"] - swept == evicted
