"""Vtree local-operation and dynamic-minimization tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.build import disjointness, grid, ladder
from repro.compiler.strategies import natural_variable_order
from repro.core.boolfunc import BooleanFunction
from repro.core.sdd_compile import compile_canonical_sdd
from repro.core.vtree import Vtree
from repro.core.vtree_search import (
    apply_size_objective,
    minimize_vtree,
    neighbors,
    rotate_left,
    rotate_right,
    sdd_size_objective,
    sdw_objective,
)
from repro.queries.database import complete_database
from repro.queries.lineage import lineage_circuit
from repro.queries.syntax import parse_ucq


class TestRotations:
    def test_rotate_right(self):
        v = Vtree.from_nested((("a", "b"), "c"))
        r = rotate_right(v)
        assert r.to_nested() == ("a", ("b", "c"))

    def test_rotate_left(self):
        v = Vtree.from_nested(("a", ("b", "c")))
        r = rotate_left(v)
        assert r.to_nested() == (("a", "b"), "c")

    def test_rotations_inverse(self):
        v = Vtree.from_nested((("a", "b"), ("c", "d")))
        assert rotate_left(rotate_right(v)).to_nested() == v.to_nested()

    def test_not_applicable(self):
        assert rotate_right(Vtree.from_nested(("a", "b"))) is None
        assert rotate_left(Vtree.from_nested(("a", "b"))) is None
        assert rotate_left(Vtree.leaf("a")) is None

    def test_rotations_preserve_leaf_set(self):
        v = Vtree.from_nested((("a", "b"), ("c", "d")))
        for r in (rotate_left(v), rotate_right(v)):
            assert r.variables == v.variables


class TestNeighbors:
    def test_neighbors_are_valid_vtrees(self):
        v = Vtree.balanced(["a", "b", "c", "d"])
        ns = list(neighbors(v))
        assert ns
        for n in ns:
            assert n.variables == v.variables

    def test_neighbors_include_swap(self):
        v = Vtree.from_nested(("a", "b"))
        shapes = {n.to_nested() for n in neighbors(v)}
        assert ("b", "a") in shapes

    def test_deep_rewrites_reach_inside(self):
        v = Vtree.from_nested((("a", ("b", "c")), "d"))
        shapes = {n.to_nested() for n in neighbors(v)}
        assert ((("a", "b"), "c"), "d") in shapes  # rotate at an inner node


class TestMinimize:
    def test_never_worse_than_start(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            f = BooleanFunction.random(["a", "b", "c", "d"], rng)
            start = Vtree.right_linear(sorted(f.variables))
            s0 = compile_canonical_sdd(f, start).size
            best, t = minimize_vtree(start, sdd_size_objective(f), max_rounds=5)
            assert best <= s0
            assert compile_canonical_sdd(f, t).size == best

    def test_objective_sdw(self):
        rng = np.random.default_rng(2)
        f = BooleanFunction.random(["a", "b", "c", "d"], rng)
        start = Vtree.balanced(sorted(f.variables))
        w0 = compile_canonical_sdd(f, start).sdw
        best, t = minimize_vtree(start, sdw_objective(f), max_rounds=5)
        assert best <= w0

    def test_separated_disjointness_improves(self):
        """Starting from the bad separated vtree for D_2, local search finds
        a strictly smaller vtree (interleaving helps)."""
        f = disjointness(2).function()
        bad = Vtree.internal(
            Vtree.balanced(["x1", "x2"]), Vtree.balanced(["y1", "y2"])
        )
        s0 = compile_canonical_sdd(f, bad).size
        best, _ = minimize_vtree(bad, sdd_size_objective(f), max_rounds=8)
        assert best < s0


def _lineage(domain: int):
    db = complete_database({"R": 1, "S": 2}, domain, p=0.5)
    return lineage_circuit(parse_ucq("R(x),S(x,y) | S(x,y),R(y)"), db)


class TestApplySizeObjective:
    """The recompile baseline of ``benchmarks/bench_minimize.py``: every
    neighbor apply-compiled in a fresh manager.  Sizes and vtrees are
    pinned to what the retired circuit-level copy of this hill climb
    returned (3 rounds, bench_minimize's start shapes)."""

    @pytest.mark.parametrize(
        "build, start_shape, size, postfix",
        [
            pytest.param(lambda: ladder(6), "balanced-natural", 69, [
                "a1", "b1", "a2", None, None, "b2", "a3", "b3", None, "a4", "b4", "a5",
                None, "b5", "a6", "b6", None, None, None, None, None, None, None,
            ], id="ladder(6)"),
            pytest.param(lambda: grid(3, 3), "balanced-lex", 56, [
                "g1_1", "g1_2", "g1_3", "g2_1", None, "g2_2", "g2_3", "g3_1", "g3_2",
                "g3_3", None, None, None, None, None, None, None,
            ], id="grid(3x3)"),
            pytest.param(lambda: _lineage(3), "right-linear-natural", 64, [
                "R(1)", "S(1,1)", "S(1,2)", "S(1,3)", "R(2)", "S(2,1)", "S(2,2)",
                "S(2,3)", None, "R(3)", "S(3,1)", "S(3,2)", "S(3,3)", None, None,
                None, None, None, None, None, None, None, None,
            ], id="lineage-d3"),
        ],
    )
    def test_matches_the_pinned_baseline(self, build, start_shape, size, postfix):
        circuit = build()
        if start_shape == "balanced-natural":
            start = Vtree.balanced(natural_variable_order(circuit))
        elif start_shape == "balanced-lex":
            start = Vtree.balanced(sorted(map(str, circuit.variables)))
        else:
            start = Vtree.right_linear(natural_variable_order(circuit))
        objective = apply_size_objective(circuit)
        best, t = minimize_vtree(start, objective, max_rounds=3)
        assert (best, t.to_postfix()) == (size, postfix)
        assert objective(t) == best < objective(start)

    def test_start_and_objective_are_required(self):
        f = BooleanFunction.from_callable(["a", "b"], lambda a, b: a and b)
        with pytest.raises(TypeError):
            minimize_vtree(f)
        with pytest.raises(TypeError):
            minimize_vtree(Vtree.balanced(["a", "b"]), sdd_size_objective(f), 3)
