"""Stack-safety regression tests.

Every vtree traversal and SDD operation must run under Python's *default*
recursion limit on instances whose vtree depth far exceeds it — recursive
implementations used to crash at ~1000 leaves (`Vtree.nodes()` during
`SddManager.__init__`) and, after a successful compile, in
``negate``/``condition``/``to_nnf``.  ``n ≈ 2000`` is double the default
limit; the guard test additionally *lowers* the limit so a reintroduced
recursion over depth cannot hide behind an unusually deep interpreter
stack.
"""

from __future__ import annotations

import sys

import pytest

from repro.circuits.build import chain_and_or
from repro.compiler.strategies import natural_variable_order
from repro.core.vtree import Vtree
from repro.sdd.manager import SddManager

N = 2000


@pytest.fixture(scope="module")
def deep_compiled():
    """One chain_and_or(2000) compilation shared by the module's tests."""
    circuit = chain_and_or(N)
    vtree = Vtree.right_linear(natural_variable_order(circuit))
    mgr = SddManager(vtree)
    root = mgr.compile_circuit(circuit)
    return mgr, root


class TestDeepVtree:
    def test_construct_and_traverse(self):
        order = [f"x{i}" for i in range(1, N + 1)]
        t = Vtree.right_linear(order)
        assert t.depth() == N - 1
        assert t.leaf_order() == order
        assert sum(1 for _ in t.nodes()) == 2 * N - 1
        assert t.is_right_linear() and not t.is_left_linear()
        assert len(t.variables) == N

    def test_left_linear_and_balanced(self):
        order = [f"x{i}" for i in range(1, N + 1)]
        t = Vtree.left_linear(order)
        assert t.is_left_linear() and t.depth() == N - 1
        assert t.leaf_order() == order
        b = Vtree.balanced(order)
        assert b.depth() < 2 * N.bit_length()

    def test_repr_of_large_lazy_vtree(self):
        t = Vtree.balanced([f"x{i}" for i in range(1, 71)])
        assert "70 leaves" in repr(t)

    def test_duplicate_leaves_rejected(self):
        xs = [f"x{i}" for i in range(1, 71)]
        with pytest.raises(ValueError, match="share variables"):
            Vtree.internal(Vtree.balanced(xs), Vtree.balanced(xs))
        # Past the eager-check size the error surfaces at materialization.
        big = [f"x{i}" for i in range(1, 401)]
        lazy = Vtree(None, Vtree.balanced(big), Vtree.balanced(big))
        with pytest.raises(ValueError, match="share variables"):
            lazy.leaf_order()
        with pytest.raises(ValueError, match="share variables"):
            _ = lazy.variables
        with pytest.raises(ValueError, match="duplicate vtree leaf"):
            SddManager(lazy)

    def test_nested_roundtrip_and_equality(self):
        order = [f"x{i}" for i in range(1, N + 1)]
        t = Vtree.right_linear(order)
        t2 = Vtree.from_nested(t.to_nested())
        assert t2 == t
        assert hash(t2) == hash(t)
        assert t != Vtree.left_linear(order)

    def test_prune_deep(self):
        order = [f"x{i}" for i in range(1, N + 1)]
        t = Vtree.right_linear(order)
        kept = t.prune_to(order[: N // 2])
        assert len(kept.variables) == N // 2

    def test_render_deep(self):
        # Depth 1500 > default recursion limit; quadratic prefixes keep the
        # full-N version out of the unit suite.
        t = Vtree.right_linear([f"x{i}" for i in range(1, 1501)])
        assert t.render().count("\n") == 2 * 1500 - 2


class TestDeepSddOperations:
    def test_compile(self, deep_compiled):
        mgr, root = deep_compiled
        assert mgr.size(root) > 0

    def test_negate(self, deep_compiled):
        mgr, root = deep_compiled
        neg = mgr.negate(root)
        assert mgr.negate(neg) == root
        assert mgr.count_models(neg) == (1 << N) - mgr.count_models(root)

    def test_condition(self, deep_compiled):
        mgr, root = deep_compiled
        # Conditioning on x1 ∧ x2 satisfies the first disjunct: tautology.
        assert mgr.condition(root, {"x1": 1, "x2": 1}) == mgr.true
        cond = mgr.condition(root, {"x1": 0})
        assert cond not in (mgr.true, mgr.false)

    def test_model_count_and_wmc(self, deep_compiled):
        mgr, root = deep_compiled
        mc = mgr.count_models(root)
        assert 0 < mc < (1 << N)
        p = mgr.probability(root, {f"x{i}": 0.5 for i in range(1, N + 1)})
        assert 0.0 < p < 1.0

    def test_evaluate(self, deep_compiled):
        mgr, root = deep_compiled
        assignment = {f"x{i}": 0 for i in range(1, N + 1)}
        assert mgr.evaluate(root, assignment) is False
        assignment["x1000"] = assignment["x1001"] = 1
        assert mgr.evaluate(root, assignment) is True

    def test_to_nnf(self, deep_compiled):
        mgr, root = deep_compiled
        nnf = mgr.to_nnf(root)
        assert nnf.size > 0


class TestTenThousandVariables:
    """The PR's acceptance criterion end-to-end: chain_and_or(10000)
    compiles, negates, conditions and model-counts under the *default*
    recursion limit.  Also exercises the balanced chain-flattening fold —
    the gate-by-gate fold would need Θ(n²) ≈ 10⁸ manager nodes here."""

    def test_chain_10000_end_to_end(self):
        n = 10_000
        assert sys.getrecursionlimit() <= 1000 * 10  # no raised-limit escape
        circuit = chain_and_or(n)
        vtree = Vtree.right_linear(natural_variable_order(circuit))
        mgr = SddManager(vtree)
        root = mgr.compile_circuit(circuit)
        assert mgr.live_node_count < 60 * n  # O(n log n), not Θ(n²)
        mc = mgr.count_models(root)
        assert 0 < mc < (1 << n)
        neg = mgr.negate(root)
        assert mgr.count_models(neg) == (1 << n) - mc
        assert mgr.condition(root, {"x1": 1, "x2": 1}) == mgr.true
        cond = mgr.condition(root, {"x1": 0})
        assert cond not in (mgr.true, mgr.false)


class TestRecursionGuard:
    """Run a >limit-depth instance with the recursion limit *lowered*, so a
    regression to recursive traversals fails here even if the interpreter
    is started with a raised limit (no ``sys.setrecursionlimit`` escape
    hatches allowed in library code)."""

    def test_pipeline_under_reduced_limit(self):
        n = 500
        circuit = chain_and_or(n)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            vtree = Vtree.right_linear(natural_variable_order(circuit))
            mgr = SddManager(vtree)
            root = mgr.compile_circuit(circuit)
            mgr.negate(root)
            mgr.condition(root, {"x3": 1})
            assert 0 < mgr.count_models(root) < (1 << n)
        finally:
            sys.setrecursionlimit(limit)
        # The compile really ran past the lowered limit.
        assert mgr.vtree.depth() > 250

    @pytest.mark.parametrize(
        "make_vtree, deep",
        [(Vtree.left_linear, True), (Vtree.balanced, False)],
        ids=["left-linear", "balanced"],
    )
    def test_compile_and_negate_under_reduced_limit(self, make_vtree, deep):
        # Depth 259 > the lowered limit; left-linear compiles of the chain
        # family are slow, so n stays just above it.
        n = 260
        circuit = chain_and_or(n)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            mgr = SddManager(make_vtree(natural_variable_order(circuit)))
            root = mgr.compile_circuit(circuit)
            neg = mgr.negate(root)
            assert mgr.count_models(root) + mgr.count_models(neg) == 1 << n
        finally:
            sys.setrecursionlimit(limit)
        if deep:
            assert mgr.vtree.depth() > 250

    def test_library_does_not_touch_recursion_limit(self):
        import pathlib

        import repro

        src_root = pathlib.Path(repro.__file__).parent
        offenders = [
            p
            for p in src_root.rglob("*.py")
            if "setrecursionlimit" in p.read_text()
        ]
        assert offenders == [], (
            f"library code must stay within the default recursion limit, "
            f"found sys.setrecursionlimit in {offenders}"
        )
