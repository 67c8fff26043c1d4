"""The bag-by-bag builder: brute-force agreement + structural invariants.

The acceptance criterion lives here: every compiled circuit — generator
families and hypothesis-random circuits alike — must (a) agree with the
exact truth table, (b) pass all three structural oracles, and (c) be built
with **zero** ``SddManager.apply`` calls.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.build import chain_and_or, cnf_chain, grid, ladder, parity
from repro.circuits.circuit import Circuit
from repro.circuits.random_circuits import random_circuit
from repro.compiler import Compiler
from repro.dnnf import FALSE, TRUE, build_ddnnf, check_ddnnf, model_count
from repro.queries.compile import compile_lineage_ddnnf
from repro.queries.database import complete_database
from repro.queries.syntax import parse_ucq
from repro.sdd.manager import SddManager
from repro.service.errors import Deadline, DeadlineExceeded

pytestmark = pytest.mark.ddnnf


@st.composite
def small_circuits(draw, max_vars: int = 10, max_gates: int = 16):
    n_vars = draw(st.integers(min_value=2, max_value=max_vars))
    n_gates = draw(st.integers(min_value=2, max_value=max_gates))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_circuit(rng, n_vars=n_vars, n_gates=n_gates)


FAMILIES = [
    chain_and_or(8),
    ladder(4),
    grid(2, 3),
    parity(5),
    cnf_chain(6),
]


class TestBruteForceAgreement:
    @pytest.mark.parametrize("circuit", FAMILIES, ids=lambda c: repr(c))
    def test_families_count_and_invariants(self, circuit):
        r = build_ddnnf(circuit)
        assert model_count(r.dag, r.root) == circuit.function().count_models()
        check_ddnnf(r.dag, r.root)

    @settings(max_examples=40, deadline=None)
    @given(small_circuits())
    def test_random_circuits_count_and_invariants(self, circuit):
        r = build_ddnnf(circuit)
        assert model_count(r.dag, r.root) == circuit.function().count_models()
        check_ddnnf(r.dag, r.root)

    @settings(max_examples=20, deadline=None)
    @given(small_circuits(max_vars=6, max_gates=10),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_evaluate_matches_circuit(self, circuit, seed):
        rng = np.random.default_rng(seed)
        r = build_ddnnf(circuit)
        vs = sorted(map(str, circuit.variables))
        for _ in range(8):
            a = {v: int(rng.integers(0, 2)) for v in vs}
            assert r.dag.evaluate(r.root, a) == circuit.evaluate(a)

    def test_smoothness_makes_root_scope_the_circuit(self):
        # Includes a variable gate the output never reads: it must still
        # appear in the root scope (free, factor 2 in the count).
        c = Circuit()
        x, y = c.add_var("x"), c.add_var("y")
        c.add_var("unused")
        c.set_output(c.add_and(x, y))
        r = build_ddnnf(c)
        assert r.dag.scopes(r.root)[r.root] == frozenset({"x", "y", "unused"})
        assert model_count(r.dag, r.root, c.variables) == 2  # x∧y free in unused


class TestNoApplyCalls:
    def test_zero_apply_and_zero_managers(self, monkeypatch):
        """The acceptance criterion verbatim: chain/ladder/grid/lineage
        families compile with zero ``SddManager.apply`` calls — enforced by
        making any apply (or manager construction) blow up."""

        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("SddManager touched during ddnnf compilation")

        monkeypatch.setattr(SddManager, "apply", boom)
        monkeypatch.setattr(SddManager, "__init__", boom)

        from repro.queries.database import complete_database
        from repro.queries.syntax import parse_ucq

        for circuit in (chain_and_or(10), ladder(4), grid(2, 3)):
            r = build_ddnnf(circuit)
            assert r.root != FALSE
        q = parse_ucq("R(x),S(x,y)")
        db = complete_database({"R": 1, "S": 2}, 2, p=0.5)
        r = compile_lineage_ddnnf(q, db)
        assert r.root not in (FALSE, TRUE)

    def test_backend_path_never_applies(self, monkeypatch):
        calls = {"n": 0}
        original = SddManager.apply

        def counting(self, a, b, op):
            calls["n"] += 1
            return original(self, a, b, op)

        monkeypatch.setattr(SddManager, "apply", counting)
        compiled = Compiler(backend="ddnnf", strategy="natural").compile(ladder(3))
        assert compiled.model_count() == ladder(3).function().count_models()
        assert calls["n"] == 0


class TestResultSurface:
    def test_stats_report_bags_and_tables(self):
        r = build_ddnnf(chain_and_or(6))
        stats = r.stats()
        for key in ("bags_leaf", "bags_introduce", "bags_forget", "bags_join",
                    "friendly_width", "states_peak", "states_total",
                    "unique_hits", "unique_misses"):
            assert key in stats, key
        assert all(isinstance(v, int) for v in stats.values())
        # Every gate is forgotten exactly once in a friendly decomposition.
        assert stats["bags_forget"] == chain_and_or(6).size

    # Counters of the state walk and the DAG it builds, pinned: a change to
    # how states are keyed or visited must not change what is built.
    @pytest.mark.parametrize("circuit,expected,size", [
        (lambda: grid(3, 4),
         dict(states_peak=168, states_total=4917, or_merges=239,
              pruned_unjustified=245, pruned_output=1, nodes=240), 224),
        (lambda: ladder(8),
         dict(states_peak=60, states_total=3573, or_merges=243,
              pruned_unjustified=338, pruned_output=3, nodes=331), 297),
        (lambda: chain_and_or(12),
         dict(states_peak=12, states_total=407, or_merges=41,
              pruned_unjustified=44, pruned_output=2, nodes=105), 98),
    ], ids=["grid(3,4)", "ladder(8)", "chain_and_or(12)"])
    def test_stats_are_pinned(self, circuit, expected, size):
        r = build_ddnnf(circuit())
        stats = r.stats()
        assert {k: stats[k] for k in expected} == expected
        assert r.size == size

    def test_constant_circuits(self):
        for value, expected in ((True, TRUE), (False, FALSE)):
            c = Circuit()
            c.set_output(c.add_const(value))
            r = build_ddnnf(c)
            assert r.root == expected

    def test_contradiction_compiles_to_false(self):
        c = Circuit()
        x = c.add_var("x")
        c.set_output(c.add_and(x, c.add_not(x)))
        r = build_ddnnf(c)
        assert r.root == FALSE
        assert model_count(r.dag, r.root, c.variables) == 0

    def test_missing_output_rejected(self):
        c = Circuit()
        c.add_var("x")
        with pytest.raises(ValueError, match="no output"):
            build_ddnnf(c)

    def test_unjustified_states_are_pruned(self):
        # An OR output forces the suspicious-gate machinery to discharge or
        # prune; the counter proves the pruning path runs on real circuits.
        r = build_ddnnf(chain_and_or(8))
        assert r.counters["pruned_unjustified"] + r.counters["pruned_output"] > 0


class TestDecompositionDeadline:
    def test_deadline_reaches_the_elimination_loop(self):
        now = [0.0]
        expired = Deadline(1.0, clock=lambda: now[0])
        now[0] = 2.0
        with pytest.raises(DeadlineExceeded) as ei:
            build_ddnnf(ladder(20), deadline=expired)
        assert ei.value.where == "tree decomposition"

    def test_bag_walk_checks_the_deadline_inside_bags(self):
        """Besides once per bag, the walk checks a set deadline every 256
        child states, so one wide bag cannot overrun it; the DAG is the
        one built without a deadline."""

        class CountingDeadline:
            def __init__(self):
                self.in_walk = 0

            def check(self, where="compile"):
                if where == "d-DNNF bag compilation":
                    self.in_walk += 1

        c = grid(3, 4)
        plain = build_ddnnf(c)
        counting = CountingDeadline()
        timed = build_ddnnf(c, deadline=counting)
        stats = plain.stats()
        assert timed.stats() == stats
        assert (timed.dag.node_kind, timed.root) == (plain.dag.node_kind, plain.root)
        bags = len(plain.friendly)
        assert counting.in_walk - bags >= stats["states_total"] // 256 > 0

    def test_high_width_lineage_times_out_promptly(self):
        # The domain-6 d-DNNF compile takes seconds, far past the timeout,
        # so the deadline must fire inside it, at a safepoint between
        # eliminations or between bags.
        db = complete_database({"R": 1, "S": 2, "T": 1, "U": 2}, 6)
        query = parse_ucq("S(x,y),U(y,z),S(z,w)")
        start = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            compile_lineage_ddnnf(query, db, deadline=Deadline(0.5))
        assert time.perf_counter() - start < 1.5
