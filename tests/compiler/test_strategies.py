"""Vtree strategies: orders, provenance, and the best-of race mechanics."""

from __future__ import annotations

import pytest

from repro.circuits.build import chain_and_or, grid, ladder
from repro.compiler import Compiler
from repro.compiler.strategies import (
    BestOfStrategy,
    get_strategy,
    natural_variable_order,
)
from repro.sdd.manager import CompilationBudgetExceeded, SddManager


class TestNaturalOrder:
    def test_numeric_aware(self):
        c = chain_and_or(12)
        order = natural_variable_order(c)
        assert order == [f"x{i}" for i in range(1, 13)]  # x2 before x10

    def test_interleaves_groups(self):
        """Ladder rails interleave (a1, b1, a2, b2, ...) — the wiring order.
        Separating the rails makes right-linear compilation exponential."""
        c = ladder(4)
        order = natural_variable_order(c)
        assert order == ["a1", "b1", "a2", "b2", "a3", "b3", "a4", "b4"]

    def test_grid_row_major(self):
        order = natural_variable_order(grid(2, 3))
        assert order == ["g1_1", "g1_2", "g1_3", "g2_1", "g2_2", "g2_3"]


class TestStrategyShapes:
    def test_natural_is_right_linear(self):
        choice = get_strategy("natural")(chain_and_or(6))
        assert choice.vtree.is_right_linear()
        assert choice.decomposition_width is None
        assert choice.strategy == "natural"

    def test_lemma1_reports_width(self):
        choice = get_strategy("lemma1")(chain_and_or(6))
        assert choice.decomposition_width is not None
        assert choice.decomposition_width >= 1

    def test_lemma1_variants_named(self):
        assert get_strategy("lemma1-exact").name == "lemma1-exact"
        assert get_strategy("lemma1-heuristic").name == "lemma1-heuristic"


class TestNodeBudget:
    def test_budget_aborts_compilation(self):
        c = chain_and_or(40)
        mgr = SddManager(get_strategy("natural")(c).vtree)
        with pytest.raises(CompilationBudgetExceeded):
            mgr.compile_circuit(c, node_budget=50)

    def test_no_budget_compiles(self):
        c = chain_and_or(40)
        mgr = SddManager(get_strategy("natural")(c).vtree)
        root = mgr.compile_circuit(c)
        assert mgr.size(root) > 0

    def test_budget_binds_inside_flattened_chains(self):
        """Chain absorption folds the whole OR chain into one reduce call;
        the budget must still abort the fold near the cap, not after it
        (regression: the per-gate check alone never fired)."""
        from repro.compiler.strategies import natural_variable_order
        from repro.core.vtree import Vtree

        c = chain_and_or(120)
        # Reversed order: adversarial for the right-linear fold (Θ(n²)).
        mgr = SddManager(Vtree.right_linear(list(reversed(natural_variable_order(c)))))
        with pytest.raises(CompilationBudgetExceeded):
            mgr.compile_circuit(c, node_budget=500)
        assert mgr.live_node_count < 1000  # aborted near the cap


class TestBestOf:
    def test_keeps_smallest_and_reuses_trial(self):
        c = chain_and_or(30)
        choice = BestOfStrategy()(c)
        assert choice.trial is not None
        assert choice.strategy.startswith("best-of:")
        # The apply backend must reuse the race's winning manager.
        compiled = Compiler(backend="apply", strategy="best-of").compile(c)
        assert compiled.strategy.startswith("best-of:")
        # Identical semantics and at-least-as-small size vs every candidate
        # that the race itself considered eligible.
        natural = Compiler(backend="apply", strategy="natural").compile(c)
        assert compiled.size <= natural.size
        assert compiled.model_count() == natural.model_count()

    def test_race_never_picks_larger_than_first_candidate(self):
        for circuit in (chain_and_or(20), ladder(8), grid(3, 4)):
            best = Compiler(backend="apply", strategy="best-of").compile(circuit)
            first = Compiler(backend="apply", strategy="natural").compile(circuit)
            assert best.size <= first.size

    def test_fallback_when_every_candidate_aborts(self):
        """With an absurdly small initial budget every candidate aborts and
        the race falls back to the first candidate, unbudgeted."""
        strategy = BestOfStrategy(initial_per_var=1, floor=1)
        choice = strategy(chain_and_or(20))
        assert choice.strategy == "best-of:natural"
        assert choice.trial is not None

    @pytest.mark.parametrize("floor", [4096, 256])
    @pytest.mark.parametrize(
        "circuit,winner",
        [(chain_and_or(100), "natural"), (ladder(30), "natural"),
         (grid(3, 4), "lemma1-heuristic")],
        ids=["chain(100)", "ladder(30)", "grid(3x4)"],
    )
    def test_bench_strategies_winners_under_budget(self, circuit, winner, floor):
        """The ``bench_strategies --smoke`` families keep their winner when
        the race's budgets bind at every new node, also with a low floor.
        On grid(3x4) the oriented Lemma-1 vtree wins (100 elements against
        natural's 112); on the chain and the ladder natural wins outright
        (early exit) and Lemma-1 never starts."""
        choice = BestOfStrategy(floor=floor)(circuit)
        natural = Compiler(backend="apply", strategy="natural").compile(circuit)
        mgr, root = choice.trial
        assert choice.strategy == f"best-of:{winner}"
        assert mgr.size(root) <= natural.size

    def test_best_of_avoids_scrambled_lemma1_blowup(self):
        """The ROADMAP gap: on chains the heuristic Lemma-1 leaf order makes
        the apply fold quadratic-plus; best-of must settle on the natural
        order without ever running the scrambled fold to completion."""
        c = chain_and_or(60)
        compiled = Compiler(backend="apply", strategy="best-of").compile(c)
        assert compiled.strategy == "best-of:natural"
        # The winning manager is the natural-order trial: node count stays
        # small, proof that the lemma1 fold never ran unbudgeted.
        assert compiled.stats()["nodes"] < 10_000
