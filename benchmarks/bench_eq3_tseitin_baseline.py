"""E10 — eq. (3) vs eq. (4): size in the circuit size ``m`` vs the
variable count ``n``.

Petke–Razgon's Tseitin detour produces forms of size ``O(g(k)·m)``; the
paper's direct compilation is ``O(f(k)·n)``.  We hold the *function* (and
``n``) fixed while padding the circuit with redundant gates (growing
``m``), and measure:

- the Tseitin baseline's intermediate form grows with ``m``;
- the Result-1 compilation of the *same function* is unaffected (it
  depends on the function and vtree only).
"""

from __future__ import annotations

import pytest

from repro.circuits.build import chain_and_or
from repro.circuits.cnf import petke_razgon_baseline
from repro.core.sdd_compile import compile_canonical_sdd
from repro.compiler import Compiler, Lemma1Strategy
from repro.core.widths import factor_width, lemma1_bound
from repro.core.pipeline import vtree_from_circuit

from .conftest import report


def test_baseline_grows_with_m(benchmark):
    base = chain_and_or(5)
    f = base.function()
    rows = []
    peaks = []
    for extra in (0, 10, 20, 40):
        padded = base.pad_with_redundant_gates(extra) if extra else base
        r = petke_razgon_baseline(padded)
        got = r.manager.function(r.root, f.variables).project(f.variables)
        assert got == f  # the baseline stays correct...
        peaks.append(r.peak_size)
        rows.append([padded.size, r.tseitin_variables, r.peak_size, r.final_size])
    report(
        "eq. (3) / Tseitin baseline: intermediate size grows with m",
        ["circuit size m", "Tseitin vars", "peak size", "final size"],
        rows,
    )
    assert peaks[-1] > peaks[0]
    benchmark(lambda: petke_razgon_baseline(base))


def test_direct_compilation_independent_of_m(benchmark):
    """The Result-1 compilation of the padded circuits: the *vtrees* may
    differ, but compiling the function over the unpadded vtree gives
    byte-identical canonical SDDs — size depends on (F, T), never on m."""
    base = chain_and_or(5)
    f = base.function()
    vtree, _ = vtree_from_circuit(base, exact=False)
    reference = compile_canonical_sdd(f, vtree)
    rows = [[base.size, reference.size]]
    for extra in (10, 20, 40):
        padded = base.pad_with_redundant_gates(extra)
        again = compile_canonical_sdd(padded.function(), vtree)
        rows.append([padded.size, again.size])
        assert again.root.structural_key() == reference.root.structural_key()
    report(
        "eq. (4) / direct compilation: size independent of m",
        ["circuit size m", "canonical SDD size"],
        rows,
    )
    benchmark(lambda: compile_canonical_sdd(f, vtree))


def test_pipeline_on_padded_circuit_still_bounded(benchmark):
    """Even running the whole pipeline on the padded circuit (whose tree
    decomposition must cover the redundant gates) keeps the Lemma-1
    certificate."""
    padded = chain_and_or(5).pad_with_redundant_gates(16)
    res = Compiler("canonical", Lemma1Strategy(exact=False)).compile(padded)
    assert factor_width(res.function, res.vtree) <= lemma1_bound(res.decomposition_width)
    vs = sorted(res.function.variables)
    assert res.sdd.root.function(vs) == res.function
    benchmark(lambda: Compiler("canonical", Lemma1Strategy(exact=False)).compile(padded))
