"""Backend parity through the unified facade.

The acceptance-criterion property: for every registered backend,
``Compiler(backend=b).compile(c)`` agrees on ``model_count`` /
``probability`` / ``evaluate`` on random circuits (≤ 12 variables, where
the canonical truth-table backend is still feasible).
"""

from __future__ import annotations

import os
import tempfile
from contextlib import closing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.build import chain_and_or, grid, ladder, parity
from repro.circuits.random_circuits import random_circuit
from repro.compiler import (
    Compiled,
    Compiler,
    available_backends,
    available_strategies,
    compile_with,
    get_backend,
    register_backend,
)
from repro.core.vtree import Vtree


@st.composite
def small_circuits(draw, max_vars: int = 12, max_gates: int = 18):
    n_vars = draw(st.integers(min_value=2, max_value=max_vars))
    n_gates = draw(st.integers(min_value=2, max_value=max_gates))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_circuit(rng, n_vars=n_vars, n_gates=n_gates)


class TestBackendParity:
    @settings(max_examples=30, deadline=None)
    @given(small_circuits(max_vars=12), st.integers(min_value=0, max_value=2**32 - 1))
    def test_all_backends_agree(self, circuit, seed):
        """model_count, exact probability, float probability and evaluate
        coincide across every registered backend on the same vtree
        strategy."""
        rng = np.random.default_rng(seed)
        vs = sorted(map(str, circuit.variables))
        prob = {v: round(float(rng.uniform(0.1, 0.9)), 3) for v in vs}
        assignments = [
            {v: int(rng.integers(0, 2)) for v in vs} for _ in range(4)
        ]
        results = {
            b: Compiler(backend=b, strategy="lemma1").compile(circuit)
            for b in available_backends()
        }
        counts = {b: r.model_count() for b, r in results.items()}
        exacts = {b: r.probability(prob, exact=True) for b, r in results.items()}
        floats = {b: r.probability(prob) for b, r in results.items()}
        assert len(set(counts.values())) == 1, counts
        assert len(set(exacts.values())) == 1, exacts
        ref = next(iter(floats.values()))
        for b, p in floats.items():
            assert p == pytest.approx(ref), (b, floats)
        for a in assignments:
            evals = {b: r.evaluate(a) for b, r in results.items()}
            assert len(set(evals.values())) == 1, (a, evals)

    @settings(max_examples=15, deadline=None)
    @given(small_circuits(max_vars=10))
    def test_compiled_protocol_surface(self, circuit):
        """Every backend's result satisfies the Compiled protocol: sizes and
        widths are positive ints, stats are plain public counters.  So
        does the result ``Compiler.load`` reads back from its artifact."""
        with tempfile.TemporaryDirectory() as tmp:
            for b in available_backends():
                r = compile_with(circuit, backend=b)
                assert isinstance(r, Compiled)
                assert r.backend == b
                assert r.size >= 0 and r.width >= 0
                assert r.vtree.variables >= set(map(str, circuit.variables))
                stats = r.stats()
                assert stats and all(isinstance(v, int) for v in stats.values())
                path = os.path.join(tmp, f"{b}.rpaf")
                r.save(path)
                with closing(Compiler.load(path)) as loaded:
                    assert isinstance(loaded, Compiled)
                    assert (loaded.size, loaded.width) == (r.size, r.width)
                    stats = loaded.stats()
                    assert stats and all(isinstance(v, int) for v in stats.values())

    @settings(max_examples=15, deadline=None)
    @given(small_circuits(max_vars=6, max_gates=8))
    def test_strategies_preserve_semantics(self, circuit):
        """Whatever the vtree strategy, the compiled function is the same.

        Circuits are kept small enough (≤ 14 graph nodes) for the
        ``lemma1-exact`` strategy's exact-treewidth DP.
        """
        reference = None
        for s in available_strategies():
            r = Compiler(backend="apply", strategy=s).compile(circuit)
            mc = r.model_count()
            if reference is None:
                reference = mc
            assert mc == reference, s


class TestFacadeBasics:
    def test_explicit_vtree_bypasses_strategy(self):
        c = chain_and_or(6)
        vt = Vtree.right_linear(sorted(map(str, c.variables)))
        r = Compiler(backend="apply", strategy="best-of").compile(c, vtree=vt)
        assert r.vtree is vt
        assert r.decomposition_width is None
        assert r.strategy == ""

    def test_vtree_must_cover_variables(self):
        with pytest.raises(ValueError):
            Compiler(backend="apply").compile(chain_and_or(4), vtree=Vtree.leaf("x1"))

    def test_unknown_backend_and_strategy(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Compiler(backend="magic")
        with pytest.raises(ValueError, match="unknown vtree strategy"):
            Compiler(strategy="magic")

    def test_constant_circuit_rejected(self):
        from repro.circuits.circuit import Circuit

        c = Circuit()
        c.set_output(c.add_const(True))
        with pytest.raises(ValueError, match="no variables"):
            Compiler(backend="apply").compile(c)

    def test_register_backend_plugs_in(self):
        class EchoBackend:
            name = "echo"

            def compile(self, circuit, vtree, *, decomposition_width=None,
                        strategy="", trial=None):
                return ("echo", circuit, vtree)

        register_backend("echo", EchoBackend)
        try:
            assert "echo" in available_backends()
            out = Compiler(backend="echo", strategy="natural").compile(chain_and_or(3))
            assert out[0] == "echo"
            assert get_backend("echo").name == "echo"
        finally:
            from repro.compiler import backends as backends_mod

            backends_mod._BACKENDS.pop("echo", None)

    def test_canonical_exact_probability_reuses_compiled_sdd(self, monkeypatch):
        """The canonical result answers from the already-built S_{F,T},
        loaded into a manager once (no recompilation of the circuit)."""
        from repro.sdd.manager import SddManager

        def no_recompile(*args, **kwargs):
            raise AssertionError("the canonical backend recompiled the circuit")

        monkeypatch.setattr(SddManager, "compile_circuit", no_recompile)
        c = chain_and_or(6)
        r = Compiler(backend="canonical").compile(c)
        table = r.table
        assert isinstance(table, SddManager)
        prob = {str(v): 0.3 for v in c.variables}
        p1 = r.probability(prob, exact=True)
        p2 = r.probability(prob, exact=True)
        assert r.table is table  # reused, not rebuilt
        assert p1 == p2 == Fraction(p1)
        assert float(p1) == pytest.approx(r.probability(prob))

    def test_decomposition_width_provenance(self):
        r = Compiler(backend="apply", strategy="lemma1").compile(ladder(4))
        assert r.decomposition_width is not None and r.decomposition_width >= 1
        r2 = Compiler(backend="apply", strategy="natural").compile(ladder(4))
        assert r2.decomposition_width is None

    def test_families_compile_on_all_backends(self):
        for circuit in (chain_and_or(5), ladder(3), parity(4), grid(2, 3)):
            counts = {
                b: compile_with(circuit, backend=b, strategy="balanced").model_count()
                for b in available_backends()
            }
            assert len(set(counts.values())) == 1, counts
