"""End-to-end fuzzing: random circuits through every engine.

Each random circuit is pushed through the complete tool chain and all
paths must agree with the exact truth-table semantics:

    circuit --(Lemma 1)--> vtree --> canonical SDD / NNF
    circuit --> OBDD manager          (apply compilation)
    circuit --> SDD manager           (apply compilation)
    circuit --> Tseitin CNF --> ∃-quantification
    function --> IP form

plus the structural invariants (determinism, structuredness, canonicity,
width bounds) on every compiled artifact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.cnf import tseitin
from repro.circuits.implicants import ip_nnf
from repro.circuits.random_circuits import random_circuit, random_monotone_circuit
from repro.compiler import Compiler, Lemma1Strategy
from repro.core.widths import factor_width, lemma1_bound
from repro.core.vtree import Vtree
from repro.obdd.obdd import ObddManager
from repro.sdd.manager import SddManager


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(3, 10))
def test_full_chain_agreement(seed, n_vars, n_gates):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n_vars=n_vars, n_gates=n_gates)
    f = circuit.function()
    vs = sorted(f.variables)

    # Lemma-1 pipeline
    res = Compiler("canonical", Lemma1Strategy(exact=False)).compile(circuit)
    assert res.sdd.root.function(vs) == f
    assert res.nnf.root.function(vs) == f
    assert factor_width(res.function, res.vtree) <= lemma1_bound(res.decomposition_width)
    assert res.nnf.root.is_deterministic()
    assert res.nnf.root.is_structured_by(res.vtree)

    # OBDD apply compilation
    omgr = ObddManager(vs)
    oroot = omgr.compile_circuit(circuit)
    assert omgr.function(oroot, vs) == f
    assert oroot == omgr.from_function(f)  # canonicity across routes

    # SDD apply compilation over an unrelated vtree
    smgr = SddManager(Vtree.balanced(vs))
    sroot = smgr.compile_circuit(circuit)
    assert smgr.function(sroot, vs) == f
    smgr.validate(sroot)
    assert smgr.count_models(sroot) == f.count_models()

    # Tseitin detour
    cnf, gate_vars = tseitin(circuit)
    assert cnf.to_circuit().function().exists(gate_vars).project(vs) == f

    # IP form
    assert ip_nnf(f).function(vs) == f


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_monotone_chain(seed):
    rng = np.random.default_rng(seed)
    circuit = random_monotone_circuit(rng, n_vars=4, n_gates=6)
    f = circuit.function()
    from repro.circuits.implicants import is_monotone, prime_implicants

    assert is_monotone(f)
    for p in prime_implicants(f):
        assert all(sign for _, sign in p.literals)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_counting_agreement_across_engines(seed):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n_vars=4, n_gates=8)
    f = circuit.function()
    vs = sorted(f.variables)
    expected = f.count_models()

    res = Compiler("canonical", Lemma1Strategy(exact=False)).compile(circuit)
    assert res.sdd.root.model_count(vs) == expected
    assert res.nnf.root.model_count(vs) == expected

    omgr = ObddManager(vs)
    assert omgr.count_models(omgr.compile_circuit(circuit)) == expected

    smgr = SddManager(Vtree.right_linear(vs))
    assert smgr.count_models(smgr.compile_circuit(circuit)) == expected


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_probability_agreement_across_engines(seed):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n_vars=4, n_gates=6)
    f = circuit.function()
    vs = sorted(f.variables)
    prob = {v: float(p) for v, p in zip(vs, rng.uniform(0.1, 0.9, size=len(vs)))}
    expected = f.probability(prob)

    res = Compiler("canonical", Lemma1Strategy(exact=False)).compile(circuit)
    assert res.sdd.root.probability(prob, vs) == pytest.approx(expected)

    omgr = ObddManager(vs)
    assert omgr.probability(omgr.compile_circuit(circuit), prob) == pytest.approx(expected)

    smgr = SddManager(Vtree.balanced(vs))
    assert smgr.probability(smgr.compile_circuit(circuit), prob) == pytest.approx(expected)


def test_generator_guards():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_circuit(rng, n_vars=0)
    with pytest.raises(ValueError):
        random_circuit(rng, n_gates=0)
