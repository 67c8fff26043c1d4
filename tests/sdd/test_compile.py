"""Tests for circuit-level SDD vtree search and serialization round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.build import chain_and_or, disjointness
from repro.circuits.random_circuits import random_circuit
from repro.circuits.serialize import (
    circuit_from_dict,
    circuit_to_dict,
    nnf_from_dict,
    nnf_to_dict,
)
from repro.core.sdd_compile import compile_canonical_sdd
from repro.core.vtree import Vtree
from repro.sdd.manager import sdd_from_circuit


class TestCircuitVtreeSearch:
    def test_compile_with_vtree(self):
        c = chain_and_or(5)
        mgr, root = sdd_from_circuit(c, Vtree.balanced(sorted(c.variables)))
        assert mgr.function(root, sorted(c.variables)) == c.function()

    def test_search_never_worse(self):
        c = disjointness(3)
        xs = [f"x{i}" for i in range(1, 4)]
        ys = [f"y{i}" for i in range(1, 4)]
        bad = Vtree.internal(Vtree.balanced(xs), Vtree.balanced(ys))
        mgr, root = sdd_from_circuit(c, bad)
        s0 = mgr.size(mgr.pin(root))
        root = mgr.minimize(rounds=5).get(root, root)
        best = mgr.size(root)
        assert best <= s0
        check, check_root = sdd_from_circuit(c, mgr.vtree)
        assert check.size(check_root) == best


class TestNnfSerialization:
    def test_round_trip_preserves_structure(self):
        rng = np.random.default_rng(1)
        c = random_circuit(rng, n_vars=4, n_gates=8)
        f = c.function()
        sdd = compile_canonical_sdd(f, Vtree.balanced(sorted(f.variables)))
        restored = nnf_from_dict(json.loads(json.dumps(nnf_to_dict(sdd.root))))
        assert restored.structural_key() == sdd.root.structural_key()
        assert restored.function(sorted(f.variables)) == f

    def test_container_codec_matches_legacy_strings(self):
        """The artifact container and the bare dict codec restore the
        same DAG."""
        from repro.artifact.format import nnf_from_bytes, nnf_to_bytes

        rng = np.random.default_rng(1)
        c = random_circuit(rng, n_vars=4, n_gates=8)
        f = c.function()
        sdd = compile_canonical_sdd(f, Vtree.balanced(sorted(f.variables)))
        restored = nnf_from_bytes(nnf_to_bytes(sdd.root))
        assert restored.structural_key() == sdd.root.structural_key()
        assert restored.structural_key() == nnf_from_dict(nnf_to_dict(sdd.root)).structural_key()

    def test_sharing_survives(self):
        rng = np.random.default_rng(2)
        c = random_circuit(rng, n_vars=4, n_gates=10)
        sdd = compile_canonical_sdd(c.function(), Vtree.balanced(sorted(c.variables)))
        data = nnf_to_dict(sdd.root)
        assert len(data["nodes"]) == sdd.root.size  # one entry per DAG node
        assert nnf_from_dict(data).size == sdd.root.size

    def test_constants_and_literals(self):
        from repro.circuits.nnf import false_node, lit, true_node

        for node in (true_node(), false_node(), lit("x", False)):
            restored = nnf_from_dict(json.loads(json.dumps(nnf_to_dict(node))))
            assert restored.structural_key() == node.structural_key()

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            nnf_from_dict({"format": "nope"})


class TestCircuitSerialization:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, n_vars=3, n_gates=6)
        restored = circuit_from_dict(circuit_to_dict(c))
        assert restored.size == c.size
        assert restored.function(c.variables) == c.function()

    def test_var_dedup_restored(self):
        c = chain_and_or(4)
        restored = circuit_from_dict(circuit_to_dict(c))
        assert restored.add_var("x1") == c.add_var("x1")

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            circuit_from_dict({"format": "nope"})
