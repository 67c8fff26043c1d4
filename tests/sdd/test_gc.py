"""Garbage-collection properties of :class:`SddManager`.

The invariants that make GC safe to run mid-session:

- collection never touches anything reachable from a pinned root
  (``validate`` still passes, WMC values are bit-identical);
- every cache keyed by node id (apply, negation, registered WMC memos) is
  evicted coherently, so recycled ids can never resurrect stale entries;
- recompiling a collected function reproduces the same canonical node and
  the same probability;
- a collection sweeps everything unpinned, however recently it was built.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.build import chain_and_or, parity
from repro.circuits.random_circuits import random_circuit
from repro.core.vtree import Vtree
from repro.sdd.manager import SddManager
from repro.sdd.wmc import SddWmcEvaluator, exact_weights


def fresh_manager(n: int = 40) -> SddManager:
    return SddManager(Vtree.right_linear([f"x{i}" for i in range(1, n + 1)]))


def half_weights(n: int = 40):
    return exact_weights({f"x{i}": "0.5" for i in range(1, n + 1)})


class TestPinRelease:
    def test_pin_counts(self):
        mgr = fresh_manager()
        root = mgr.compile_circuit(chain_and_or(40))
        mgr.pin(root)
        mgr.pin(root)
        mgr.release(root)
        mgr.gc()
        mgr.validate(root)  # still pinned once
        mgr.release(root)
        with pytest.raises(ValueError):
            mgr.release(root)

    def test_constants_need_no_pin(self):
        mgr = fresh_manager()
        assert mgr.pin(mgr.true) == mgr.true
        mgr.release(mgr.false)  # no-op, no error
        mgr.gc()

    def test_pin_collected_node_rejected(self):
        mgr = fresh_manager()
        root = mgr.compile_circuit(chain_and_or(40))
        mgr.gc()  # nothing pinned: root is swept
        with pytest.raises(ValueError):
            mgr.pin(root)

    def test_literals_survive_collection(self):
        mgr = fresh_manager()
        a = mgr.literal("x1")
        mgr.gc()
        assert mgr.literal("x1") == a
        assert mgr.stats()["literal_nodes"] == 1


class TestCollectionSafety:
    def test_validate_and_wmc_unchanged_across_gc(self):
        mgr = fresh_manager()
        root = mgr.pin(mgr.compile_circuit(chain_and_or(40)))
        junk = mgr.compile_circuit(parity(30))  # noqa: F841 — garbage on purpose
        ev = SddWmcEvaluator(mgr, half_weights())
        value_before = ev.value(root)
        stats = mgr.gc()
        assert stats["collected"] > 0
        mgr.validate(root)
        assert ev.value(root) == value_before
        # A fresh evaluator over the post-gc manager agrees too.
        assert SddWmcEvaluator(mgr, half_weights()).value(root) == value_before

    def test_recompile_after_collection_reproduces_probability(self):
        mgr = fresh_manager()
        root = mgr.compile_circuit(parity(40))
        ev = SddWmcEvaluator(mgr, half_weights())
        value = ev.value(root)
        mgr.gc()  # root unpinned: collected
        root2 = mgr.compile_circuit(parity(40))
        assert ev.value(root2) == value
        mgr.validate(root2)

    def test_id_reuse_is_coherent(self):
        """Freed slots are recycled; recycled ids must never hit stale
        apply/neg/WMC cache entries."""
        mgr = fresh_manager()
        keep = mgr.pin(mgr.compile_circuit(chain_and_or(40)))
        mgr.compile_circuit(parity(30))
        ev = SddWmcEvaluator(mgr, half_weights())
        keep_value = ev.value(keep)
        capacity_before = len(mgr.node_kind)
        mgr.gc()
        assert mgr.stats()["free_nodes"] > 0
        root = mgr.compile_circuit(parity(25))  # refills freed slots
        assert len(mgr.node_kind) <= capacity_before + 5
        mgr.validate(root)
        mgr.validate(keep)
        assert ev.value(root) == SddWmcEvaluator(mgr, half_weights()).value(root)
        assert ev.value(keep) == keep_value
        neg = mgr.negate(root)
        assert mgr.count_models(neg) == (1 << 40) - mgr.count_models(root)

    def test_shared_structure_survives_partner_release(self):
        mgr = fresh_manager()
        a = mgr.pin(mgr.compile_circuit(chain_and_or(40)))
        b = mgr.pin(mgr.disjoin(a, mgr.compile_circuit(parity(30))))
        mgr.release(a)
        mgr.gc()
        mgr.validate(b)  # b reaches much of a's structure; must be intact
        assert 0 < mgr.count_models(b) < (1 << 40)


class TestSweep:
    def test_gc_sweeps_unpinned_fresh_compile(self):
        """A plain ``gc()`` sweeps a result compiled a moment ago and left
        unpinned, and keeps every pinned root valid."""
        mgr = fresh_manager()
        keep = mgr.pin(mgr.compile_circuit(chain_and_or(40)))
        both = mgr.pin(mgr.conjoin(keep, mgr.compile_circuit(parity(20))))
        fresh = mgr.compile_circuit(parity(30))
        assert mgr.gc()["collected"] > 0
        assert mgr.node_kind[fresh] == "free"
        assert set(mgr.pinned_roots()) == {keep, both}
        for root in mgr.pinned_roots():
            mgr.validate(root)

    def test_stats_counters(self):
        mgr = fresh_manager()
        root = mgr.pin(mgr.compile_circuit(chain_and_or(40)))
        mgr.compile_circuit(parity(30))
        before = mgr.stats()
        mgr.gc()
        after = mgr.stats()
        assert after["gc_runs"] == before["gc_runs"] + 1
        assert after["collected_nodes"] > before["collected_nodes"]
        assert after["nodes"] < before["nodes"]
        assert after["node_capacity"] == before["node_capacity"]
        assert after["free_nodes"] == after["node_capacity"] - after["nodes"]
        assert after["pinned_roots"] == 1
        mgr.validate(root)


class TestGcProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_circuits_survive_gc_roundtrip(self, seed):
        """Compile two random circuits, pin one, collect, and check the
        pinned SDD's count and the recompiled partner's count both match
        their pre-collection values."""
        rng = np.random.default_rng(seed)
        c1 = random_circuit(rng, n_vars=6, n_gates=12)
        c2 = random_circuit(rng, n_vars=6, n_gates=12)
        vs = sorted(set(map(str, c1.variables)) | set(map(str, c2.variables)))
        mgr = SddManager(Vtree.right_linear(vs))
        r1 = mgr.pin(mgr.compile_circuit(c1))
        r2 = mgr.compile_circuit(c2)
        count1 = mgr.count_models(r1, vs)
        count2 = mgr.count_models(r2, vs)
        mgr.gc()
        mgr.validate(r1)
        assert mgr.count_models(r1, vs) == count1
        r2b = mgr.compile_circuit(c2)
        assert mgr.count_models(r2b, vs) == count2
