"""Property-based round trips: random circuits and UCQ lineage.

The hypothesis half of the ``-m artifact`` suite: for *any* random
circuit, ``compile → save → load`` preserves model count, bit-identical
float WMC, exact WMC, and every total-assignment evaluation, on all four
backends.  For UCQ lineage, an engine warm-started from a saved artifact
answers every frozen query bit-identically with **zero** compilations,
before and after a weight update, which evicts only the stale memo cone.
"""

from __future__ import annotations

import itertools
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.random_circuits import random_circuit
from repro.compiler import Compiler
from repro.queries.database import complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq

pytestmark = pytest.mark.artifact

BACKENDS = ["canonical", "apply", "obdd", "ddnnf"]


def _prob_for(variables):
    return {v: 0.1 + 0.8 * (i % 7) / 7 for i, v in enumerate(sorted(variables))}


def _assignments(variables):
    vs = sorted(variables)
    for bits in itertools.product((0, 1), repeat=len(vs)):
        yield dict(zip(vs, bits))


class TestRandomCircuitRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_save_load_preserves_semantics(self, tmp_path_factory, backend, seed):
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, n_vars=4, n_gates=7)
        strategy = "natural" if backend in ("obdd", "ddnnf") else "lemma1"
        compiled = Compiler(backend=backend, strategy=strategy).compile(c)
        path = tmp_path_factory.mktemp("rt") / f"{backend}-{seed}.rpaf"
        compiled.save(path)
        loaded = Compiler.load(path)
        try:
            assert loaded.backend == backend
            assert loaded.model_count() == compiled.model_count()
            variables = set(map(str, c.variables))
            prob = _prob_for(variables)
            assert repr(loaded.probability(prob)) == repr(compiled.probability(prob))
            assert loaded.probability(prob, exact=True) == compiled.probability(
                prob, exact=True
            )
            for a in _assignments(variables):
                assert loaded.evaluate(a) == compiled.evaluate(a)
        finally:
            loaded.close()


class TestUcqLineageRoundTrip:
    QUERIES = ["R(x),S(x,y)", "S(x,y)", "R(x),S(x,x)", "R(x) | S(x,y)"]

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_artifact_engine_bit_identical(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        p = round(0.15 + 0.7 * float(rng.random()), 6)
        db = complete_database({"R": 1, "S": 2}, 3, p=p)
        qs = [parse_ucq(t) for t in self.QUERIES]
        live = QueryEngine(db)
        expect = [live.probability(q) for q in qs]
        exact = [live.probability(q, exact=True) for q in qs]
        sizes = [live.compiled_size(q) for q in qs]
        path = tmp_path_factory.mktemp("ucq") / "base.rpaf"
        live.save_artifact(path)

        with closing(QueryEngine(db, frozen=path)) as warm:
            got = [warm.probability(q) for q in qs]
            assert [repr(g) for g in got] == [repr(e) for e in expect]
            assert [warm.probability(q, exact=True) for q in qs] == exact
            assert [warm.compiled_size(q) for q in qs] == sizes
            stats = warm.stats()
            assert stats["cache_misses"] == 0
            assert stats["frozen_queries"] == len(qs)
            assert stats["frozen_hits"] > 0

            # A weight update whose new probability changes the tuple's
            # denominator: the frozen base still answers (no recompile), and
            # its exact and float answers equal the live session's.
            delta = db.set_probability("S", 1, 2, p=round(p / 3, 6))
            live.apply_update(delta)
            frozen_memo = warm.stats()["wmc_memo_entries"]
            warm.apply_update(delta)
            # A point update of the evaluators over the frozen base: it evicts
            # the cone above the tuple's vtree leaf, not the whole memo.
            assert 0 < warm.stats()["memo_invalidations"] < frozen_memo
            exact = [live.probability(q, exact=True) for q in qs]
            assert [warm.probability(q, exact=True) for q in qs] == exact
            assert [repr(warm.probability(q)) for q in qs] == [
                repr(live.probability(q)) for q in qs
            ]
            assert warm.stats()["cache_misses"] == 0

    def test_db_mismatch_rejected(self, tmp_path):
        db = complete_database({"R": 1}, 2, p=0.5)
        other = complete_database({"R": 1}, 2, p=0.25)
        engine = QueryEngine(db)
        q = parse_ucq("R(x)")
        engine.probability(q)
        path = tmp_path / "base.rpaf"
        engine.save_artifact(path)
        with pytest.raises(ValueError):
            QueryEngine(other, frozen=path)
