"""Structural updates patch cached SDD roots from the factorized lineage.

An insert disjoins :func:`~repro.queries.lineage.lineage_delta` (the
lineage with one atom bound to the new tuple) onto each cached root, and a
delete conditions the tuple's variable out; only a query with an
inequality-only variable recompiles, and only when the active domain
changed.  The patched engine must equal a fresh engine on the same
(extended) vtree: float ``repr``, exact ``Fraction`` and compiled size.
No path grounds the DNF, and the ``max_nodes`` budget holds after every
update, not only after the next compile.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries import lineage
from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.lineage import (
    has_inequality_only_variable,
    lineage_delta,
    lineage_terms,
    terms_circuit,
    unifies,
)
from repro.queries.syntax import parse_ucq
from repro.sdd.manager import SddManager

from .test_factorized_lineage import SCHEMA, ucqs

ROOT = Path(__file__).resolve().parents[2]
# Tuples over the values 1-4; instances start within 1-3, so the value 4
# is always a fresh constant when an update brings it in.
TUPLES = [
    (rel, tup)
    for rel, arity in sorted(SCHEMA.items())
    for tup in itertools.product(range(1, 5), repeat=arity)
]
PROBS = [0.15, 0.3, 0.45, 0.6, 0.75, 0.9]


@st.composite
def instances(draw, max_size=12):
    """A non-empty random subset of the complete domain-k instance, k <= 3
    (small domains, so an inequality-only variable's domain matters)."""
    k = draw(st.integers(1, 3))
    pool = [(rel, tup) for rel, tup in TUPLES if max(tup) <= k]
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_size,
                           unique=True))
    db = ProbabilisticDatabase()
    for i, (rel, tup) in enumerate(chosen):
        db.add(rel, *tup, p=PROBS[i % len(PROBS)])
    return db


# One op = (selector, probability index): the selector picks a tuple of
# TUPLES, which is deleted if present and inserted otherwise.
ops_strategy = st.lists(
    st.tuples(st.integers(0, len(TUPLES) - 1), st.integers(0, len(PROBS) - 1)),
    min_size=1,
    max_size=5,
)


def toggle(db: ProbabilisticDatabase, rel: str, tup: tuple, p: float):
    """Insert ``rel(tup)`` if absent, else delete it (``None`` if that would
    empty the instance)."""
    if not db.contains(rel, tup):
        return db.insert(rel, *tup, p=p)
    if db.size > 1:
        return db.delete(rel, *tup)
    return None


def assert_matches_fresh(engine: QueryEngine, db, queries) -> None:
    fresh = QueryEngine(db, vtree=engine.vtree)
    for q in queries:
        assert repr(engine.probability(q)) == repr(fresh.probability(q)), q
        assert engine.probability(q, exact=True) == fresh.probability(q, exact=True), q
        assert engine.compiled_size(q) == fresh.compiled_size(q), q


def warm_engine(db, queries) -> QueryEngine:
    engine = QueryEngine(db)
    for q in queries:
        engine.probability(q)
        engine.probability(q, exact=True)
    return engine


@pytest.mark.updates
class TestPatchedEqualsFresh:
    @settings(max_examples=60, deadline=None)
    @given(queries=st.lists(ucqs(), min_size=1, max_size=3), db=instances(), ops=ops_strategy)
    def test_random_updates(self, queries, db, ops):
        engine = warm_engine(db, queries)
        for sel, pidx in ops:
            rel, tup = TUPLES[sel]
            delta = toggle(db, rel, tup, PROBS[pidx])
            if delta is not None:
                engine.apply_update(delta)
                assert_matches_fresh(engine, db, queries)

    @settings(max_examples=40, deadline=None)
    @given(query=ucqs(), db=instances(max_size=10), pick=st.integers(0, 99))
    def test_delta_is_the_terms_that_use_the_tuple(self, query, db, pick):
        rel, tup = sorted((r, t) for r in db.relations for t in db.relations[r])[
            pick % db.size
        ]
        var = f"{rel}({','.join(map(str, tup))})"
        scope = db.all_tuple_variables()
        want = terms_circuit(t for t in lineage_terms(query, db) if var in t)
        assert lineage_delta(query, db, rel, tup).function(scope) == want.function(scope)

    def test_fresh_constant_and_last_tuple_of_a_constant(self):
        queries = [parse_ucq(t) for t in (
            "R(x),S(x,y)",
            "S(x,x) | U(x,1)",
            "R(x),v!=x,w!=x,v!=w",  # v, w are inequality-only: needs 3 values
            "S(x,3),U(3,y),x!=y",
        )]
        db = ProbabilisticDatabase()
        for i, (rel, tup) in enumerate([("R", (1,)), ("R", (2,)), ("S", (1, 2)), ("U", (2, 1))]):
            db.add(rel, *tup, p=PROBS[i])
        engine = warm_engine(db, queries)
        assert engine.probability(queries[2]) == 0.0
        engine.apply_update(db.insert("S", 3, 3, p=0.6))  # 3 is a fresh constant
        assert_matches_fresh(engine, db, queries)
        assert engine.probability(queries[2]) > 0.0
        assert engine.stats()["update_recompiles"] == 1  # only the inequality query
        engine.apply_update(db.delete("S", 3, 3))  # 3's last tuple
        assert_matches_fresh(engine, db, queries)
        assert engine.probability(queries[2]) == 0.0
        assert engine.stats()["update_recompiles"] == 2
        engine.apply_update(db.delete("U", 2, 1))  # domain unchanged
        assert_matches_fresh(engine, db, queries)
        assert engine.stats()["update_recompiles"] == 2


def test_unifier_checks_constants_and_repeated_variables():
    q = parse_ucq("S(x,x) | U(x,2)")
    assert unifies(q, "S", (1, 1))
    assert not unifies(q, "S", (1, 2))
    assert unifies(q, "U", (3, 2))
    assert not unifies(q, "U", (3, 1))
    assert not unifies(q, "R", (1,))
    empty = lineage_delta(q, complete_database(SCHEMA, 2), "S", (1, 2))
    assert empty.variables == ()
    assert not has_inequality_only_variable(parse_ucq("R(x),S(y,z),x!=y"))
    assert has_inequality_only_variable(parse_ucq("R(x) | S(x,y),y!=w"))


def test_delta_gates_are_sorted_and_ignore_hash_seed():
    script = (
        "from repro.queries.database import complete_database\n"
        "from repro.queries.lineage import lineage_delta\n"
        "from repro.queries.syntax import parse_ucq\n"
        "db = complete_database({'R': 1, 'S': 2, 'U': 2}, 3)\n"
        "q = parse_ucq('S(x,y),U(y,z),S(z,w) | R(x),S(x,y),x!=w')\n"
        "c = lineage_delta(q, db, 'S', (1, 2))\n"
        "print([(g.kind, g.inputs, g.payload) for g in c.gates])\n"
    )
    outputs = set()
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    db = complete_database(SCHEMA, 3)
    c = lineage_delta(parse_ucq("S(x,y),U(y,z)"), db, "S", (1, 2))
    head = [g.payload for g in c.gates[: len(c.variables)]]
    assert head == list(c.variables) == ["S(1,2)", "U(2,1)", "U(2,2)", "U(2,3)"]


def test_sdd_updates_never_ground(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the SDD engine path grounded the DNF")

    monkeypatch.setattr(lineage, "ground_cq", refuse)
    db = complete_database({"R": 1, "S": 2, "T": 1, "U": 2}, 3, p=0.3)
    queries = [parse_ucq(t) for t in ("R(x),S(x,y)", "S(x,y),U(y,z),S(z,w)", "R(x),T(y),x!=w")]
    engine = warm_engine(db, queries)
    engine.apply_update(db.insert("S", 5, 1, p=0.4))
    engine.apply_update(db.delete("S", 1, 2))
    for q in queries:
        engine.probability(q, exact=True)
    assert engine.stats()["update_recompiles"] == 1  # R(x),T(y),x!=w on the insert


def test_unrelated_relation_costs_no_apply(monkeypatch):
    db = complete_database({"R": 1, "S": 2}, 3, p=0.3)
    query = parse_ucq("R(x)")
    engine = warm_engine(db, [query])
    root = engine.cached_root(query)

    def refuse(*args, **kwargs):
        raise AssertionError("an update on S compiled a circuit for a query over R")

    monkeypatch.setattr(SddManager, "compile_circuit", refuse)
    for update in (lambda: db.insert("S", 7, 1, p=0.4), lambda: db.delete("S", 7, 1)):
        inc = engine.apply_update(update())
        assert inc["delta_patched_roots"] == 0
        assert inc["update_recompiles"] == 0
    assert engine.cached_root(query) == root
    assert engine.stats()["delta_patched_roots"] == 0


def test_updates_respect_max_nodes():
    db = complete_database({"R": 1, "S": 2, "T": 1, "U": 2}, 4)
    engine = QueryEngine(db, max_nodes=800)
    queries = [parse_ucq(t) for t in ("S(x,y),U(y,z)", "R(x),S(x,y)", "S(x,y),S(y,z)")]
    for q in queries:
        engine.probability(q)
    assert engine.live_nodes() <= engine.max_nodes
    compiled = engine.stats()["cache_misses"]
    for i in range(60):
        tup = (1 + i % 4, 2)
        for update in (lambda: db.delete("S", *tup), lambda: db.insert("S", *tup, p=0.5)):
            engine.apply_update(update())
            assert engine.live_nodes() <= engine.max_nodes
    assert engine.stats()["cache_misses"] == compiled
    assert_matches_fresh(engine, db, [q for q in queries if engine.cached_root(q) is not None])
