"""The factorized lineage circuit computes the grounded DNF's function.

``lineage_circuit`` eliminates query variables instead of emitting one AND
per grounded term.  SDDs are canonical per vtree, so compiling it under
``lineage_vtree`` must give exactly the SDD the DNF (``terms_circuit`` over
``lineage_terms``) gives: equal size and equal exact weighted count.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.compile import lineage_vtree
from repro.queries.database import ProbabilisticDatabase, complete_database
from repro.queries.engine import QueryEngine
from repro.queries.evaluate import probability_via_ddnnf
from repro.queries.lineage import (
    lineage_circuit,
    lineage_function,
    lineage_terms,
    terms_circuit,
)
from repro.queries.syntax import parse_ucq
from repro.sdd.manager import SddManager
from repro.sdd.wmc import exact_weights

ROOT = Path(__file__).resolve().parents[2]
SCHEMA = {"R": 1, "S": 2, "U": 2}
UCQ_COLD = (
    "R(x),T(x)",
    "S(x,y),S(y,z),U(z,w)",
    "U(x,y),S(y,z),S(z,w)",
    "S(x,y),S(y,z)",
    "U(x,y),U(y,z),S(z,w)",
    "S(x,y),U(y,z),U(z,w)",
    "U(x,y),S(y,z)",
    "S(x,y),U(y,z),S(z,w)",
    "S(x,y),S(y,z),S(z,w)",
    "S(x,y),U(y,z)",
)


def _sdd(circuit, vtree):
    mgr = SddManager(vtree)
    return mgr, mgr.compile_circuit(circuit)


def assert_same_sdd(query, db):
    """Equal SDD size and exact WMC for the factorized and the DNF circuit."""
    vtree = lineage_vtree(query, db)
    fm, fr = _sdd(lineage_circuit(query, db), vtree)
    dm, dr = _sdd(terms_circuit(lineage_terms(query, db)), vtree)
    assert fm.size(fr) == dm.size(dr)
    weights = exact_weights(db.probability_map())
    assert fm.weighted_count(fr, weights) == dm.weighted_count(dr, weights)


TERM = st.one_of(st.sampled_from("xyz"), st.sampled_from("123"))


@st.composite
def atoms(draw):
    rel = draw(st.sampled_from(sorted(SCHEMA)))
    return f"{rel}({','.join(draw(TERM) for _ in range(SCHEMA[rel]))})"


@st.composite
def ucqs(draw):
    """1-2 disjuncts of 1-3 atoms with constants and repeated variables,
    and up to two inequalities; ``w`` occurs only in inequalities."""
    disjuncts = []
    for _ in range(draw(st.integers(1, 2))):
        parts = draw(st.lists(atoms(), min_size=1, max_size=3))
        pairs = st.tuples(st.sampled_from("xyzw"), st.sampled_from("xyzw"))
        parts += [f"{a}!={b}" for a, b in draw(st.lists(pairs, max_size=2))]
        disjuncts.append(",".join(parts))
    return parse_ucq(" | ".join(disjuncts))


ALL_TUPLES = [
    (rel, tup)
    for rel, arity in sorted(SCHEMA.items())
    for tup in itertools.product(range(1, 4), repeat=arity)
]


@st.composite
def instances(draw):
    """A random subset of the complete domain-3 instance (at most 12
    tuples, so truth tables stay small) with probabilities in twentieths."""
    chosen = draw(st.lists(st.sampled_from(ALL_TUPLES), min_size=1, max_size=12, unique=True))
    db = ProbabilisticDatabase()
    for rel, tup in chosen:
        db.add(rel, *tup, p=draw(st.integers(1, 19)) / 20)
    return db


@settings(max_examples=200, deadline=None)
@given(ucqs(), instances())
def test_random_ucqs_match_the_dnf(query, db):
    circuit = lineage_circuit(query, db)
    assert circuit.function(db.all_tuple_variables()) == lineage_function(query, db)
    assert_same_sdd(query, db)


@pytest.mark.parametrize("text", UCQ_COLD)
def test_chain_corpus_domain4(text):
    db = complete_database({"R": 1, "S": 2, "T": 1, "U": 2}, 4, p=0.3)
    assert_same_sdd(parse_ucq(text), db)


def test_every_tuple_keeps_its_variable_gate():
    db = complete_database({"R": 1, "S": 2, "T": 1, "U": 2}, 2)
    circuit = lineage_circuit(parse_ucq("R(1),S(1,y)"), db)
    assert circuit.variables == tuple(sorted(db.all_tuple_variables()))


GATES_SCRIPT = """
from repro.queries.database import complete_database
from repro.queries.lineage import lineage_circuit
from repro.queries.syntax import parse_ucq

db = complete_database({"R": 1, "S": 2, "T": 1, "U": 2}, 3)
for text in ("S(x,y),U(y,z),S(z,w)", "R(x),S(x,y),x!=y,y!=w | S(x,x),U(x,2)"):
    print([(g.kind, g.inputs, g.payload) for g in lineage_circuit(parse_ucq(text), db).gates])
"""


def test_gate_order_ignores_hash_seed():
    outputs = set()
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", GATES_SCRIPT], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.ddnnf
def test_ddnnf_engine_answers_the_domain4_chain():
    """The one-shot d-DNNF route finishes ``S·U·U`` at domain 4 on the
    factorized circuit (the flat DNF does not) with the SDD engine's exact
    answer."""
    db = complete_database({"R": 1, "S": 2, "T": 1, "U": 2}, 4, p=0.3)
    query = parse_ucq("S(x,y),U(y,z),U(z,w)")
    got = probability_via_ddnnf(query, db, exact=True)
    want = QueryEngine(db).probability(query, exact=True)
    assert isinstance(got, Fraction)
    assert got == want
