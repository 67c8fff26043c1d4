"""Frozen stores: freeze -> write -> mmap -> evaluate -> thaw.

The tentpole contract under test: a store frozen from a live manager and
read back through an mmap-ed file answers **bit-identically** to the live
structure — float WMC included, because the frozen store runs the live
evaluators and structure queries over its mapped tables — and thaws back
into a live manager/DAG whose answers match again.
"""

from __future__ import annotations

import itertools
from contextlib import closing
from fractions import Fraction

import numpy as np
import pytest

from repro.artifact.encoding import ArtifactError
from repro.artifact.format import export_sdd_text, export_vtree_text, import_sdd_text
from repro.artifact.store import FrozenDdnnf, FrozenObdd, FrozenSdd
from repro.circuits.parse import parse_formula
from repro.circuits.random_circuits import random_circuit
from repro.compiler import Compiler
from repro.core.vtree import Vtree
from repro.sdd.manager import SddManager

pytestmark = pytest.mark.artifact

FORMULAS = [
    "(a & b) | c",
    "(a & b) | (c & ~a) | (b & ~c)",
    "(x1 | x2) & (x2 | x3) & (x3 | x4) & ~(x1 & x4)",
]


def _prob_for(variables):
    return {v: 0.1 + 0.8 * (i % 7) / 7 for i, v in enumerate(sorted(variables))}


def _assignments(variables):
    vs = sorted(variables)
    for bits in itertools.product((0, 1), repeat=len(vs)):
        yield dict(zip(vs, bits))


class TestFrozenSdd:
    @pytest.mark.parametrize("formula", FORMULAS)
    def test_freeze_write_load_bit_identical(self, formula, tmp_path):
        compiled = Compiler(backend="apply").compile(parse_formula(formula))
        mgr, root = compiled.manager, compiled.root
        frozen = mgr.freeze([root], names=["q"], meta={"k": "v"})
        path = tmp_path / "sdd.rpaf"
        frozen.write(path)
        loaded = FrozenSdd.load(path)
        r = loaded.root_named("q")
        assert loaded.meta["k"] == "v"
        assert loaded.size(r) == mgr.size(root)
        assert loaded.width(r) == mgr.width(root)
        prob = _prob_for(loaded.variables)
        assert repr(loaded.probability(r, prob)) == repr(
            mgr.probability(root, prob)
        )
        from repro.sdd.wmc import probability as sdd_probability

        assert loaded.probability(r, prob, exact=True) == sdd_probability(
            mgr, root, prob, exact=True
        )
        for a in _assignments(loaded.variables):
            assert loaded.evaluate(r, a) == mgr.evaluate(root, a)
        loaded.close()

    @pytest.mark.parametrize("formula", FORMULAS)
    def test_thaw_round_trip(self, formula):
        compiled = Compiler(backend="apply").compile(parse_formula(formula))
        frozen = compiled.manager.freeze([compiled.root])
        mgr2, roots2 = frozen.to_manager()
        prob = _prob_for(frozen.variables)
        assert repr(mgr2.probability(roots2[0], prob)) == repr(
            compiled.manager.probability(compiled.root, prob)
        )
        # Re-freezing the thawed manager reproduces the same tables.
        again = mgr2.freeze(roots2)
        assert list(again.lits) == list(frozen.lits)
        assert list(again.elems) == list(frozen.elems)
        assert list(again.roots) == list(frozen.roots)

    def test_vtree_survives(self, tmp_path):
        compiled = Compiler(backend="apply").compile(parse_formula(FORMULAS[1]))
        frozen = compiled.manager.freeze([compiled.root])
        assert frozen.vtree().to_postfix() == compiled.manager.vtree.to_postfix()

    def test_wrong_kind_rejected(self, tmp_path):
        compiled = Compiler(backend="obdd", strategy="natural").compile(
            parse_formula("(a & b) | c")
        )
        path = tmp_path / "obdd.rpaf"
        compiled.save(path)
        with pytest.raises(ArtifactError):
            FrozenSdd.load(path)


class TestSddLoadValidation:
    """Every decision's primes must sit under the left child of its vtree
    node and its subs under the right child; a store that breaks this is
    rejected at load, before any WMC gap climb can leave the vtree."""

    def test_pysdd_decision_moved_to_the_wrong_vtree_node(self):
        mgr = SddManager(Vtree.balanced(["a", "b", "c", "d"]))
        frozen = mgr.freeze([mgr.compile_circuit(parse_formula("(a & b) | (c & d)"))])
        vtree_text = export_vtree_text(frozen.vtree())
        sdd_text = export_sdd_text(frozen)
        assert import_sdd_text(sdd_text, vtree_text).count_models(frozen.roots[0]) == 7
        # Move the root decision down to the root's right vtree child
        # ({c, d}), where its primes (functions of a and b) cannot sit.
        lines = sdd_text.splitlines()
        toks = lines[-1].split()
        assert toks[0] == "D" and int(toks[2]) == frozen.v_root
        toks[2] = str(frozen.v_right[frozen.v_root])
        lines[-1] = " ".join(toks)
        with pytest.raises(ArtifactError, match="prime"):
            import_sdd_text("\n".join(lines) + "\n", vtree_text)

    # vars a, b; vtree (a b): a at 0, b at 1, root 2.  Literal ids:
    # 2 = ~a, 3 = a, 4 = ~b, 5 = b; decision 6 at the root, a & b.
    TABLES = (["a", "b"], [0, 1, -1], [0, 1, 2, 3], [2], [0, 2])
    A_AND_B = [3, 5, 2, 0]

    def test_direct_construction_with_swapped_prime_and_sub(self):
        good = FrozenSdd(*self.TABLES, self.A_AND_B, [6])
        assert good.probability(6, {"a": 0.5, "b": 0.5}) == 0.25
        with pytest.raises(ArtifactError, match="prime"):
            FrozenSdd(*self.TABLES, [5, 3, 2, 0], [6])
        with pytest.raises(ArtifactError, match="sub"):
            FrozenSdd(*self.TABLES, [3, 2, 2, 0], [6])

    def test_mmap_load_rejects_and_unmaps(self, tmp_path):
        store = FrozenSdd(*self.TABLES, self.A_AND_B, [6])
        store.elems = [5, 3, 2, 0]  # written as is: prime and sub swapped
        path = tmp_path / "swapped.rpaf"
        store.write(path)
        with pytest.raises(ArtifactError, match="prime"):
            FrozenSdd.load(path)


class TestFrozenDdnnf:
    @pytest.mark.parametrize("formula", FORMULAS)
    def test_freeze_write_load_bit_identical(self, formula, tmp_path):
        compiled = Compiler(backend="ddnnf", strategy="natural").compile(
            parse_formula(formula)
        )
        dag, root = compiled.dag, compiled.root
        frozen = dag.freeze([root])
        path = tmp_path / "d.rpaf"
        frozen.write(path)
        loaded = FrozenDdnnf.load(path)
        r = loaded.roots[0]
        assert loaded.size(r) == dag.size(root)
        assert loaded.scopes(r)[r] == dag.scopes(root)[root]
        prob = _prob_for(loaded.scopes(r)[r] or {"a"})
        from repro.dnnf.wmc import probability as dnnf_probability

        assert repr(loaded.probability(r, prob)) == repr(
            dnnf_probability(dag, root, prob)
        )
        for a in _assignments(loaded.scopes(r)[r]):
            assert loaded.evaluate(r, a) == dag.evaluate(root, a)
        loaded.close()

    def test_malformed_node_kinds_rejected(self):
        # var a; ids 0/1 constants, 2 = a, 3 = ~a, 4 = OR(a, ~a).
        kinds, litv = [0, 1, 2, 2, 4], [-1, -1, 1, 0, -1]
        ch_off, children = [0, 0, 0, 0, 0, 2], [2, 3]
        good = FrozenDdnnf(["a"], kinds, litv, ch_off, children, [4])
        assert good.count_models(4) == 2
        with pytest.raises(ArtifactError, match="kind"):  # a constant at id 2
            FrozenDdnnf(["a"], [0, 1, 1, 2, 4], litv, ch_off, children, [4])
        with pytest.raises(ArtifactError, match="literal"):  # ~a with a child
            FrozenDdnnf(["a"], kinds, litv, [0, 0, 0, 0, 1, 3], [0, 2, 3], [4])
        with pytest.raises(ArtifactError, match="constant"):  # FALSE with a child
            FrozenDdnnf(["a"], kinds, litv, [0, 1, 1, 1, 1, 3], [0, 2, 3], [4])

    def test_thaw_round_trip(self):
        compiled = Compiler(backend="ddnnf", strategy="natural").compile(
            parse_formula(FORMULAS[1])
        )
        frozen = compiled.dag.freeze([compiled.root])
        dag2, roots2 = frozen.to_dag()
        again = dag2.freeze(roots2)
        assert list(again.kinds) == list(frozen.kinds)
        assert list(again.children) == list(frozen.children)
        assert list(again.roots) == list(frozen.roots)


class TestFrozenObdd:
    @pytest.mark.parametrize("formula", FORMULAS)
    def test_freeze_write_load_bit_identical(self, formula, tmp_path):
        compiled = Compiler(backend="obdd", strategy="natural").compile(
            parse_formula(formula)
        )
        mgr, root = compiled.manager, compiled.root
        frozen = mgr.freeze([root])
        path = tmp_path / "o.rpaf"
        frozen.write(path)
        loaded = FrozenObdd.load(path)
        r = loaded.roots[0]
        assert loaded.count_models(r) == mgr.count_models(root)
        prob = _prob_for(loaded.vars)
        assert repr(loaded.probability(r, prob)) == repr(
            mgr.probability(root, prob)
        )
        from repro.sdd.wmc import exact_weights

        assert loaded.probability(r, prob, exact=True) == Fraction(
            mgr.weighted_count(root, exact_weights(prob))
        )
        for a in _assignments(loaded.vars):
            assert loaded.evaluate(r, a) == mgr.evaluate(root, a)
        loaded.close()

    def test_thaw_round_trip(self):
        compiled = Compiler(backend="obdd", strategy="natural").compile(
            parse_formula(FORMULAS[2])
        )
        frozen = compiled.manager.freeze([compiled.root])
        mgr2, roots2 = frozen.to_manager()
        assert mgr2.count_models(roots2[0]) == compiled.manager.count_models(
            compiled.root
        )
        again = mgr2.freeze(roots2)
        assert list(again.level) == list(frozen.level)
        assert list(again.lo) == list(frozen.lo)
        assert list(again.hi) == list(frozen.hi)


class TestFrozenCompiled:
    """``Compiled`` results over frozen stores: ``Compiler.load`` returns
    the class that saved the file, answering through the same code."""

    BACKENDS = ["canonical", "apply", "obdd", "ddnnf"]
    SAVED = [(b, "natural" if b in ("obdd", "ddnnf") else "lemma1") for b in BACKENDS] + [
        (("apply", "ddnnf"), "natural"),
        (("apply", "obdd"), "natural"),
    ]

    @staticmethod
    def _public(obj) -> set[str]:
        return {name for name in dir(obj) if not name.startswith("_")}

    @pytest.mark.parametrize("backend,strategy", SAVED)
    @pytest.mark.parametrize("circuit", ["grid(3,4)", *FORMULAS])
    def test_load_returns_the_saved_class(self, backend, strategy, circuit, tmp_path):
        from repro.circuits.build import grid
        from repro.compiler import Compiled

        c = grid(3, 4) if circuit == "grid(3,4)" else parse_formula(circuit)
        compiled = Compiler(backend=backend, strategy=strategy).compile(c)
        live = getattr(compiled, "winner", compiled)
        path = tmp_path / "c.rpaf"
        compiled.save(path)
        with closing(Compiler.load(path)) as loaded:
            assert type(loaded) is type(live)
            assert isinstance(loaded, Compiled)
            assert self._public(loaded) == self._public(live)
            assert (loaded.backend, loaded.strategy) == (live.backend, live.strategy)
            assert loaded.decomposition_width == live.decomposition_width
            assert loaded.vtree.to_postfix() == live.vtree.to_postfix()
            assert (loaded.size, loaded.width) == (live.size, live.width)
            # save -> load -> save writes the very same bytes.
            loaded.save(tmp_path / "again.rpaf")
        assert (tmp_path / "again.rpaf").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("formula", FORMULAS)
    def test_save_load_matches_live(self, backend, formula, tmp_path):
        strategy = "natural" if backend in ("obdd", "ddnnf") else "lemma1"
        compiled = Compiler(backend=backend, strategy=strategy).compile(
            parse_formula(formula)
        )
        path = tmp_path / f"{backend}.rpaf"
        compiled.save(path)
        with closing(Compiler.load(path)) as loaded:
            assert loaded.backend == backend
            assert loaded.size == compiled.size
            assert loaded.width == compiled.width
            assert loaded.model_count() == compiled.model_count()
            variables = set(map(str, compiled.circuit.variables))
            prob = _prob_for(variables)
            assert repr(loaded.probability(prob)) == repr(compiled.probability(prob))
            assert loaded.probability(prob, exact=True) == compiled.probability(
                prob, exact=True
            )
            for a in _assignments(variables):
                assert loaded.evaluate(a) == compiled.evaluate(a)
            # Round trip again: save the loaded result and reload it.
            path2 = tmp_path / f"{backend}-2.rpaf"
            loaded.save(path2)
        with closing(Compiler.load(path2)) as again:
            assert again.model_count() == compiled.model_count()
            assert repr(again.probability(prob)) == repr(compiled.probability(prob))

    def test_race_saves_winner(self, tmp_path):
        compiled = Compiler(backend=("apply", "ddnnf"), strategy="natural").compile(
            parse_formula(FORMULAS[0])
        )
        path = tmp_path / "race.rpaf"
        compiled.save(path)
        with closing(Compiler.load(path)) as loaded:
            assert loaded.model_count() == compiled.model_count()

    def test_mmap_and_heap_loads_agree(self, tmp_path):
        compiled = Compiler(backend="apply").compile(parse_formula(FORMULAS[1]))
        path = tmp_path / "m.rpaf"
        compiled.save(path)
        prob = _prob_for(set(map(str, compiled.circuit.variables)))
        with closing(Compiler.load(path, use_mmap=True)) as mm, closing(
            Compiler.load(path, use_mmap=False)
        ) as heap:
            assert repr(mm.probability(prob)) == repr(heap.probability(prob))
            assert mm.model_count() == heap.model_count()

    def test_random_circuits_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(6):
            c = random_circuit(rng, n_vars=4, n_gates=8)
            compiled = Compiler(backend="apply").compile(c)
            path = tmp_path / f"r{i}.rpaf"
            compiled.save(path)
            with closing(Compiler.load(path)) as loaded:
                assert loaded.model_count() == compiled.model_count()
                prob = _prob_for(set(map(str, c.variables)))
                assert repr(loaded.probability(prob)) == repr(
                    compiled.probability(prob)
                )

    def test_store_artifact_not_compiled(self, tmp_path):
        compiled = Compiler(backend="apply").compile(parse_formula(FORMULAS[0]))
        frozen = compiled.manager.freeze([compiled.root])
        path = tmp_path / "bare.rpaf"
        frozen.write(path)
        with pytest.raises(ArtifactError):
            Compiler.load(path)


class TestVtreeBytes:
    def test_round_trip(self):
        vt = Vtree.balanced([f"x{i}" for i in range(1, 8)])
        again = Vtree.from_bytes(vt.to_bytes())
        assert again.to_postfix() == vt.to_postfix()

    def test_corrupt_rejected(self):
        data = bytearray(Vtree.balanced(["a", "b", "c"]).to_bytes())
        data[20] ^= 0xFF
        with pytest.raises(ArtifactError):
            Vtree.from_bytes(bytes(data))
