"""Import hygiene: each module loads only what it runs.

The package inits export their names lazily, so the query, serving and
artifact path imports neither numpy nor networkx.  Every check runs in a
fresh interpreter, because this process has long since imported both.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OFF_PATH = ("numpy", "networkx", "repro.core.boolfunc", "repro.graphs")
LAZY_PACKAGES = ("repro", "repro.core", "repro.circuits", "repro.sdd", "repro.queries",
                 "repro.obdd", "repro.service", "repro.dnnf")
SUBCOMMANDS = ("compile", "ctw", "query", "batch", "engine", "serve", "isa")


def run_python(*args: str) -> str:
    """Stdout of a fresh interpreter run with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["repro.queries.engine", "repro.service",
                                    "repro.artifact", "repro.dnnf.wmc", "repro.cli"])
def test_serving_modules_skip_numpy_and_networkx(module):
    out = run_python("-c", f"import sys, {module}\n"
                           f"print([m for m in {OFF_PATH!r} if m in sys.modules])")
    assert out.strip() == "[]"


def test_serving_path_answers_without_numpy_and_networkx():
    assert "serving path OK" in run_python("tests/serving_path.py")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_bind_and_reject_unknown(package):
    out = run_python("-c", textwrap.dedent(f"""
        import importlib, sys
        pkg = importlib.import_module({package!r})
        listing = dir(pkg)
        for name in pkg.__all__:
            value = getattr(pkg, name)
            # The defining module's own object, not a submodule that
            # shares its name (repro.core.factors).  Plain int constants
            # (repro.dnnf's FALSE/TRUE) name no defining module.
            owner = getattr(value, "__module__", None)
            if owner is not None:
                assert value is getattr(sys.modules[owner], name), name
            assert name in listing, name
        star = {{}}
        exec("from {package} import *", star)
        assert set(pkg.__all__) <= set(star), set(pkg.__all__) - set(star)
        try:
            pkg.no_such_name
        except AttributeError:
            print("ok", len(pkg.__all__))
    """))
    assert out.startswith("ok ")


def test_every_module_imports_on_its_own():
    out = run_python("-c", textwrap.dedent("""
        import importlib, pkgutil, sys
        import repro
        names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
        for name in names:
            for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
                del sys.modules[loaded]
            importlib.import_module(name)
        print(len(names))
    """))
    assert int(out) > 60


def test_compiles_never_load_networkx():
    """Both Result-1 routes decompose the circuit's int adjacency list: a
    d-DNNF, a lemma1 and a best-of compile load no networkx, through the
    heuristics (grid(3,4)) and the exact treewidth DP (three gates)."""
    out = run_python("-c", textwrap.dedent("""
        import sys
        from repro.circuits.build import grid
        from repro.circuits.parse import parse_formula
        from repro.compiler import Compiler
        for backend, strategy in [("ddnnf", "natural"), ("apply", "lemma1"),
                                  ("apply", "best-of")]:
            for circuit in (grid(3, 4), parse_formula("(a & b) | c")):
                compiled = Compiler(backend=backend, strategy=strategy).compile(circuit)
                print(compiled.model_count(), end=" ")
        print("networkx" in sys.modules)
    """))
    assert out.split() == ["3869", "5"] * 3 + ["False"]


def test_cli_help_lists_every_subcommand():
    out = run_python("-m", "repro.cli", "--help")
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out


RETIRED = ("PipelineResult", "compile_circuit", "compile_circuit_apply", "probability_via_sdd",
           "evaluate_many", "nnf_dumps", "nnf_loads", "compile_with_vtree",
           "candidate_compilations", "minimize_vtree_for_circuit", "minimize_vtree_fresh",
           "ParallelQueryEngine", "ParallelBatchEvaluation", "FrozenCompiled", "save_compiled")


def test_retired_front_doors_are_gone():
    """Circuits compile through ``Compiler``, lineages evaluate through
    ``QueryEngine``, and sharded batches run on ``QueryService``'s one
    pool: the old shims, the parallel engine, the per-batch executor
    options and the engine tier's ``backend``/``fallback_backend``
    options are gone, not carried.  A saved result loads as the class
    that saved it, so ``FrozenCompiled`` and ``save_compiled`` are gone
    too."""
    out = run_python("-c", textwrap.dedent(f"""
        import importlib, importlib.util
        for module in ("repro", "repro.core", "repro.core.pipeline", "repro.core.vtree_search",
                       "repro.queries", "repro.queries.evaluate", "repro.circuits.serialize",
                       "repro.sdd", "repro.sdd.manager", "repro.artifact",
                       "repro.artifact.store", "repro.artifact.format"):
            mod = importlib.import_module(module)
            for name in {RETIRED!r}:
                assert not hasattr(mod, name), (module, name)
                try:
                    exec(f"from {{module}} import {{name}}", {{}})
                except ImportError:
                    pass
                else:
                    raise AssertionError((module, name))
        assert importlib.util.find_spec("repro.sdd.compile") is None
        assert importlib.util.find_spec("repro.queries.parallel") is None
        from repro.queries import QueryEngine, complete_database, parse_ucq
        from repro.queries.compile import lineage_vtree
        from repro.service import QueryService, WorkerPool
        db = complete_database({{"R": 1}}, 2)
        q = parse_ucq("R(x)")
        v = lineage_vtree(q, db)
        rejected = 0
        for call in (lambda: QueryEngine(db).evaluate([q], workers=2),
                     lambda: QueryEngine(db).evaluate([q], parallel_mode="threads"),
                     lambda: QueryEngine(db).evaluate([q], shard_seed=1),
                     lambda: QueryEngine(db, backend="sdd"),
                     lambda: WorkerPool(db, workers=1, vtree=v, backend="sdd"),
                     lambda: QueryService(db, backend="sdd"),
                     lambda: QueryService(db, fallback_backend="sdd")):
            try:
                call()
            except TypeError:
                rejected += 1
        print("gone", rejected)
    """))
    assert out.strip() == "gone 7"


def test_frozen_evaluator_copies_are_gone():
    """Frozen stores run the live evaluators over their mapped tables, so
    the array-backed evaluator copies stay deleted."""
    import repro.artifact
    import repro.artifact.store

    for mod in (repro.artifact, repro.artifact.store):
        for name in ("FrozenSddWmc", "FrozenDdnnfWmc"):
            assert not hasattr(mod, name), (mod.__name__, name)
            assert name not in getattr(mod, "__all__", ()), (mod.__name__, name)


def test_session_watermark_knobs_are_gone():
    """The session vtree is fixed before compilation and collection runs
    only when asked, so the auto-minimize, aging-GC, eviction-policy and
    post-compile minimize options stay deleted."""
    from repro.circuits.parse import parse_formula
    from repro.cli import main
    from repro.compiler import Compiler, compile_with
    from repro.core.vtree import Vtree
    from repro.queries import QueryEngine, complete_database
    from repro.sdd.manager import SddManager

    db = complete_database({"R": 1}, 2)
    vtree = Vtree.right_linear(["a", "b"])
    for call in (lambda: SddManager(vtree, auto_minimize_nodes=1),
                 lambda: SddManager(vtree, auto_gc_nodes=1),
                 lambda: SddManager(vtree).gc(full=True),
                 lambda: QueryEngine(db, auto_minimize_nodes=1),
                 lambda: QueryEngine(db, eviction_policy="lru"),
                 lambda: Compiler(minimize=True),
                 lambda: compile_with(parse_formula("a & b"), minimize=True)):
        with pytest.raises(TypeError):
            call()
    assert not hasattr(QueryEngine, "minimize")
    for name in ("maybe_gc", "_compile_safepoint"):
        assert not hasattr(SddManager, name)
    with pytest.raises(SystemExit) as exc:
        main(["engine", "R(x)", "--domain", "2", "--auto-minimize", "5"])
    assert exc.value.code == 2
