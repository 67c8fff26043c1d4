"""repro — a reproduction of Bova & Szeider, *Circuit Treewidth, Sentential
Decision, and Query Compilation* (PODS 2017).

Public API highlights
---------------------
- :class:`repro.Compiler` — **the** compilation entry point:
  ``Compiler(backend="apply", strategy="best-of").compile(circuit)`` with
  pluggable backends (``canonical``/``apply``/``obdd``/``ddnnf``) and vtree
  strategies (``lemma1``/``natural``/``balanced``/``best-of``).
- :class:`repro.QueryEngine` — **the** query-evaluation entry point: one
  database, one vtree/manager/WMC-memo, any number of queries.
- :class:`repro.QueryService` — the one front door over the worker pool:
  N warm worker engines over one read-only base vtree, many sessions, and
  sharded batches (``steal=False``), answers bit-identical to serial.
- :class:`repro.BooleanFunction` — exact Boolean functions.
- :class:`repro.Vtree` — variable trees.
- :func:`repro.factors` — the paper's factor decompositions (Definition 1).
- :func:`repro.compile_canonical_nnf` / :func:`repro.compile_canonical_sdd`
  — the Section-3.2 canonical constructions ``C_{F,T}`` and ``S_{F,T}``.
- :func:`repro.vtree_from_circuit` — the Lemma-1 vtree extraction behind
  the facade's ``lemma1`` strategy.
- :class:`repro.ObddManager` / :class:`repro.SddManager` — decision-diagram
  engines with weighted model counting.
- :mod:`repro.queries` — UCQ (+inequality) syntax, lineage, inversion
  analysis, probabilistic evaluation.
- :mod:`repro.comm` — communication matrices, exact ranks, rectangle covers
  (Theorems 1–2, Lemma 8).
- :mod:`repro.isa` — the Appendix-A ``ISA`` construction (Proposition 3).

Every name above resolves on first access: importing :mod:`repro`, or
one of its submodules, loads only what that module itself imports, and
reading ``repro.Compiler`` (or ``from repro import Compiler``) imports
the defining module then.  The subpackages :mod:`repro.core`,
:mod:`repro.circuits`, :mod:`repro.sdd`, :mod:`repro.obdd` and
:mod:`repro.queries` export the same way, so the query, serving and
artifact path never loads numpy or networkx; only the truth-table code
and the analysis modules (path decompositions, Proposition 2's widths,
CNF encodings) do.  The tree decompositions that ``Compiler.compile``
builds run on plain int adjacency lists.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "Compiler",
    "Compiled",
    "compile_with",
    "QueryEngine",
    "QueryService",
    "BooleanFunction",
    "Vtree",
    "FactorDecomposition",
    "factors",
    "factorized_implicants",
    "sentential_decomposition",
    "CompiledNNF",
    "compile_canonical_nnf",
    "CompiledSDD",
    "compile_canonical_sdd",
    "vtree_from_circuit",
    "factor_width",
    "fiw",
    "sdw",
    "min_factor_width",
    "min_fiw",
    "min_sdw",
    "lemma1_bound",
    "Circuit",
    "NNF",
    "conj",
    "disj",
    "lit",
    "true_node",
    "false_node",
    "parse_formula",
    "ObddManager",
    "obdd_from_function",
    "SddManager",
    "sdd_from_circuit",
    "UCQ",
    "ConjunctiveQuery",
    "parse_cq",
    "parse_ucq",
    "Database",
    "ProbabilisticDatabase",
    "complete_database",
]

_, __getattr__, __dir__ = lazy_exports(__name__, {
    ".compiler": ("Compiled", "Compiler", "compile_with"),
    ".core.boolfunc": ("BooleanFunction",),
    ".core.factors": (
        "FactorDecomposition", "factorized_implicants", "factors", "sentential_decomposition",
    ),
    ".core.nnf_compile": ("CompiledNNF", "compile_canonical_nnf"),
    ".core.pipeline": ("vtree_from_circuit",),
    ".core.sdd_compile": ("CompiledSDD", "compile_canonical_sdd"),
    ".core.vtree": ("Vtree",),
    ".core.widths": (
        "factor_width", "fiw", "lemma1_bound", "min_factor_width", "min_fiw", "min_sdw", "sdw",
    ),
    ".circuits.circuit": ("Circuit",),
    ".circuits.nnf": ("NNF", "conj", "disj", "false_node", "lit", "true_node"),
    ".circuits.parse": ("parse_formula",),
    ".obdd.obdd": ("ObddManager", "obdd_from_function"),
    ".sdd.manager": ("SddManager", "sdd_from_circuit"),
    ".queries.engine": ("QueryEngine",),
    ".service.service": ("QueryService",),
    ".queries.syntax": ("UCQ", "ConjunctiveQuery", "parse_cq", "parse_ucq"),
    ".queries.database": ("Database", "ProbabilisticDatabase", "complete_database"),
})
