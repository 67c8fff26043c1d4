"""The paper's primary contribution: factors, vtrees, canonical compilers,
width theory, the Lemma-1 pipeline, and Result-2 computability.

Public names resolve on first access (see :mod:`repro._lazy`), so
:mod:`repro.core.vtree` imports without the numpy truth-table code.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".boolfunc": ("BooleanFunction",),
    ".factors": (
        "FactorDecomposition", "factorized_implicants", "factors", "sentential_decomposition",
    ),
    ".nnf_compile": ("CompiledNNF", "compile_canonical_nnf"),
    ".pipeline": ("vtree_from_circuit",),
    ".sdd_compile": ("CompiledSDD", "compile_canonical_sdd"),
    ".vtree": ("Vtree",),
})
