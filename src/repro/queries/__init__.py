"""Query compilation over tuple-independent probabilistic databases.

Public names resolve on first access (see :mod:`repro._lazy`), so
importing :mod:`repro.queries.engine` loads neither the service tier nor
the truth-table evaluators.  Sharded batches run on
:class:`repro.service.QueryService`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis": ("find_inversion", "is_hierarchical", "is_inversion_free"),
    ".compile": (
        "compile_lineage_ddnnf", "compile_lineage_obdd", "compile_lineage_sdd", "lineage_vtree",
    ),
    ".database": ("Database", "ProbabilisticDatabase", "complete_database"),
    ".engine": ("QueryEngine",),
    ".evaluate": (
        "BatchEvaluation",
        "probability_brute_force",
        "probability_via_ddnnf",
        "probability_via_obdd",
    ),
    ".lineage": ("lineage_circuit", "lineage_function"),
    ".syntax": ("UCQ", "ConjunctiveQuery", "parse_cq", "parse_ucq"),
})
