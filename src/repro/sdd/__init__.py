"""Apply-based SDD manager and circuit-level compilation helpers.

Public names resolve on first access (see :mod:`repro._lazy`): the
manager and WMC load without the numpy-based vtree search in
:mod:`repro.sdd.compile`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".compile": ("compile_with_vtree", "minimize_vtree_for_circuit", "minimize_vtree_fresh"),
    ".manager": ("SddManager", "sdd_from_circuit"),
    ".wmc": (
        "SddWmcEvaluator",
        "exact_weights",
        "float_weights",
        "model_count",
        "probability",
        "weighted_model_count",
    ),
})
