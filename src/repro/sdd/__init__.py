"""Apply-based SDD manager and weighted model counting.

Public names resolve on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
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
