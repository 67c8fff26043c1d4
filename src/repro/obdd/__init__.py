"""Reduced ordered binary decision diagrams.

Public names resolve on first access (see :mod:`repro._lazy`): the
manager loads without the truth-table order search in
:mod:`repro.obdd.ordering`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".obdd": ("ObddManager", "obdd_from_function", "obdd_width_of_function"),
    ".ordering": (
        "best_order_exhaustive", "best_order_hillclimb", "min_obdd_size", "min_obdd_width",
    ),
})
