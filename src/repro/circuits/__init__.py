"""Circuit substrate: DAG circuits, parser, families, CNF/Tseitin, NNF.

Public names resolve on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".circuit": ("Circuit",),
    ".nnf": ("NNF", "conj", "disj", "false_node", "lit", "true_node"),
    ".parse": ("parse_formula",),
})
