"""Treewidth/pathwidth substrate: decompositions, exact DPs, heuristics.

Public names resolve on first access (see :mod:`repro._lazy`): the tree
decompositions the compile path builds load without networkx, which only
the path decompositions (:mod:`.pathwidth`) import.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".exact_tw": ("exact_tree_decomposition", "exact_treewidth", "tree_decomposition", "treewidth"),
    ".pathwidth": ("exact_pathwidth", "pathwidth"),
    ".treedecomp": ("NiceTreeDecomposition", "TreeDecomposition"),
})
