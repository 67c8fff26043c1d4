"""Treewidth/pathwidth substrate: decompositions, exact DPs, heuristics."""

from .exact_tw import exact_tree_decomposition, exact_treewidth, tree_decomposition, treewidth
from .pathwidth import exact_pathwidth, pathwidth
from .treedecomp import NiceTreeDecomposition, TreeDecomposition
