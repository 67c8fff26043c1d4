"""The fourth compilation backend: bag-by-bag d-DNNF (no SddManager).

See ``README.md`` in this directory for the friendly-bag / responsible-bag /
suspicious-gate glossary and the mapping to arXiv 1811.02944 §5.1.

Public names resolve on first access (see :mod:`repro._lazy`): the DAG
and its WMC load without the builder and its tree decompositions.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".builder": ("DdnnfResult", "build_ddnnf", "friendly_from_circuit"),
    ".nodes": (
        "FALSE",
        "TRUE",
        "DnnfDag",
        "DnnfNodeTable",
        "check_ddnnf",
        "check_decomposable",
        "check_deterministic",
        "check_smooth",
    ),
    ".wmc": ("DnnfWmcEvaluator", "model_count", "probability", "weighted_model_count"),
})
