"""repro.compiler — the unified compilation facade (PR 2).

The Result-1 pipeline (circuit → vtree → tractable form) is one algorithm
with pluggable realizations.  This package is its single front door:

- :class:`Compiler` — ``Compiler(backend=..., strategy=...).compile(circuit)``;
- the **backend registry** (:mod:`~repro.compiler.backends`):
  ``canonical`` / ``apply`` / ``obdd`` / ``ddnnf`` (bag-by-bag d-DNNF,
  PR 6) / ``race`` (compile several backends, keep the best), each
  returning a uniform :class:`~repro.compiler.backends.Compiled`;
- the **vtree-strategy registry** (:mod:`~repro.compiler.strategies`):
  ``lemma1`` (± ``-exact`` / ``-heuristic``), ``natural``, ``balanced``,
  the racing ``best-of``, and ``dynamic`` (seed with ``best-of``, then
  minimize the live SDD in place with vtree rotations/swaps).

The ``lemma1`` strategy calls
:func:`repro.core.pipeline.vtree_from_circuit`, the paper's Lemma-1
extraction; circuit compilation has no other front door.
"""

from .backends import (
    ApplyBackend,
    CanonicalBackend,
    Compiled,
    CompilationBackend,
    DdnnfBackend,
    ObddBackend,
    RaceBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .facade import Compiler, compile_with
from .strategies import (
    BalancedStrategy,
    BestOfStrategy,
    DynamicStrategy,
    Lemma1Strategy,
    NaturalStrategy,
    VtreeChoice,
    VtreeStrategy,
    available_strategies,
    get_strategy,
    natural_variable_order,
    register_strategy,
)

__all__ = [
    "Compiler",
    "compile_with",
    "Compiled",
    "CompilationBackend",
    "CanonicalBackend",
    "ApplyBackend",
    "ObddBackend",
    "DdnnfBackend",
    "RaceBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "VtreeChoice",
    "VtreeStrategy",
    "Lemma1Strategy",
    "NaturalStrategy",
    "BalancedStrategy",
    "BestOfStrategy",
    "DynamicStrategy",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "natural_variable_order",
]
