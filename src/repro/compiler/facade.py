"""The unified compilation front door.

One entry point for every realization of the Result-1 pipeline::

    from repro.compiler import Compiler

    compiled = Compiler(backend="apply", strategy="best-of").compile(circuit)
    compiled.size, compiled.width
    compiled.model_count()
    compiled.probability({"x1": 0.3, ...}, exact=True)
    compiled.evaluate({"x1": 1, ...})
    compiled.stats()

Backends and strategies are looked up in the registries of
:mod:`repro.compiler.backends` and :mod:`repro.compiler.strategies`; both
accept instances as well as registered names, so custom realizations plug in
without touching the facade.
"""

from __future__ import annotations

from typing import Sequence

from ..circuits.circuit import Circuit
from ..core.vtree import Vtree
from .backends import Compiled, CompilationBackend, RaceBackend, get_backend
from .strategies import VtreeChoice, VtreeStrategy, get_strategy

__all__ = ["Compiler", "compile_with"]


class Compiler:
    """A configured (backend, vtree-strategy) pair.

    ``backend`` and ``strategy`` may be registry names (``"canonical"``,
    ``"apply"``, ``"obdd"``, ``"ddnnf"``, ``"race"`` / ``"lemma1"``,
    ``"natural"``, ``"balanced"``, ``"best-of"``, ``"dynamic"``, ...) or
    objects implementing the respective protocols.  A *sequence* of backend
    names is the racing mode: ``Compiler(backend=("apply", "ddnnf"))``
    compiles every named backend on the same vtree choice and keeps the
    best result (see :class:`~repro.compiler.backends.RaceBackend`) —
    ``best-of`` then races vtrees while the backend race races
    representations.

    To minimize the vtree after a compile, use the ``"dynamic"`` strategy
    (:class:`~repro.compiler.strategies.DynamicStrategy`, seeded by any
    other strategy): it sifts the compiled SDD in place with vtree
    rotations and swaps, and the apply backend takes over the minimized
    result.

    Note: the ``best-of`` strategy trial-compiles with the apply backend's
    manager and only ``backend="apply"`` can reuse its winning trial; other
    backends get the winning vtree but pay the race — see
    :class:`~repro.compiler.strategies.BestOfStrategy`.
    """

    def __init__(
        self,
        backend: str | CompilationBackend | Sequence[str] = "apply",
        strategy: str | VtreeStrategy = "lemma1",
    ):
        if isinstance(backend, str):
            self.backend: CompilationBackend = get_backend(backend)
        elif isinstance(backend, (list, tuple)):
            # Racing mode: a sequence of backend names races them all.
            self.backend = RaceBackend(tuple(backend))
        else:
            self.backend = backend
        self.strategy = get_strategy(strategy) if isinstance(strategy, str) else strategy

    def compile(self, circuit: Circuit, *, vtree: Vtree | None = None) -> Compiled:
        """Compile ``circuit``; an explicit ``vtree`` bypasses the strategy.

        The vtree must cover the circuit's variables (it may cover more —
        extra variables are marginalized out of counts and probabilities).
        """
        if vtree is not None:
            if not set(map(str, circuit.variables)) <= vtree.variables:
                raise ValueError("vtree does not cover the circuit's variables")
            choice = VtreeChoice(vtree, strategy="")
        else:
            choice = self.strategy(circuit)
        return self.backend.compile(
            circuit,
            choice.vtree,
            decomposition_width=choice.decomposition_width,
            strategy=choice.strategy,
            trial=choice.trial,
        )

    @staticmethod
    def load(path, *, use_mmap: bool = True) -> Compiled:
        """Load a ``compiled.save(path)`` artifact without recompiling.

        Returns the class the saved result had
        (:class:`~repro.compiler.backends.ApplyCompiled`,
        :class:`~repro.compiler.backends.ObddCompiled`, ...; a race
        result saves, and so loads as, its winner's), answering over the
        mmap-ed node tables with the same code: float probabilities
        bit-identical to the result that was saved.  ``close()`` unmaps
        it.  Raises :class:`~repro.artifact.encoding.ArtifactError` on
        corrupt, truncated, or version-mismatched files.
        """
        from ..artifact.format import load_compiled

        return load_compiled(path, use_mmap=use_mmap)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sname = getattr(self.strategy, "name", type(self.strategy).__name__)
        return f"Compiler(backend={self.backend.name!r}, strategy={sname!r})"


def compile_with(
    circuit: Circuit,
    *,
    backend: str | CompilationBackend | Sequence[str] = "apply",
    strategy: str | VtreeStrategy = "lemma1",
    vtree: Vtree | None = None,
) -> Compiled:
    """One-shot convenience: ``Compiler(backend, strategy).compile(circuit)``."""
    return Compiler(backend, strategy).compile(circuit, vtree=vtree)
