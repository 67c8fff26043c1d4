"""Probabilistic query evaluation — the application the paper's compilation
results serve.

Reference evaluators, cross-checked in tests against the session engine
(:class:`repro.queries.QueryEngine`, the front door for SDD evaluation):

- :func:`probability_brute_force` — sums over possible worlds through the
  exact lineage function (exponential; ground truth for small instances);
- :func:`probability_via_obdd` / :func:`probability_via_ddnnf` — compile
  the lineage as an OBDD or a bag-by-bag d-DNNF and run the linear-time
  weighted model count on it;
- :func:`probability_exact_fraction` — the OBDD count in
  :class:`~fractions.Fraction` arithmetic, so results stay exact even on
  databases far beyond the truth-table regime.

:class:`BatchEvaluation` is the result type of
:meth:`QueryEngine.evaluate <repro.queries.engine.QueryEngine.evaluate>`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .compile import compile_lineage_ddnnf, compile_lineage_obdd
from .database import ProbabilisticDatabase
from .lineage import lineage_function
from .syntax import UCQ
from ..core.vtree import Vtree
from ..sdd.manager import SddManager
from ..sdd.wmc import exact_weights

__all__ = [
    "probability_brute_force",
    "probability_via_obdd",
    "probability_via_ddnnf",
    "probability_exact_fraction",
    "BatchEvaluation",
]


def probability_brute_force(query: UCQ, db: ProbabilisticDatabase) -> float:
    """Ground-truth query probability (exponential in the number of tuples)."""
    f = lineage_function(query, db)
    return f.probability(db.probability_map())


def probability_via_obdd(
    query: UCQ, db: ProbabilisticDatabase, order: Sequence[str] | None = None
) -> float:
    mgr, root = compile_lineage_obdd(query, db, order)
    return mgr.probability(root, db.probability_map())


def probability_via_ddnnf(
    query: UCQ, db: ProbabilisticDatabase, *, exact: bool = False
) -> float | Fraction:
    """Query probability through the bag-by-bag d-DNNF pipeline — the only
    evaluator here that never builds an OBDD or touches an
    :class:`SddManager`: the lineage circuit's tree decomposition drives
    the compilation, then the smooth-d-DNNF WMC sums it up.

    ``exact=True`` keeps the arithmetic in :class:`~fractions.Fraction`
    with the same ``Fraction(str(p))`` conventions as the other exact
    evaluators, so the cross-backend parity tests compare bit-identical
    rationals.
    """
    from ..dnnf.wmc import probability as dnnf_probability

    r = compile_lineage_ddnnf(query, db)
    return dnnf_probability(r.dag, r.root, db.probability_map(), exact=exact)


def probability_exact_fraction(
    query: UCQ, db: ProbabilisticDatabase, order: Sequence[str] | None = None
) -> Fraction:
    """Exact rational probability via the OBDD WMC with Fraction weights
    (tuple probabilities are converted with ``Fraction(str(p))`` fidelity)."""
    mgr, root = compile_lineage_obdd(query, db, order)
    return mgr.weighted_count(root, exact_weights(db.probability_map()))


@dataclass
class BatchEvaluation:
    """Everything one workload evaluation produces.

    ``stats`` holds the public counters of the engine that ran the batch
    (see :meth:`repro.queries.engine.QueryEngine.stats`).  Under a
    ``max_nodes`` budget a query evicted before the batch returned has
    ``None`` in ``roots`` (its probability and size were computed while it
    was live; the root id itself may have been collected and recycled).
    """

    queries: list[UCQ]
    probabilities: list[float | Fraction]
    roots: list[int | None]
    sizes: list[int]
    manager: SddManager
    vtree: Vtree
    stats: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, i: int):
        return self.probabilities[i]
