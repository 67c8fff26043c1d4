"""Answer a UCQ along the serving path and check that numpy and networkx
never load.

Four checks over one complete domain-2 database:

- a :class:`~repro.queries.engine.QueryEngine` answers the query exactly,
  and the answer matches its closed form;
- a thread-mode :class:`~repro.service.QueryService` gives the same answer,
  and again from its answer cache when the query is awaited a second time;
- the engine's artifact, saved and reloaded, gives it again without
  compiling, and still matches the engine exactly after one weight update
  (the same evaluator point-updates over the frozen tables);
- after one insert and one delete through ``apply_update``, the engine's
  patched answers equal a fresh engine's on the same vtree, exactly.

Exits non-zero if an answer differs or if numpy, networkx or the
truth-table and decomposition modules were imported.  It runs in an
interpreter with neither numpy nor networkx installed::

    PYTHONPATH=src python tests/serving_path.py
"""

from __future__ import annotations

import asyncio
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from repro.queries.database import complete_database
from repro.queries.engine import QueryEngine
from repro.queries.syntax import parse_ucq
from repro.service import QueryService

OFF_PATH = ("numpy", "networkx", "repro.core.boolfunc", "repro.graphs")

# P(R(x),S(x,y)) over the complete domain-2 instance at p = 1/2: each x
# independently has R(x) and some S(x, y) with probability 1/2 * 3/4.
EXPECTED = 1 - (1 - Fraction(1, 2) * Fraction(3, 4)) ** 2


def main() -> int:
    query = parse_ucq("R(x),S(x,y)")
    db = complete_database({"R": 1, "S": 2}, 2)
    engine = QueryEngine(db)
    answers = {"engine": engine.probability(query, exact=True)}

    service = QueryService(db, workers=1, mode="threads")
    try:
        answers["service"] = service.probability(query, exact=True)
        (repeat,) = asyncio.run(service.submit([query], exact=True))
        answers["service cache"] = repeat.probability
    finally:
        service.close()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.rpaf"
        engine.save_artifact(path)
        warm = QueryEngine(db, frozen=path)
        try:
            answers["artifact"] = warm.probability(query, exact=True)
            frozen_hits = warm.stats()["frozen_hits"]
            delta = db.set_probability("S", 1, 2, p=0.3)
            engine.apply_update(delta)
            warm.apply_update(delta)
            reweighted = (warm.probability(query, exact=True),
                          engine.probability(query, exact=True))
        finally:
            warm.frozen.close()

    failures = [f"{k} answered {v}, expected {EXPECTED}" for k, v in answers.items()
                if v != EXPECTED]
    if reweighted[0] != reweighted[1]:
        failures.append(f"after a weight update the artifact answered {reweighted[0]}, "
                        f"the engine {reweighted[1]}")
    for update in (lambda: db.insert("S", 2, 3, p=0.25), lambda: db.delete("R", 1)):
        delta = update()
        engine.apply_update(delta)
        got = engine.probability(query, exact=True)
        want = QueryEngine(db, vtree=engine.vtree).probability(query, exact=True)
        if got != want:
            failures.append(f"after {delta.kind} {delta.var} the engine answered {got}, "
                            f"a fresh engine {want}")
    if not repeat.cached:
        failures.append("the service recomputed a repeated query instead of "
                        "answering from its cache")
    if frozen_hits != 1:
        failures.append(f"reloaded artifact served {frozen_hits} queries, expected 1")
    loaded = [m for m in OFF_PATH if m in sys.modules]
    if loaded:
        failures.append(f"serving path imported {loaded}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if not failures:
        print(f"serving path OK: P = {EXPECTED} from engine, service, service "
              f"cache and artifact, "
              f"the artifact matches the engine after a weight update, "
              f"updates match a fresh engine; none of {list(OFF_PATH)} imported")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
