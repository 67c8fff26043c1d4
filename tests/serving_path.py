"""Answer a UCQ along the serving path and check that numpy and networkx
never load.

Six checks over one complete domain-2 database:

- a :class:`~repro.queries.engine.QueryEngine` answers the query exactly,
  and the answer matches its closed form;
- a thread-mode :class:`~repro.service.QueryService` gives the same answer,
  and again from its answer cache when the query is awaited a second time;
- the engine's artifact, saved and reloaded, gives it again without
  compiling, and still matches the engine exactly after one weight update
  (the same evaluator point-updates over the frozen tables);
- a thread-mode service warm-started from that artifact's directory gives
  it again;
- after one insert and one delete through ``apply_update``, the engine's,
  the reloaded engine's and the warm service's answers equal a fresh
  engine's on the service's vtree, exactly, as they do after the weight
  update;
- the warm service, through those updates and its close, leaves no
  artifact open (no ``ResourceWarning`` is recorded).

Exits non-zero if an answer differs, if a resource is left open, or if
numpy, networkx or the truth-table and decomposition modules were
imported.  It runs in an
interpreter with neither numpy nor networkx installed::

    PYTHONPATH=src python tests/serving_path.py
"""

from __future__ import annotations

import asyncio
import gc
import sys
import tempfile
import warnings
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

    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        # Named as QueryService(artifact_dir=) looks it up.
        path = Path(tmp) / f"{db.fingerprint()}.rpaf"
        engine.save_artifact(path)
        # Loaded by path, so the engine closes it when the insert drops it.
        warm = QueryEngine(db, frozen=path)
        answers["artifact"] = warm.probability(query, exact=True)
        frozen_hits = warm.stats()["frozen_hits"]
        # Every artifact the warm service loads must be closed by the time
        # it is: an unclosed one only warns (from __del__, so it could not
        # fail the process even under -W error), hence the recording.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            warm_service = QueryService(db, workers=1, mode="threads", artifact_dir=tmp)
            try:
                answers["warm service"] = warm_service.probability(query, exact=True)
                service_warm = warm_service.stats()["pool_artifact_warm"]
                for update in (lambda: db.set_probability("S", 1, 2, p=0.3),
                               lambda: db.insert("S", 2, 3, p=0.25),
                               lambda: db.delete("R", 1)):
                    delta = update()
                    got = {}
                    for name, layer in (("engine", engine), ("artifact", warm),
                                        ("warm service", warm_service)):
                        layer.apply_update(delta)
                        got[name] = layer.probability(query, exact=True)
                    want = QueryEngine(db, vtree=warm_service.vtree).probability(
                        query, exact=True)
                    mismatches += [f"after {delta.kind} {delta.var} the {name} answered "
                                   f"{value}, a fresh engine {want}"
                                   for name, value in got.items() if value != want]
            finally:
                warm_service.close()
            gc.collect()
        leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]

    failures = [f"{k} answered {v}, expected {EXPECTED}" for k, v in answers.items()
                if v != EXPECTED]
    failures += mismatches
    failures += [f"the warm service left a resource open: {msg}" for msg in leaks]
    if not repeat.cached:
        failures.append("the service recomputed a repeated query instead of "
                        "answering from its cache")
    if frozen_hits != 1:
        failures.append(f"reloaded artifact served {frozen_hits} queries, expected 1")
    if service_warm != 1:
        failures.append("the service did not warm-start from the artifact directory")
    loaded = [m for m in OFF_PATH if m in sys.modules]
    if loaded:
        failures.append(f"serving path imported {loaded}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if not failures:
        print(f"serving path OK: P = {EXPECTED} from engine, service, service "
              f"cache, artifact and warm service; "
              f"after a weight update, an insert and a delete all three match "
              f"a fresh engine; no artifact left open; none of {list(OFF_PATH)} "
              f"imported")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
