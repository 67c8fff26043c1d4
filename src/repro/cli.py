"""Command-line interface.

Usage::

    python -m repro.cli compile "(a & b) | c" [--backend canonical|apply|obdd|ddnnf|race]
                                              [--strategy lemma1|natural|balanced|best-of|dynamic|...]
                                              [--minimize]
                                              [--vtree balanced|right|left|search]
    python -m repro.cli ctw "x & ~y" [--max-gates 4]
    python -m repro.cli query "R(x),S(x,y)" --domain 3 [--prob 0.5] [--backend obdd|sdd|ddnnf]
    python -m repro.cli batch "R(x),S(x,y); S(x,y)" --domain 3 [--prob 0.5] [--exact]
    python -m repro.cli engine "R(x),S(x,y); S(x,y)" --domain 3 [--prob 0.5] [--exact]
                                                    [--max-nodes 50000]
                                                    [--workers 4] [--parallel-mode threads]
    python -m repro.cli isa 2 4

Each subcommand prints a small report; exit code 0 on success, 2 (with a
one-line ``error:`` message) when a formula or query does not parse.

``compile --strategy ...`` routes through the unified
:class:`repro.compiler.Compiler` facade (any registered backend × any
registered vtree strategy).  Without a strategy, ``--vtree`` picks the
vtree: ``--backend apply`` compiles over it through the same facade
(``search`` is the Lemma-1 strategy), and the canonical backend prints its
truth-table report.  ``compile --minimize`` runs the ``dynamic``
strategy seeded by ``--strategy`` (``best-of`` by default): it compiles,
then sifts the vtree in place; an explicit ``--vtree`` is rejected with
it (exit 2).  A malformed or refused ``engine --update`` spec also exits
2.  ``batch`` evaluates a workload through one
:class:`repro.queries.QueryEngine`.  ``engine`` evaluates a workload
through one :class:`repro.queries.QueryEngine` session and prints its
public ``stats()``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from typing import Sequence

from .circuits.parse import parse_formula
from .compiler import Compiler, DynamicStrategy, available_backends, available_strategies
from .core.vtree import Vtree
from .queries.analysis import find_inversion
from .queries.compile import compile_lineage_obdd, compile_lineage_sdd
from .queries.engine import QueryEngine
from .queries.evaluate import probability_via_obdd
from .queries.database import complete_database
from .queries.syntax import parse_ucq
from .util.report import report

__all__ = ["main"]


def _named_vtree(shape: str, variables: list[str]) -> Vtree | None:
    """The ``--vtree`` shape over ``variables``; ``None`` for ``search``."""
    builders = {
        "balanced": Vtree.balanced,
        "right": Vtree.right_linear,
        "left": Vtree.left_linear,
    }
    return builders[shape](variables) if shape in builders else None


def _parse(parse, text: str):
    """``parse(text)`` for a command's formula or query; malformed input
    prints a one-line ``error:`` and exits with status 2, as a bad
    option does."""
    try:
        return parse(text)
    except SyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_compile(args: argparse.Namespace) -> int:
    if args.minimize and args.vtree is not None:
        # --minimize picks its seed vtree through --strategy.
        print("error: --vtree cannot be combined with --minimize; "
              "seed the search with --strategy", file=sys.stderr)
        raise SystemExit(2)
    circuit = _parse(parse_formula, args.formula)
    vs = sorted(map(str, circuit.variables))
    if not vs:
        f = circuit.function()
        print(f"constant formula: {'true' if f.is_tautology() else 'false'}")
        return 0
    if args.minimize and args.backend != "apply":
        print("--minimize requires --backend apply (in-place vtree "
              "minimization is manager-backed)", file=sys.stderr)
        return 1
    shape = args.vtree or "balanced"
    if args.strategy is None and args.backend in ("ddnnf", "race"):
        # The d-DNNF build is decomposition-driven (the vtree is recorded
        # but unused) and the race only needs one cheap vtree choice, so
        # default these backends onto the facade path.
        args.strategy = "natural"
    if args.save is not None and args.strategy is None:
        # Saving needs a Compiled handle, which only the facade path
        # returns; default it onto the facade's default strategy.
        args.strategy = "lemma1"
    vtree = None
    if args.backend == "apply" and args.strategy is None and not args.minimize:
        # --vtree names the vtree; "search" is the Lemma-1 extraction.
        vtree = _named_vtree(shape, vs)
        if vtree is None:
            args.strategy = "lemma1"
    if args.strategy is not None or args.minimize or vtree is not None:
        strategy = args.strategy if args.strategy is not None else "best-of"
        compiled = Compiler(
            backend=args.backend,
            strategy=DynamicStrategy(seed=strategy) if args.minimize else strategy,
        ).compile(circuit, vtree=vtree)
        chosen = f"{shape} vtree" if vtree is not None else f"{strategy} strategy"
        via = compiled.strategy or (chosen if vtree is not None else strategy)
        report(
            f"compile ({args.backend} backend, {chosen}"
            f"{', minimized' if args.minimize else ''}): {args.formula}",
            ["form", "size", "width"],
            [[f"{args.backend} (via {via})", compiled.size, compiled.width]],
        )
        if compiled.decomposition_width is not None:
            print(f"decomposition width: {compiled.decomposition_width}")
        stats = compiled.stats()
        if "friendly_width" in stats:
            print(f"friendly decomposition: width {stats['friendly_width']}, "
                  f"{stats.get('bags_forget', 0)} responsible bags, "
                  f"peak {stats.get('states_peak', 0)} states/bag")
        print(f"models: {compiled.model_count()} / 2^{len(vs)}")
        if args.save is not None:
            compiled.save(args.save)
            with closing(Compiler.load(args.save)) as reloaded:
                print(f"saved artifact: {args.save} "
                      f"({reloaded.backend} backend, size {reloaded.size})")
        return 0
    if args.backend == "obdd":
        print("--backend obdd requires --strategy (facade path)", file=sys.stderr)
        return 1
    from .core.nnf_compile import compile_canonical_nnf
    from .core.sdd_compile import compile_canonical_sdd
    from .core.vtree_search import minimize_vtree, sdd_size_objective
    from .obdd.obdd import obdd_from_function

    f = circuit.function()
    t = _named_vtree(shape, vs)
    if t is None:
        _, t = minimize_vtree(Vtree.balanced(vs), sdd_size_objective(f), max_rounds=6)
    sdd = compile_canonical_sdd(f, t)
    nnf = compile_canonical_nnf(f, t)
    mgr, root = obdd_from_function(f)
    report(
        f"compile: {args.formula}",
        ["form", "size", "width"],
        [
            ["canonical SDD", sdd.size, sdd.sdw],
            ["canonical det. structured NNF", nnf.size, nnf.fiw],
            ["OBDD (sorted order)", mgr.size(root), mgr.width(root)],
        ],
    )
    print(f"models: {f.count_models()} / {1 << len(vs)}")
    return 0


def _cmd_ctw(args: argparse.Namespace) -> int:
    from .core.computability import ctw_upper_bound, exact_circuit_treewidth

    f = _parse(parse_formula, args.formula).function()
    res = exact_circuit_treewidth(f, max_gates=args.max_gates)
    upper = ctw_upper_bound(f)
    if res.exhausted:
        print(f"ctw = {res.value} (witness with {res.witness.size} gates; "
              f"DNF upper bound {upper})")
        return 0
    print(f"ctw not determined within {args.max_gates} gates "
          f"(DNF upper bound {upper})")
    return 1


def _schema_of(q) -> dict[str, int]:
    schema: dict[str, int] = {}
    for cq in q.disjuncts:
        for atom in cq.atoms:
            schema[atom.relation] = atom.arity
    return schema


def _parse_workload(args: argparse.Namespace):
    """Parse a ';'-separated UCQ workload and build the complete database
    for its union schema.  Returns ``(queries, db)``; ``queries`` is empty
    when nothing parses (callers report and bail)."""
    queries = [
        _parse(parse_ucq, part.strip()) for part in args.queries.split(";") if part.strip()
    ]
    if not queries:
        return [], None
    schema: dict[str, int] = {}
    for q in queries:
        schema.update(_schema_of(q))
    return queries, complete_database(schema, args.domain, p=args.prob)


def _cmd_query(args: argparse.Namespace) -> int:
    q = _parse(parse_ucq, args.query)
    inv = find_inversion(q)
    db = complete_database(_schema_of(q), args.domain, p=args.prob)
    if (args.load is not None or args.save is not None) and args.backend != "sdd":
        print("--load/--save require --backend sdd (artifacts are frozen "
              "SDD bases)", file=sys.stderr)
        return 1
    if args.load is not None or args.save is not None:
        with closing(QueryEngine(db, frozen=args.load)) as engine:
            p = engine.probability(q, exact=args.exact)
            size = engine.compiled_size(q)
            frozen_hit = engine.stats()["frozen_hits"] > 0
            form, width = "SDD", "-"
            if args.save is not None:
                if frozen_hit:
                    engine.compile(q)  # freeze sets come from live roots
                engine.save_artifact(args.save)
                print(f"saved artifact: {args.save}")
        if frozen_hit:
            print(f"answered from artifact {args.load} (no compilation)")
    elif args.backend == "sdd":
        from .sdd.wmc import probability as sdd_probability

        mgr, root = compile_lineage_sdd(q, db)
        p = sdd_probability(mgr, root, db.probability_map(), exact=args.exact)
        form, width, size = "SDD", mgr.width(root), mgr.size(root)
    elif args.backend == "ddnnf":
        from .dnnf.wmc import probability as dnnf_probability
        from .queries.compile import compile_lineage_ddnnf

        r = compile_lineage_ddnnf(q, db)
        p = dnnf_probability(r.dag, r.root, db.probability_map(), exact=args.exact)
        form, width, size = "d-DNNF", r.width, r.size
    else:
        mgr, root = compile_lineage_obdd(q, db)
        p = probability_via_obdd(q, db)
        form, width, size = "OBDD", mgr.width(root), mgr.size(root)
    report(
        f"query: {q}",
        ["property", "value"],
        [
            ["inversion", "none" if inv is None else f"length {inv.length}"],
            ["tuples", db.size],
            [f"lineage {form} width", width],
            [f"lineage {form} size", size],
            ["P(q)", str(p) if args.exact else f"{p:.6f}"],
        ],
    )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Evaluate a ';'-separated workload of UCQs against one complete
    database through one :class:`~repro.queries.engine.QueryEngine`
    (one vtree, one shared manager)."""
    queries, db = _parse_workload(args)
    if not queries:
        print("no queries given", file=sys.stderr)
        return 1
    batch = QueryEngine(db).evaluate(queries, exact=args.exact)
    rows = [
        [str(q), batch.sizes[i],
         str(batch.probabilities[i]) if args.exact else f"{batch.probabilities[i]:.6f}"]
        for i, q in enumerate(queries)
    ]
    report(
        f"batch: {len(queries)} queries, {db.size} tuples, one shared manager",
        ["query", "SDD size", "P(q)"],
        rows,
    )
    s = batch.stats
    print(
        f"shared manager: {s['manager_nodes']} nodes, "
        f"{s['apply_cache_entries']} apply-cache entries, "
        f"{s['wmc_memo_entries']} WMC memo entries"
    )
    return 0


def _apply_update_spec(db, spec: str):
    """Parse one ``--update`` spec and apply it to ``db``, returning the
    :class:`~repro.queries.database.UpdateDelta`.

    Formats: ``weight:R:1,2:0.7`` (reweight an existing tuple),
    ``insert:R:1,2:0.5`` (add a tuple), ``delete:R:1,2`` (remove one).
    Values are comma-separated; integer-looking tokens are coerced, as in
    query constants."""
    parts = spec.split(":")
    kind = parts[0]
    if kind in ("weight", "insert") and len(parts) != 4:
        raise ValueError(f"expected {kind}:REL:VALUES:P")
    if kind == "delete" and len(parts) != 3:
        raise ValueError("expected delete:REL:VALUES")
    if kind not in ("weight", "insert", "delete"):
        raise ValueError(f"unknown kind {kind!r}")
    relation = parts[1]

    def coerce(token: str):
        try:
            return int(token)
        except ValueError:
            return token

    values = [coerce(t) for t in parts[2].split(",") if t != ""]
    if kind == "weight":
        return db.set_probability(relation, *values, p=float(parts[3]))
    if kind == "insert":
        return db.insert(relation, *values, p=float(parts[3]))
    return db.delete(relation, *values)


def _check_update_specs(db, specs: Sequence[str]) -> None:
    """Replay ``specs`` in order on a copy of ``db``.  A malformed spec,
    or one the database refuses (an absent or duplicate tuple, a
    probability outside [0, 1]), prints a one-line ``error:`` and exits
    with status 2 before anything is evaluated."""
    import copy

    scratch = copy.deepcopy(db)
    for spec in specs:
        try:
            _apply_update_spec(scratch, spec)
        except (ValueError, KeyError) as exc:
            print(f"error: --update {spec!r}: {exc.args[0]}", file=sys.stderr)
            raise SystemExit(2) from None


def _cmd_engine(args: argparse.Namespace) -> int:
    """Evaluate a ';'-separated workload through one
    :class:`~repro.queries.engine.QueryEngine` session (or, with
    ``--workers N``, one sharded :class:`~repro.service.QueryService`
    submission with stealing off) and print its stats.  ``--update``
    specs are applied *after* the first evaluation — cached lineages are
    delta-patched, the workload re-evaluated, and the update counters
    printed."""
    queries, db = _parse_workload(args)
    if not queries:
        print("no queries given", file=sys.stderr)
        return 1
    if args.workers < 1:
        print("--workers must be positive", file=sys.stderr)
        return 1
    _check_update_specs(db, args.update)

    def run_updates(target, evaluate) -> int:
        merged: dict[str, int] = {}
        for spec in args.update:
            delta = _apply_update_spec(db, spec)
            inc = target.apply_update(delta)
            for k, v in inc.items():
                merged[k] = merged.get(k, 0) + v
        rows = evaluate()
        report(
            f"after {len(args.update)} update(s): {len(queries)} queries, "
            f"{db.size} tuples",
            ["query", "SDD size", "P(q)"],
            rows,
        )
        print("update counters: "
              + ", ".join(f"{k}={v}" for k, v in sorted(merged.items())))
        return 0

    if args.workers > 1:
        from .service import QueryService

        with QueryService(
            db, workers=args.workers, max_nodes=args.max_nodes,
            mode=args.parallel_mode, steal=False,
            # Admission is all-or-nothing per batch: let the whole
            # workload in, however long it is.
            max_in_flight=max(1024, len(queries)),
        ) as svc:

            def evaluate_sharded():
                answers = svc.submit_sync(queries, exact=args.exact)
                return [
                    [str(q), a.size,
                     str(a.probability) if args.exact else f"{a.probability:.6f}",
                     a.worker]
                    for q, a in zip(queries, answers)
                ]

            report(
                f"engine: {len(queries)} queries, {db.size} tuples, "
                f"{args.workers} workers ({args.parallel_mode})",
                ["query", "SDD size", "P(q)", "shard"],
                evaluate_sharded(),
            )
            stats = svc.stats()
            print("merged stats: " + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())))
            if args.update:
                return run_updates(svc, lambda: [row[:3] for row in evaluate_sharded()])
            return 0
    engine = QueryEngine(db, max_nodes=args.max_nodes)

    def evaluate():
        rows = []
        for q in queries:
            p = engine.probability(q, exact=args.exact)
            rows.append([str(q), engine.lineage_size(q),
                         str(p) if args.exact else f"{p:.6f}"])
        return rows

    rows = evaluate()
    report(
        f"engine: {len(queries)} queries, {db.size} tuples, one session",
        ["query", "SDD size", "P(q)"],
        rows,
    )
    stats = engine.stats()
    print("engine stats: " + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())))
    if args.update:
        return run_updates(engine, evaluate)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a ';'-separated workload through the always-on service tier:
    one warm :class:`~repro.service.QueryService` pool serving
    ``--sessions`` concurrent asyncio sessions × ``--repeats`` rounds,
    then print per-query answers and the merged service stats.

    With ``--forever`` the workload loops until SIGTERM/SIGINT; either
    signal (in any mode) triggers a graceful shutdown — new submissions
    are refused with the retry-after backpressure signal while the
    admitted in-flight queries drain, then the pool closes."""
    import asyncio
    import signal
    import threading

    from .service import QueryService
    from .service.supervisor import RestartPolicy

    queries, db = _parse_workload(args)
    if not queries:
        print("no queries given", file=sys.stderr)
        return 1
    service = QueryService(
        db,
        workers=args.workers,
        mode=args.mode,
        max_nodes=args.max_nodes,
        cache_capacity=args.cache_capacity,
        max_in_flight=args.max_in_flight,
        session_quota=args.session_quota,
        artifact_dir=args.artifacts,
        default_timeout=(
            None if args.deadline_ms is None else args.deadline_ms / 1000.0
        ),
        restart=(
            None
            if args.max_restarts is None
            else RestartPolicy(max_restarts=args.max_restarts)
        ),
    )

    stop = threading.Event()

    def _on_signal(signum, frame) -> None:
        stop.set()

    # Graceful shutdown on both the orchestrator signal (SIGTERM) and the
    # operator's ^C; restored afterwards so embedders (tests call main()
    # in-process) keep their handlers.
    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }

    async def one_session(name: str) -> list:
        answers = None
        for _ in range(args.repeats):
            answers = await service.submit(queries, session=name, exact=args.exact)
        return answers

    async def drive() -> list:
        return await asyncio.gather(
            *(one_session(f"session-{s}") for s in range(args.sessions))
        )

    try:
        all_answers = asyncio.run(drive())
        rounds = 1
        if args.forever:
            print(f"serving forever ({len(queries)} queries/round); "
                  "SIGTERM or ^C drains and exits", flush=True)
            while not stop.is_set():
                asyncio.run(drive())
                rounds += 1
                stop.wait(0.01)
            print(f"served {rounds} rounds", flush=True)
        if args.artifacts is not None:
            import os

            os.makedirs(args.artifacts, exist_ok=True)
            saved = service.save_artifact()
            print(f"artifact saved: {saved} "
                  f"(warm start was {'on' if service.stats().get('pool_artifact_warm') else 'off'})")
    finally:
        stats = service.stats()
        if stop.is_set():
            print("signal received: draining in-flight queries...", flush=True)
            drained = service.shutdown(drain_timeout=30.0)
            print(f"graceful shutdown complete (drained={drained})", flush=True)
        else:
            service.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    answers = all_answers[0]
    rows = [
        [str(q), answers[i].size,
         str(answers[i].probability) if args.exact else f"{answers[i].probability:.6f}"]
        for i, q in enumerate(queries)
    ]
    report(
        f"serve: {len(queries)} queries x {args.sessions} sessions x "
        f"{args.repeats} repeats, {db.size} tuples, "
        f"{args.workers} warm workers ({args.mode})",
        ["query", "size", "P(q)"],
        rows,
    )
    for session_answers in all_answers:
        assert [a.probability for a in session_answers] == [
            a.probability for a in answers
        ], "sessions disagree — determinism violated"
    print("service stats: " + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())))
    return 0


def _cmd_isa(args: argparse.Namespace) -> int:
    from .isa.isa import isa_n, isa_vtree
    from .isa.sdd_construction import build_isa_sdd

    n = isa_n(args.k, args.m)
    s = build_isa_sdd(args.k, args.m)
    print(f"ISA_{n}: SDD size {s.size}, AND gates {s.and_gate_count}, "
          f"n^13/5 = {n ** 2.6:.0f}")
    if args.show_vtree:
        print(isa_vtree(args.k, args.m).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a formula into SDD/NNF/OBDD")
    c.add_argument("formula")
    c.add_argument("--vtree", choices=["balanced", "right", "left", "search"],
                   default=None,
                   help="vtree shape when no --strategy is given (default "
                        "balanced; 'search': local search for canonical, "
                        "Lemma-1 for apply); not with --minimize")
    c.add_argument("--backend", choices=available_backends(), default="canonical",
                   help="'apply' compiles bottom-up without a truth table "
                        "(scales past 20 variables); 'obdd' needs --strategy")
    c.add_argument("--strategy", choices=available_strategies(), default=None,
                   help="vtree strategy; routes through the Compiler facade "
                        "(any backend x any strategy)")
    c.add_argument("--minimize", action="store_true",
                   help="after compiling, minimize the vtree in place with "
                        "live SDD rotations/swaps: the dynamic strategy "
                        "seeded by --strategy (default best-of; apply "
                        "backend)")
    c.add_argument("--save", metavar="PATH", default=None,
                   help="write the compiled result as a flat binary artifact "
                        "(reload with Compiler.load / 'query --load'; routes "
                        "through the facade, defaulting --strategy lemma1)")
    c.set_defaults(fn=_cmd_compile)

    t = sub.add_parser("ctw", help="exhaustive circuit treewidth (Result 2)")
    t.add_argument("formula")
    t.add_argument("--max-gates", type=int, default=4)
    t.set_defaults(fn=_cmd_ctw)

    q = sub.add_parser("query", help="compile and evaluate a UCQ")
    q.add_argument("query")
    q.add_argument("--domain", type=int, default=2)
    q.add_argument("--prob", type=float, default=0.5)
    q.add_argument("--backend", choices=["obdd", "sdd", "ddnnf"], default="obdd")
    q.add_argument("--exact", action="store_true",
                   help="exact Fraction probability (sdd/ddnnf backends)")
    q.add_argument("--load", metavar="PATH", default=None,
                   help="answer from a saved artifact base (sdd backend): a "
                        "stored query is served off the mmap-ed file with no "
                        "compilation, bit-identical to a live compile")
    q.add_argument("--save", metavar="PATH", default=None,
                   help="after answering, freeze the compiled query into an "
                        "artifact file for later --load (sdd backend)")
    q.set_defaults(fn=_cmd_query)

    b = sub.add_parser("batch", help="evaluate a ';'-separated UCQ workload "
                                     "through one shared SDD manager")
    b.add_argument("queries")
    b.add_argument("--domain", type=int, default=2)
    b.add_argument("--prob", type=float, default=0.5)
    b.add_argument("--exact", action="store_true",
                   help="exact Fraction probabilities")
    b.set_defaults(fn=_cmd_batch)

    e = sub.add_parser("engine", help="evaluate a ';'-separated UCQ workload "
                                      "through one QueryEngine session")
    e.add_argument("queries")
    e.add_argument("--domain", type=int, default=2)
    e.add_argument("--prob", type=float, default=0.5)
    e.add_argument("--exact", action="store_true",
                   help="exact Fraction probabilities")
    e.add_argument("--max-nodes", type=int, default=None,
                   help="session node budget: evict compiled queries (largest "
                        "footprint x staleness first) and "
                        "garbage-collect the manager past this many live nodes "
                        "(per worker when --workers > 1)")
    e.add_argument("--workers", type=int, default=1,
                   help="shard the workload across N worker engines sharing "
                        "one base vtree (deterministic: results bit-identical "
                        "to --workers 1)")
    e.add_argument("--parallel-mode", choices=["threads", "spawn"],
                   default="threads",
                   help="worker execution mode when --workers > 1")
    e.add_argument("--update", action="append", default=[], metavar="SPEC",
                   help="after the first evaluation, apply a live database "
                        "update and re-evaluate: weight:REL:V1,V2:P "
                        "(reweight), insert:REL:V1,V2:P, delete:REL:V1,V2; "
                        "repeatable, applied in order (cached lineages are "
                        "delta-patched, not recompiled)")
    e.set_defaults(fn=_cmd_engine)

    s = sub.add_parser("serve", help="serve a ';'-separated UCQ workload to "
                                     "concurrent sessions over one warm "
                                     "worker pool (the service tier)")
    s.add_argument("queries")
    s.add_argument("--domain", type=int, default=2)
    s.add_argument("--prob", type=float, default=0.5)
    s.add_argument("--exact", action="store_true",
                   help="exact Fraction probabilities")
    s.add_argument("--workers", type=int, default=2,
                   help="persistent warm worker engines in the pool")
    s.add_argument("--mode", choices=["threads", "spawn"], default="threads",
                   help="worker execution mode (spawn keeps child processes "
                        "alive across batches)")
    s.add_argument("--sessions", type=int, default=4,
                   help="concurrent client sessions to simulate")
    s.add_argument("--repeats", type=int, default=2,
                   help="times each session re-submits the workload "
                        "(repeats exercise the shared answer cache)")
    s.add_argument("--max-nodes", type=int, default=None,
                   help="per-worker engine node budget")
    s.add_argument("--cache-capacity", type=int, default=None,
                   help="shared answer-cache capacity (default unbounded)")
    s.add_argument("--max-in-flight", type=int, default=1024,
                   help="admission control: maximum admitted-but-unanswered "
                        "queries across all sessions")
    s.add_argument("--session-quota", type=int, default=None,
                   help="default per-session compiled-node quota")
    s.add_argument("--artifacts", metavar="DIR", default=None,
                   help="artifact directory: warm-start the pool from "
                        "<db_fingerprint>.rpaf when present, and save the "
                        "served workload back to it after the run")
    s.add_argument("--deadline-ms", type=float, default=None,
                   help="per-query wall-clock budget in milliseconds, "
                        "enforced cooperatively at the compilation "
                        "safepoints (DeadlineExceeded past it)")
    s.add_argument("--max-restarts", type=int, default=None,
                   help="supervisor restart budget per worker slot before "
                        "the slot is retired and its queue redistributed")
    s.add_argument("--forever", action="store_true",
                   help="loop the workload until SIGTERM/SIGINT, then "
                        "drain in-flight queries and shut down gracefully")
    s.set_defaults(fn=_cmd_serve)

    i = sub.add_parser("isa", help="build the Appendix-A ISA SDD")
    i.add_argument("k", type=int)
    i.add_argument("m", type=int)
    i.add_argument("--show-vtree", action="store_true")
    i.set_defaults(fn=_cmd_isa)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
