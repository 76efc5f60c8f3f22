"""Command-line interface.

``repro generate`` builds a synthetic dataset on disk, ``repro query`` runs
one UOTS query against it, ``repro explain`` prints the query's execution
plan without running it, ``repro trace`` runs a query with tracing on and
prints its per-stage time breakdown, ``repro metrics`` dumps the metrics
registry after serving a query, ``repro slowlog`` serves a query repeatedly
under the slow-query journal and renders the worst entries, ``repro join``
runs a similarity self join, ``repro bench`` prints a quick benchmark
battery, and ``repro serve`` exposes the service over HTTP through the
async gateway — enough to exercise the whole system without writing
Python.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.datasets import build_bundle
from repro.bench.harness import run_battery
from repro.bench.reporting import format_table
from repro.bench.workloads import WorkloadConfig, make_queries
from repro.core.engine import ALGORITHMS, make_searcher
from repro.core.query import UOTSQuery
from repro.core.registry import SERVING_ALGORITHM
from repro.errors import QueryError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryJournal
from repro.obs.trace import format_trace
from repro.resilience.budget import SearchBudget
from repro.index.database import TrajectoryDatabase
from repro.service.admission import AdmissionController
from repro.service.policy import PRIORITY_CLASSES, AdmissionPolicy
from repro.service.service import QueryService
from repro.join.tsjoin import TwoPhaseJoin
from repro.network import io as network_io
from repro.network.generators import grid_network, ring_radial_network
from repro.text.assignment import annotate_trajectories, assign_vertex_keywords
from repro.text.vocabulary import Vocabulary
from repro.trajectory import io as trajectory_io
from repro.trajectory.generator import generate_trips

__all__ = ["main"]


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.topology == "grid":
        side = max(2, int(round(args.vertices**0.5)))
        graph = grid_network(side, side, seed=args.seed)
    else:
        radials = 24
        rings = max(1, args.vertices // radials)
        graph = ring_radial_network(rings, radials, seed=args.seed)
    trips = generate_trips(graph, args.trajectories, seed=args.seed + 1)
    vocabulary = Vocabulary.build(args.vocabulary, seed=args.seed + 2)
    vertex_keywords = assign_vertex_keywords(graph, vocabulary, seed=args.seed + 3)
    trips = annotate_trajectories(trips, vertex_keywords, seed=args.seed + 4)

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    network_io.save_json(graph, out / "network.json")
    trajectory_io.save_jsonl(trips, out / "trajectories.jsonl")
    print(f"wrote {out / 'network.json'} (|V|={graph.num_vertices})")
    print(f"wrote {out / 'trajectories.jsonl'} (|P|={len(trips)})")
    return 0


def _load_database(
    directory: str, cache_size: int | None = None
) -> TrajectoryDatabase:
    base = Path(directory)
    graph = network_io.load_json(base / "network.json")
    trips = trajectory_io.load_jsonl(base / "trajectories.jsonl")
    return TrajectoryDatabase(graph, trips, cache_size=cache_size)


def _parse_query(args: argparse.Namespace) -> UOTSQuery:
    return UOTSQuery.create(
        locations=[int(v) for v in args.locations.split(",")],
        preference=args.preference,
        lam=args.lam,
        k=args.k,
    )


def _make_admission(args: argparse.Namespace) -> AdmissionController:
    """The admission controller the CLI policy flags describe (none set:
    the default unbounded controller)."""
    return AdmissionController(
        AdmissionPolicy(
            max_inflight=args.max_inflight,
            max_cost=args.max_cost,
            degrade_headroom=args.degrade_headroom,
        )
    )


def _uses_admission(args: argparse.Namespace) -> bool:
    """Whether the query should go through the admission-gated ``submit``
    path (any tenant/priority/policy flag present)."""
    return (
        args.tenant is not None
        or args.priority is not None
        or args.max_inflight is not None
        or args.max_cost is not None
        or args.degrade_headroom is not None
    )


def _make_service(
    database: TrajectoryDatabase,
    args: argparse.Namespace,
    trace: bool = False,
    metrics: MetricsRegistry | None = None,
    slowlog: SlowQueryJournal | bool | None = None,
) -> QueryService:
    """A one-shot query service configured from the CLI tuning flags.

    Unset flags arrive as ``None`` and mean "keep the algorithm default"
    (the registry drops them).
    """
    return QueryService(
        database,
        args.algorithm,
        admission=_make_admission(args),
        trace=trace,
        metrics=metrics,
        result_cache=args.result_cache_size,
        slowlog=slowlog,
        alt=False if args.no_alt else None,
        batch_size=args.batch_size,
        scheduler=args.scheduler,
        shards=args.shards,
    )


def _cmd_query(args: argparse.Namespace) -> int:
    database = _load_database(args.data, cache_size=args.cache_size)
    query = _parse_query(args)
    budget = None
    if args.deadline_ms is not None or args.max_expansions is not None:
        budget = SearchBudget.from_millis(
            deadline_ms=args.deadline_ms,
            max_expanded_vertices=args.max_expansions,
        )
    journal = (
        SlowQueryJournal(threshold_ms=args.slowlog_threshold_ms)
        if args.slowlog
        else None
    )
    service = _make_service(
        database, args, trace=bool(args.trace_out), slowlog=journal
    )
    if _uses_admission(args):
        # The admission-gated path: a shed query comes back error-marked
        # (never executed) instead of raising.
        result = service.submit(
            query, budget=budget, tenant=args.tenant, priority=args.priority
        )
        if result.error is not None:
            print(f"error: {result.error}", file=sys.stderr)
            if result.degradation_reason:
                print(f"reason: {result.degradation_reason}", file=sys.stderr)
            return 1
    else:
        result = service.search(query, budget=budget)
    rows = [
        (item.trajectory_id, f"{item.score:.4f}",
         f"{item.spatial_similarity:.4f}", f"{item.text_similarity:.4f}",
         "exact" if item.exact else "bound")
        for item in result.items
    ]
    print(format_table(["trajectory", "score", "spatial", "text", "kind"], rows))
    stats = result.stats
    print(
        f"visited={stats.visited_trajectories} "
        f"expanded={stats.expanded_vertices} "
        f"batches={stats.expand_batches} "
        f"refinements={stats.refinements} "
        f"time={stats.elapsed_seconds * 1000:.1f}ms"
    )
    if stats.cache == "result":
        result_cache = "hit"
    elif service.result_cache is not None:
        result_cache = "miss"
    else:
        result_cache = "off"
    print(
        f"alt_pruned={stats.alt_pruned} "
        f"distance_cache={stats.distance_cache_hits}h/"
        f"{stats.distance_cache_misses}m "
        f"text_cache={stats.text_cache_hits}h/{stats.text_cache_misses}m "
        f"result_cache={result_cache}"
    )
    if not result.exact:
        print(
            f"degraded: {result.degradation_reason}; any missed trajectory "
            f"scores <= {result.residual_bound:.4f} "
            f"(confirmed top-{len(result.confirmed_prefix())})"
        )
    if journal is not None:
        print()
        print(journal.describe())
    if args.trace_out:
        count = service.tracer.export_jsonl(args.trace_out)
        print(f"wrote {count} trace(s) to {args.trace_out}")
    return 0


def _cmd_slowlog(args: argparse.Namespace) -> int:
    database = _load_database(args.data, cache_size=args.cache_size)
    query = _parse_query(args)
    journal = SlowQueryJournal(
        capacity=args.capacity, threshold_ms=args.threshold_ms
    )
    # Tracing on: admitted entries carry the trace for --show-trace.
    service = _make_service(database, args, trace=True, slowlog=journal)
    for _ in range(args.repeat):
        service.search(query, tenant=args.tenant, priority=args.priority)
    print(journal.describe(top=args.top, include_trace=args.show_trace))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    database = _load_database(args.data, cache_size=args.cache_size)
    query = _parse_query(args)
    service = _make_service(database, args, trace=True)
    result = service.search(query, tenant=args.tenant, priority=args.priority)
    root = service.tracer.last_trace()
    print(format_trace(root, top_n=args.top))
    print(
        f"\nresult: {len(result.items)} trajectories, "
        f"{'exact' if result.exact else 'degraded'}, "
        f"{result.stats.elapsed_seconds * 1000:.1f} ms"
    )
    if args.trace_out:
        count = service.tracer.export_jsonl(args.trace_out)
        print(f"wrote {count} trace(s) to {args.trace_out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    database = _load_database(args.data, cache_size=args.cache_size)
    query = _parse_query(args)
    registry = MetricsRegistry()
    # --slowlog turns the full diagnostics stack on so the dump carries
    # the repro_slowlog_* and repro_trace_dropped_* series.
    service = _make_service(
        database, args, metrics=registry,
        trace=args.slowlog, slowlog=args.slowlog or None,
    )
    for _ in range(args.repeat):
        service.submit(query, tenant=args.tenant, priority=args.priority)
        if args.mutate > 0:
            # Churn N stored trajectories: each remove+re-add round-trips
            # the typed mutation events and populates the
            # repro_invalidation_* series the obs smoke checks.
            ids = [t.id for t in database.trajectories][: args.mutate]
            for trajectory_id in ids:
                trajectory = database.remove(trajectory_id)
                database.add(trajectory)
    if args.format == "json":
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(registry.render_prometheus())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    database = _load_database(args.data, cache_size=args.cache_size)
    query = _parse_query(args)
    service = _make_service(database, args)
    for _ in range(args.repeat):
        service.submit(query)
    print(service.explain(query))
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    database = _load_database(args.data)
    result = TwoPhaseJoin(database, lam=args.lam).self_join(args.theta)
    for id1, id2, score in result.pairs[:50]:
        print(f"({id1}, {id2})  SimST={score:.4f}")
    print(f"{len(result.pairs)} pairs, candidates={result.candidate_pairs}, "
          f"time={result.stats.elapsed_seconds:.2f}s")
    return 0


def _cmd_visualize(args: argparse.Namespace) -> int:
    from repro.viz.maps import draw_search_result

    database = _load_database(args.data)
    query = UOTSQuery.create(
        locations=[int(v) for v in args.locations.split(",")],
        preference=args.preference,
        lam=args.lam,
        k=args.k,
    )
    result = make_searcher(database, "collaborative").search(query)
    canvas = draw_search_result(
        database.graph, query.locations, result, database.get
    )
    canvas.save(args.output)
    print(f"wrote {args.output} ({len(result.items)} result trajectories)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.algorithms is None:
        algorithms = list(ALGORITHMS)
    else:
        algorithms = [name.strip() for name in args.algorithms.split(",") if name.strip()]
        unknown = [name for name in algorithms if name not in ALGORITHMS]
        if unknown:
            raise QueryError(
                f"unknown algorithm(s) {unknown}; choose from {sorted(ALGORITHMS)}"
            )
        if not algorithms:
            raise QueryError("--algorithms must name at least one algorithm")
    bundle = build_bundle(args.dataset, seed=args.seed)
    if not args.json:
        print(bundle.describe())
    queries = make_queries(bundle, WorkloadConfig(num_queries=args.queries))
    battery = run_battery(
        bundle, queries, algorithms, result_cache=args.result_cache_size
    )
    if args.json:
        # Machine-readable rows (CI diffs these without text parsing).
        payload = {
            "dataset": args.dataset,
            "num_queries": args.queries,
            "seed": args.seed,
            "database_size": len(bundle.database),
            "result_cache_size": args.result_cache_size,
            "rows": [
                {
                    "algorithm": name,
                    "mean_ms": round(m.mean_ms, 3),
                    "p95_ms": round(m.p95_ms, 3),
                    "mean_visited": round(m.mean_visited, 3),
                    "candidate_ratio": round(
                        m.candidate_ratio(len(bundle.database)), 6
                    ),
                    "result_cache_hits": m.result_cache_hits,
                }
                for name, m in battery.items()
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        (name, f"{m.mean_ms:.1f}", f"{m.p95_ms:.1f}", f"{m.mean_visited:.0f}",
         f"{m.candidate_ratio(len(bundle.database)):.3f}")
        for name, m in battery.items()
    ]
    print(format_table(
        ["algorithm", "mean ms", "p95 ms", "visited", "cand. ratio"], rows
    ))
    if args.result_cache_size:
        hits = ", ".join(
            f"{name} {m.result_cache_hits}/{m.queries}"
            for name, m in battery.items()
        )
        print(f"result cache hits: {hits}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve the dataset over HTTP through the async gateway."""
    import asyncio
    import signal

    from repro.gateway import AsyncQueryService
    from repro.gateway.app import create_app
    from repro.gateway.server import serve as serve_app
    from repro.obs.metrics import get_registry
    from repro.parallel.pool import serving_workers

    database = _load_database(args.data)
    # The service forks its search workers here (warm -> freeze -> fork),
    # while this process is still single-threaded: before the bridge
    # threads and the event loop exist.  They are its only executor, so
    # this process never searches, and nothing forks after this line.
    # Served algorithms keep their registry defaults: serve has no tuning
    # flags.
    service = QueryService(
        database,
        args.algorithm,
        admission=_make_admission(args),
        metrics=get_registry(),
        result_cache=args.result_cache_size,
        pool=serving_workers(args.gateway_workers),
    )
    gateway = AsyncQueryService(
        service,
        max_workers=args.gateway_workers,
        max_pending=args.max_pending,
    )
    app = create_app(gateway)

    async def run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass

        def on_ready(host: str, port: int) -> None:
            print(f"serving on http://{host}:{port}", flush=True)

        try:
            await serve_app(
                app,
                host=args.host,
                port=args.port,
                ready_callback=on_ready,
                shutdown_event=stop,
            )
        finally:
            await gateway.close()

    try:
        asyncio.run(run())
    finally:
        service.close()
    print("shutdown complete")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="User-oriented trajectory search for trip recommendation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--topology", choices=["grid", "ring"], default="ring")
    p.add_argument("--vertices", type=int, default=2000)
    p.add_argument("--trajectories", type=int, default=1000)
    p.add_argument("--vocabulary", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    def add_query_args(p: argparse.ArgumentParser) -> None:
        """The flags ``query`` and ``explain`` share (dataset, query, tuning)."""
        p.add_argument("--data", required=True, help="dataset directory")
        p.add_argument(
            "--locations", required=True, help="comma-separated vertex ids"
        )
        p.add_argument("--preference", default="", help="free-text preference")
        p.add_argument("--lam", type=float, default=0.5)
        p.add_argument("--k", type=int, default=5)
        p.add_argument(
            "--algorithm", choices=sorted(ALGORITHMS), default="collaborative"
        )
        p.add_argument(
            "--no-alt", action="store_true",
            help="disable landmark (ALT) bound tightening (same results, "
                 "more expansion work)",
        )
        p.add_argument(
            "--batch-size", type=int, default=None, metavar="N",
            help="expansion steps per scheduler round "
                 "(default keeps the algorithm's built-in batch size)",
        )
        p.add_argument(
            "--scheduler", choices=["heuristic", "round-robin"], default=None,
            help="expansion scheduling strategy "
                 "(default keeps the algorithm's built-in scheduler)",
        )
        p.add_argument(
            "--shards", type=int, default=None, metavar="N",
            help="number of spatial shards for --algorithm sharded "
                 "(ignored by flat algorithms; default 8)",
        )
        p.add_argument(
            "--cache-size", type=int, default=None, metavar="N",
            help="bound on the cross-query distance cache "
                 "(0 disables caching; default keeps the built-in bounds)",
        )
        p.add_argument(
            "--result-cache-size", type=int, default=None, metavar="N",
            help="bound on the service-level result cache answering "
                 "identical repeated queries in O(1) "
                 "(0 or unset disables it; exact un-budgeted results only)",
        )
        p.add_argument(
            "--tenant", default=None, metavar="NAME",
            help="tenant the query is submitted as (labels stats/trace; "
                 "subject to per-tenant quotas under an overload policy)",
        )
        p.add_argument(
            "--priority", choices=PRIORITY_CLASSES, default=None,
            help="priority class: under load, best_effort sheds first, "
                 "batch next, interactive only at the hard cap",
        )
        p.add_argument(
            "--max-inflight", type=int, default=None, metavar="N",
            help="global in-flight cap enforced by the overload policy "
                 "(enables utilization-based shedding)",
        )
        p.add_argument(
            "--max-cost", type=float, default=None, metavar="COST",
            help="shed queries whose planned estimated_cost exceeds COST "
                 "(the ceiling tightens further under load)",
        )
        p.add_argument(
            "--degrade-headroom", type=float, default=None, metavar="FACTOR",
            help="instead of shedding, run queries up to FACTOR x over the "
                 "cost ceiling under a tightened budget (anytime results)",
        )

    p = sub.add_parser("query", help="run one UOTS query")
    add_query_args(p)
    p.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="wall-clock budget; past it the best-so-far answer is returned",
    )
    p.add_argument(
        "--max-expansions", type=int, default=None, metavar="N",
        help="cap on expanded vertices before the search degrades",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="trace the query and write the span tree as JSONL to FILE",
    )
    p.add_argument(
        "--slowlog", action="store_true",
        help="serve under a slow-query journal and print its entries "
             "(fingerprint, plan, work counters, plan drift)",
    )
    p.add_argument(
        "--slowlog-threshold-ms", type=float, default=0.0, metavar="MS",
        help="journal only queries slower than MS (default 0: worst-N "
             "of everything served)",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "slowlog",
        help="serve a query repeatedly under the slow-query journal and "
             "render the worst entries",
    )
    add_query_args(p)
    p.add_argument(
        "--repeat", type=int, default=3, metavar="N",
        help="serve the query N times before rendering the journal",
    )
    p.add_argument(
        "--threshold-ms", type=float, default=0.0, metavar="MS",
        help="journal only queries slower than MS (default 0: worst-N)",
    )
    p.add_argument(
        "--capacity", type=int, default=32, metavar="N",
        help="worst-N journal slots",
    )
    p.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="how many worst entries to render",
    )
    p.add_argument(
        "--show-trace", action="store_true",
        help="include each entry's stitched trace tree (worker spans "
             "grafted under their owning shard/query spans)",
    )
    p.set_defaults(func=_cmd_slowlog)

    p = sub.add_parser(
        "explain", help="print a query's execution plan without running it"
    )
    add_query_args(p)
    p.add_argument(
        "--repeat", type=int, default=0, metavar="N",
        help="serve the query N times first, so the plan carries the "
             "observed plan-vs-actual drift for this algorithm",
    )
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "trace", help="run one query with tracing and print the time breakdown"
    )
    add_query_args(p)
    p.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="how many slowest spans to list under the breakdown tree",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also write the span tree as JSONL to FILE",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "metrics", help="serve a query with metrics bound and dump the registry"
    )
    add_query_args(p)
    p.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="serve the query N times before dumping (exercises the caches)",
    )
    p.add_argument(
        "--mutate", type=int, default=0, metavar="N",
        help="between repeats, remove and re-add N stored trajectories "
        "(exercises the scoped-invalidation series; needs "
        "--result-cache-size > 0 to register the listener)",
    )
    p.add_argument(
        "--slowlog", action="store_true",
        help="also bind a tracer and slow-query journal, so the dump "
        "carries the repro_slowlog_* and repro_trace_dropped_* series",
    )
    p.add_argument(
        "--format", choices=["prometheus", "json"], default="prometheus",
        help="dump as Prometheus text exposition (default) or a JSON snapshot",
    )
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("join", help="run a trajectory similarity self join")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--theta", type=float, default=1.9)
    p.add_argument("--lam", type=float, default=0.5)
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser("visualize", help="render a query result to SVG")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--locations", required=True, help="comma-separated vertex ids")
    p.add_argument("--preference", default="", help="free-text preference")
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--output", required=True, help="SVG file to write")
    p.set_defaults(func=_cmd_visualize)

    p = sub.add_parser("bench", help="quick algorithm battery")
    p.add_argument("--dataset", choices=["brn", "nrn"], default="brn")
    p.add_argument("--queries", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--result-cache-size", type=int, default=None, metavar="N",
        help="serve the battery through a bounded result cache and report "
             "per-algorithm hits (0 or unset keeps caching off)",
    )
    p.add_argument(
        "--algorithms", default=None, metavar="A,B,...",
        help="comma-separated subset of the registry to run "
             "(default: the full battery)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable rows instead of the text table",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "serve",
        help="serve the dataset over HTTP through the async gateway",
    )
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000, help="0 picks a free port")
    p.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default=SERVING_ALGORITHM
    )
    p.add_argument(
        "--gateway-workers", type=int, default=8, metavar="N",
        help="bridge threads = searches in flight at once; searches run in "
             "parallel on min(usable CPUs, N) pre-forked worker processes, "
             "at least one (threads alone do not: the search holds the GIL)",
    )
    p.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="bound on bridged calls queued-or-running "
             "(default 4x --gateway-workers; past it /query answers 503)",
    )
    p.add_argument(
        "--result-cache-size", type=int, default=256, metavar="N",
        help="service result cache answering identical repeats in O(1) "
             "(0 disables; serving defaults it on, unlike one-shot query)",
    )
    p.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="overload-policy in-flight cap (enables shedding)",
    )
    p.add_argument("--max-cost", type=float, default=None, metavar="COST")
    p.add_argument(
        "--degrade-headroom", type=float, default=None, metavar="FACTOR"
    )
    p.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro`` console script.

    Every command fails with exit code 1 and a one-line ``error:`` message
    on library errors (:class:`ReproError`) and on OS-level failures such
    as a missing dataset directory — never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
