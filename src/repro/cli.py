"""Command-line interface: run, persist, and serve matching experiments.

Subcommands::

    python -m repro.cli run --scenario imdb_wt --size tiny --k 5
    python -m repro.cli fit-save --scenario imdb_wt --index /tmp/imdb.tdm
    python -m repro.cli query --index /tmp/imdb.tdm --k 5 --json

``run`` generates the requested synthetic scenario, runs the W-RW pipeline
(optionally with expansion and compression), evaluates MRR / MAP@k /
HasPositive@k against the gold matches, and prints the result table plus
stage timings.  ``fit-save`` fits a pipeline and writes the single-file
serving index; ``query`` loads that index in a *fresh process* — no fit —
and serves ``match()`` from it, memory-mapping the embeddings by default.

``--json`` on any subcommand emits a machine-readable report instead of the
tables.  Invalid values (``--epochs 0``, ``--k 0``, ...) exit with a usage
error (status 2) before any fit starts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.blocking import TextQueryBlocker, TokenBlocking
from repro.core.config import CompressionConfig, ExpansionConfig, TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.datasets import SCENARIO_GENERATORS, ScenarioSize, generate_scenario
from repro.eval.metrics import evaluate_rankings
from repro.eval.report import format_quality_table, format_table
from repro.parallel.reliability import ReliabilityConfig

_SIZES = {
    "tiny": ScenarioSize.tiny,
    "small": ScenarioSize.small,
    "medium": ScenarioSize.medium,
}


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="imdb_wt", choices=sorted(SCENARIO_GENERATORS), help="scenario name")
    parser.add_argument("--size", default="tiny", choices=sorted(_SIZES), help="scenario scale")
    parser.add_argument("--seed", type=int, default=7, help="random seed")


def _add_pipeline_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--num-walks", type=int, default=10, help="random walks per node")
    parser.add_argument("--walk-length", type=int, default=15, help="random walk length")
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=1024,
        help="query rows scored per matmul by the dense backend (bounds memory)",
    )
    parser.add_argument(
        "--blocking",
        choices=["token", "neighborhood"],
        help="score only blocked pairs instead of all pairs (default: dense top-k): "
        "candidates sharing a term with the query (run only; needs the corpus "
        "texts) or near it in the graph",
    )
    parser.add_argument("--vector-size", type=int, default=64, help="embedding dimensionality")
    parser.add_argument("--epochs", type=int, default=2, help="Word2Vec epochs")
    parser.add_argument("--expansion", action="store_true", help="expand the graph with the scenario KB")
    parser.add_argument(
        "--compression",
        choices=["msp", "ssp", "ssum", "random-node", "random-edge"],
        help="compress the graph before learning embeddings",
    )
    parser.add_argument("--ratio", type=float, default=0.5, help="compression ratio / beta")
    parser.add_argument(
        "--num-workers",
        type=int,
        default=0,
        help="split the fit's walk/compression/word2vec stages into N shards run by "
        "N worker processes (0, the default, and 1 run the one-shard serial fit in "
        "this process; results are deterministic per shard count)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="seconds a pooled shard task may run before its workers are killed "
        "and the round is retried (default: wait forever)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="fresh-executor retries after a worker crash/timeout before the pool "
        "degrades or gives up (default: 1)",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="fail the fit when retries are exhausted instead of degrading the "
        "remaining shard tasks to inline serial execution",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser with its ``run``, ``fit-save`` and ``query`` subcommands.

    Each subcommand stores its handler as ``args.handler`` and its own
    ``error`` method as ``args.error``, so handlers report invalid values
    as usage errors of the subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run, persist, and serve TDmatch matching experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run",
        help="fit and evaluate the pipeline on a synthetic scenario",
        description="Run the TDmatch pipeline on a synthetic benchmark scenario.",
    )
    run_parser.add_argument("--list", action="store_true", help="list available scenarios and exit")
    _add_scenario_arguments(run_parser)
    run_parser.add_argument("--k", type=int, default=20, help="top-k candidates per query")
    _add_pipeline_arguments(run_parser)
    run_parser.add_argument("--json", action="store_true", help="emit a JSON report instead of tables")
    run_parser.set_defaults(handler=run, error=run_parser.error)

    fit_save_parser = subparsers.add_parser(
        "fit-save",
        help="fit the pipeline and write a single-file serving index",
        description="Fit the pipeline on a scenario and write a single-file serving index.",
    )
    _add_scenario_arguments(fit_save_parser)
    fit_save_parser.add_argument("--index", required=True, help="output path of the serving index")
    _add_pipeline_arguments(fit_save_parser)
    fit_save_parser.add_argument(
        "--mmap-default",
        action="store_true",
        help="record mmap=True as the index's default load mode",
    )
    fit_save_parser.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of tables"
    )
    fit_save_parser.set_defaults(handler=run_fit_save, error=fit_save_parser.error)

    query_parser = subparsers.add_parser(
        "query",
        help="serve matches from a saved index (no fit)",
        description="Load a serving index (no fit) and rank candidates for every query.",
    )
    query_parser.add_argument("--index", required=True, help="path of a fit-save serving index")
    query_parser.add_argument("--k", type=int, default=20, help="top-k candidates per query")
    query_parser.add_argument(
        "--query-side",
        choices=["first", "second"],
        default="first",
        help="which corpus provides the queries",
    )
    mmap_group = query_parser.add_mutually_exclusive_group()
    mmap_group.add_argument(
        "--mmap", dest="mmap", action="store_true", default=None,
        help="memory-map the embeddings (processes share pages)",
    )
    mmap_group.add_argument(
        "--no-mmap", dest="mmap", action="store_false",
        help="load private writable copies of the embeddings",
    )
    query_parser.add_argument(
        "--verify",
        choices=["none", "header", "full"],
        default="header",
        help="corruption check before serving: structural only, plus header "
        "checksum (default), or a full CRC of every array blob",
    )
    query_parser.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of tables"
    )
    query_parser.set_defaults(handler=run_query, error=query_parser.error)
    return parser


def _check_k(args: argparse.Namespace) -> None:
    if args.k < 1:
        args.error(f"--k must be >= 1, got {args.k}")


def _config_for(scenario, args: argparse.Namespace) -> TDMatchConfig:
    """Build the pipeline config a ``run``/``fit-save`` invocation asked for.

    Every value goes through the config validation; an invalid one exits
    with a usage error of the subcommand.
    """
    overrides = {
        "walks__num_walks": args.num_walks,
        "walks__walk_length": args.walk_length,
        "word2vec__vector_size": args.vector_size,
        "word2vec__epochs": args.epochs,
        "parallel__num_workers": args.num_workers,
        "retrieval__backend": "blocked" if args.blocking else "dense",
        "retrieval__chunk_size": args.chunk_size,
    }
    factory = (
        TDMatchConfig.for_text_to_data
        if scenario.task == "text-to-data"
        else TDMatchConfig.for_text_tasks
    )
    try:
        overrides["parallel__reliability"] = ReliabilityConfig(
            task_timeout=args.task_timeout,
            max_retries=args.max_retries,
            degrade_serial=not args.no_degrade,
        )
        if args.expansion and scenario.kb is not None:
            overrides["expansion"] = ExpansionConfig(resource=scenario.kb)
        if args.compression:
            overrides["compression"] = CompressionConfig(
                enabled=True, method=args.compression, ratio=args.ratio
            )
        return factory(**overrides)
    except ValueError as exc:
        args.error(str(exc))


def run(args: argparse.Namespace) -> int:
    if args.list:
        rows = [{"scenario": name} for name in sorted(SCENARIO_GENERATORS)]
        print(format_table(rows, title="Available scenarios"))
        return 0

    _check_k(args)
    scenario = generate_scenario(args.scenario, size=_SIZES[args.size](), seed=args.seed)
    config = _config_for(scenario, args)
    emit_json = args.json
    if not emit_json:
        print(format_table([scenario.summary()], title="Scenario"))

    pipeline = TDMatch(config, seed=args.seed)
    pipeline.fit(scenario.first, scenario.second)
    if not emit_json:
        print(
            f"\ngraph: {pipeline.graph.num_nodes()} nodes, {pipeline.graph.num_edges()} edges"
        )
        if args.compression:
            comp = pipeline.state.compression
            print(
                f"compression: {comp.method} "
                f"nodes {comp.nodes_before}->{comp.nodes_after} "
                f"edges {comp.edges_before}->{comp.edges_after}"
            )

    # Token blocking needs the corpus texts, which the fitted pipeline does
    # not retain — build the blocker from the scenario and hand it over.
    blocker = None
    if args.blocking == "token":
        token_blocking = TokenBlocking().fit(scenario.candidate_texts())
        blocker = TextQueryBlocker(token_blocking, scenario.query_texts())

    result = pipeline.match_result(k=args.k, blocker=blocker)
    rankings = result.rankings
    stats = result.retrieval
    report = evaluate_rankings("w-rw", rankings, scenario.gold, ks=(1, 5, min(20, args.k)))

    if emit_json:
        print(
            json.dumps(
                {
                    "scenario": scenario.summary(),
                    "quality": report.as_dict(),
                    "result": result.to_dict(),
                    "report": pipeline.report(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    print(
        f"retrieval: backend={stats.backend} scored_pairs={stats.scored_pairs}"
        f"/{stats.all_pairs} reduction_ratio={stats.reduction_ratio:.3f}"
    )
    print()
    print(format_quality_table([report], ks=(1, 5, min(20, args.k)), title="Match quality"))

    timing_rows = [
        {"stage": stage, "seconds": round(seconds, 3)}
        for stage, seconds in pipeline.timings.as_dict().items()
    ]
    print()
    pairs_per_sec = pipeline.model.stats.pairs_per_sec
    print(format_table(timing_rows, title=f"Stage timings ({pairs_per_sec:.0f} pairs/s)"))
    return 0


def run_fit_save(args: argparse.Namespace) -> int:
    if args.blocking == "token":
        args.error(
            "--blocking token needs the corpus texts at query time, which an "
            "index does not keep; use --blocking neighborhood or run"
        )
    scenario = generate_scenario(args.scenario, size=_SIZES[args.size](), seed=args.seed)
    config = _config_for(scenario, args)
    config.serving.mmap = bool(args.mmap_default)

    pipeline = TDMatch(config, seed=args.seed)
    pipeline.fit(scenario.first, scenario.second)
    path = pipeline.save(args.index)

    import os

    payload = {
        "index": path,
        "index_bytes": os.path.getsize(path),
        "scenario": scenario.summary(),
        "report": pipeline.report(),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_table([scenario.summary()], title="Scenario"))
    print(
        f"\nindex written: {path} ({payload['index_bytes']} bytes, "
        f"{pipeline.graph.num_nodes()} nodes, vocab "
        f"{len(pipeline.model.vocab)}, mmap default: {config.serving.mmap})"
    )
    return 0


def run_query(args: argparse.Namespace) -> int:
    _check_k(args)
    pipeline = TDMatch.load(args.index, mmap=args.mmap, verify=args.verify)
    result = pipeline.match_result(k=args.k, query_side=args.query_side)

    if args.json:
        print(
            json.dumps(
                {"result": result.to_dict(), "report": pipeline.report()},
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    rows = []
    for ranking in result.rankings:
        top = ranking.candidates[0] if ranking.candidates else ("-", float("nan"))
        rows.append(
            {
                "query": ranking.query_id,
                "top candidate": top[0],
                "score": round(float(top[1]), 4),
                "candidates": len(ranking.candidates),
            }
        )
    mmap = pipeline.report()["model"]["mmap"]
    print(
        format_table(
            rows,
            title=f"Top-{args.k} serving results ({args.index}, mmap={mmap})",
        )
    )
    stats = result.retrieval
    if stats is not None:
        print(
            f"\nretrieval: backend={stats.backend} scored_pairs={stats.scored_pairs}"
            f"/{stats.all_pairs} reduction_ratio={stats.reduction_ratio:.3f}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
