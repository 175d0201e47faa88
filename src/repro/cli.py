"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``stats <edgelist>``            — print the Table II statistics of a graph
* ``fit <edgelist> -o model.npz`` — train CPGAN on an edge-list graph
* ``generate model.npz -o out``   — sample graphs from a trained model
* ``evaluate <observed> <generated>`` — community + structural metrics
* ``datasets``                    — list the built-in dataset stand-ins
* ``synth <name> -o out``         — materialise a stand-in as an edge list
* ``serve model.npz ...``         — HTTP generation service (repro.serve)

Edge-list format: one ``u v`` pair per line, ``#`` comments, optional
``# nodes: N`` header (see :mod:`repro.graphs.io`).
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

from . import __version__
from .core import CPGAN, CPGANConfig, CheckpointError, load_model, save_model
from .datasets import DATASETS, load
from .graphs import graph_statistics, read_edge_list, write_edge_list
from .metrics import evaluate_community_preservation, evaluate_generation
from .train import Checkpoint, JsonlRunLog

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CPGAN community-preserving graph generation (ICDE 2022)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print graph statistics")
    p_stats.add_argument("graph", type=Path)
    p_stats.add_argument(
        "--streaming",
        action="store_true",
        help="force the one-pass degree-statistics path for a shard "
        "directory even when it would fit in memory (shard directories "
        "above the in-memory threshold stream automatically)",
    )

    p_fit = sub.add_parser("fit", help="train CPGAN on an edge-list graph")
    p_fit.add_argument("graph", type=Path)
    p_fit.add_argument("-o", "--output", type=Path, required=True)
    p_fit.add_argument("--epochs", type=int, default=400)
    p_fit.add_argument("--hidden-dim", type=int, default=64)
    p_fit.add_argument("--latent-dim", type=int, default=32)
    p_fit.add_argument("--levels", type=int, default=2)
    p_fit.add_argument("--sample-size", type=int, default=256)
    p_fit.add_argument("--learning-rate", type=float, default=1e-3)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument(
        "--resume",
        type=Path,
        default=None,
        metavar="CHECKPOINT",
        help="resume training from a checkpoint written by --checkpoint-path",
    )
    p_fit.add_argument(
        "--checkpoint-path",
        type=Path,
        default=None,
        metavar="PATH",
        help="write training checkpoints here ({epoch} is substituted)",
    )
    p_fit.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="checkpoint cadence in epochs (requires --checkpoint-path)",
    )
    p_fit.add_argument(
        "--run-log",
        type=Path,
        default=None,
        metavar="PATH",
        help="append per-epoch JSONL telemetry to this file",
    )

    p_gen = sub.add_parser("generate", help="sample graphs from a model")
    p_gen.add_argument("model", type=Path)
    p_gen.add_argument("-o", "--output", type=Path, required=True)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--num-nodes", type=int, default=None)
    p_gen.add_argument(
        "--generation-dtype",
        choices=["float64", "float32"],
        default=None,
        help="scoring precision (float64 = bit-reproducible default, "
        "float32 = half the memory for large graphs)",
    )
    p_gen.add_argument(
        "--generation-threads",
        type=int,
        default=None,
        help="scoring threads for the sparse top-k kernel "
        "(bit-identical at every thread count)",
    )
    p_gen.add_argument(
        "--shard-edges",
        type=int,
        default=None,
        metavar="N",
        help="stream the output as a shard directory of ~N edges per "
        "shard with a meta.json manifest (default: single file with a "
        "meta sidecar)",
    )
    p_gen.add_argument(
        "--shard-format",
        choices=["edgelist", "csr"],
        default="edgelist",
        help="shard payload format when --shard-edges is set",
    )
    p_gen.add_argument(
        "--repair-sampler",
        choices=["dense", "factored"],
        default=None,
        help="isolated-node repair partner draw (dense = bit-stable "
        "contract v1 default; factored = rejection-sampled from a "
        "norm-bound envelope, same distribution at a fraction of the "
        "cost on large graphs — contract v2)",
    )
    p_gen.add_argument(
        "--hierarchical",
        action="store_true",
        help="two-level community-parallel generation (repro.hier): "
        "community-level super-graph first, then independent "
        "per-community sparse top-k runs plus factored cross-community "
        "stitching — sidesteps the flat pipeline's single-graph top-k",
    )
    p_gen.add_argument(
        "--hier-workers",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for the hierarchical per-community tasks "
        "(bit-identical at every worker count; implies --hierarchical)",
    )
    p_gen.add_argument(
        "--hier-level",
        type=int,
        default=None,
        metavar="L",
        help="which trained hierarchy level plans the partition "
        "(0 = finest, clamps to the coarsest; implies --hierarchical)",
    )

    p_eval = sub.add_parser("evaluate", help="compare two graphs")
    p_eval.add_argument("observed", type=Path)
    p_eval.add_argument("generated", type=Path)

    sub.add_parser("datasets", help="list built-in dataset stand-ins")

    p_synth = sub.add_parser("synth", help="materialise a dataset stand-in")
    p_synth.add_argument("name", choices=sorted(DATASETS))
    p_synth.add_argument("-o", "--output", type=Path, required=True)
    p_synth.add_argument("--scale", type=float, default=0.1)
    p_synth.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve", help="serve graph generation over HTTP (repro.serve)"
    )
    p_serve.add_argument(
        "models",
        nargs="*",
        type=Path,
        help="fitted model archives; each is registered under its file stem",
    )
    p_serve.add_argument(
        "--models-dir",
        type=Path,
        default=None,
        help="register every valid *.npz under this directory",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)
    p_serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="generation worker threads (default: autosized from the host "
        "CPU count, see repro.serve.autosize_serving)",
    )
    p_serve.add_argument(
        "--worker-processes",
        type=int,
        default=None,
        metavar="N",
        help="generation worker processes; each runs warm models, its own "
        "sample cache and its own coalescing loop, with (model, seed) "
        "routed by consistent hash (0 = single-process thread mode; "
        "default: autosized from the host CPU count — multi-core hosts "
        "get one process per core, capped at 8)",
    )
    p_serve.add_argument(
        "--queue-size",
        type=int,
        default=32,
        help="bounded request queue; a full queue answers 503 + Retry-After",
    )
    p_serve.add_argument(
        "--cache-entries",
        type=int,
        default=128,
        help="LRU sample cache capacity in graphs (0 disables)",
    )
    p_serve.add_argument(
        "--max-loaded",
        type=int,
        default=4,
        help="models kept warm in memory before LRU eviction",
    )
    p_serve.add_argument(
        "--retry-after",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="Retry-After hint returned with backpressure responses",
    )
    p_serve.add_argument(
        "--generation-threads",
        type=int,
        default=None,
        metavar="N",
        help="scoring threads per request for the sparse top-k kernel "
        "(results are bit-identical at any thread count; default: "
        "autosized from the host CPU count)",
    )
    p_serve.add_argument(
        "--hier-workers",
        type=int,
        default=1,
        metavar="N",
        help="per-community worker threads for hierarchical-mode requests "
        "(results are bit-identical at any worker count; wall-clock knob)",
    )
    p_serve.add_argument(
        "--max-batch-size",
        type=int,
        default=8,
        metavar="N",
        help="coalesce up to N queued same-(model, num_nodes, params) "
        "requests into one micro-batch (1 disables "
        "coalescing; per-request graphs are bit-identical either way)",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="per-request completion deadline; an expired request is "
        "answered 504",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "stats": _cmd_stats,
        "fit": _cmd_fit,
        "generate": _cmd_generate,
        "evaluate": _cmd_evaluate,
        "datasets": _cmd_datasets,
        "synth": _cmd_synth,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args)


# Shard directories above this edge count stream their statistics instead
# of materialising the full edge set (override with --streaming either way
# below it; a 1M-node generation at ~1.3M edges is far past this).
_STREAMING_STATS_EDGES = 2_000_000


def _format_provenance(meta: dict) -> str:
    """One ``key=value`` line for recorded provenance fields, or ``""``."""
    fields = [
        f"{key}={meta[key]}"
        for key in ("dtype", "seed")
        if meta.get(key) is not None
    ]
    return "  provenance: " + " ".join(fields) if fields else ""


def _cmd_stats(args) -> int:
    from .graphs import read_shard_meta, streaming_shard_statistics

    if args.graph.is_dir():
        # A directory without a valid manifest (empty, or never closed by
        # EdgeShardWriter) is a user-facing condition, not a traceback.
        try:
            meta = read_shard_meta(args.graph)
        except ValueError as exc:
            print(
                f"error: {exc} — not a shard directory written by "
                "EdgeShardWriter (was generation interrupted before the "
                "manifest was flushed?)",
                file=sys.stderr,
            )
            return 2
        if args.streaming or meta["num_edges"] > _STREAMING_STATS_EDGES:
            stats = streaming_shard_statistics(args.graph)
            print(
                f"ShardedGraph(nodes={stats.num_nodes}, "
                f"edges={stats.num_edges}, "
                f"shards={len(meta['shards'])}, format={meta['format']})"
            )
            provenance = _format_provenance(meta)
            if provenance:
                print(provenance)
            print(stats.row())
            return 0
    graph, meta = read_edge_list(args.graph, with_meta=True)
    print(graph)
    provenance = _format_provenance(meta)
    if provenance:
        print(provenance)
    print(graph_statistics(graph).row())
    return 0


def _cmd_fit(args) -> int:
    graph = read_edge_list(args.graph)
    callbacks = []
    if args.run_log is not None:
        callbacks.append(JsonlRunLog(args.run_log, meta={"model": CPGAN.name}))
    if args.checkpoint_path is not None:
        # at_fit_end: a completed run always leaves a final checkpoint.
        every = max(args.checkpoint_every, 1)
        checkpoint = Checkpoint(args.checkpoint_path, every, at_fit_end=True)
        callbacks.append(checkpoint)
    if args.resume is not None:
        print(f"Resuming CPGAN training from {args.resume}...")
        try:
            model = CPGAN().fit(
                graph, callbacks=callbacks, resume_from=args.resume
            )
        except (CheckpointError, FileNotFoundError) as exc:
            print(
                f"error: cannot resume from {args.resume}: {exc}",
                file=sys.stderr,
            )
            return 2
    else:
        config = CPGANConfig(
            epochs=args.epochs,
            hidden_dim=args.hidden_dim,
            latent_dim=args.latent_dim,
            num_levels=args.levels,
            sample_size=args.sample_size,
            learning_rate=args.learning_rate,
            seed=args.seed,
        )
        print(f"Training CPGAN on {graph} for {args.epochs} epochs...")
        model = CPGAN(config).fit(graph, callbacks=callbacks)
    save_model(model, args.output)
    print(f"Model written to {args.output}")
    return 0


def _cmd_generate(args) -> int:
    try:
        model = load_model(args.model)
    except (CheckpointError, FileNotFoundError) as exc:
        print(f"error: cannot load {args.model}: {exc}", file=sys.stderr)
        return 2
    overrides = {}
    if args.generation_dtype is not None:
        overrides["generation_dtype"] = args.generation_dtype
    if args.generation_threads is not None:
        overrides["generation_threads"] = args.generation_threads
    if args.repair_sampler is not None:
        overrides["repair_sampler"] = args.repair_sampler
    if args.hierarchical or args.hier_workers is not None or args.hier_level is not None:
        overrides["generation_mode"] = "hierarchical"
    if args.hier_workers is not None:
        overrides["hier_workers"] = args.hier_workers
    if args.hier_level is not None:
        overrides["hier_level"] = args.hier_level
    try:
        config = model.generation_config(**overrides) if overrides else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for i in range(args.count):
        seed = args.seed + i
        if args.count == 1:
            path = args.output
        else:
            path = args.output.with_name(
                f"{args.output.stem}_{i}{args.output.suffix or '.txt'}"
            )
        # Stream through generate_to_file so sharded output and the meta
        # sidecar come for free; the edge set equals model.generate's.
        try:
            written = model.generate_to_file(
                path,
                seed=seed,
                num_nodes=args.num_nodes,
                config=config,
                shard_edges=args.shard_edges,
                shard_format=args.shard_format,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"Graph(seed={seed}, edges={written}) -> {path}")
    return 0


def _cmd_evaluate(args) -> int:
    observed = read_edge_list(args.observed)
    generated = read_edge_list(args.generated)
    print(evaluate_generation(observed, generated).row("structure"))
    if observed.num_nodes == generated.num_nodes:
        print(evaluate_community_preservation(observed, generated).row("community"))
    else:
        print("community   (skipped: node counts differ)")
    return 0


def _cmd_datasets(args) -> int:
    for name, spec in DATASETS.items():
        print(
            f"{name:<12} n={spec.num_nodes:<8} m={spec.num_edges:<9} "
            f"comm={spec.num_communities:<6} {spec.description}"
        )
    return 0


def _cmd_synth(args) -> int:
    dataset = load(args.name, scale=args.scale, seed=args.seed)
    write_edge_list(dataset.graph, args.output)
    print(f"{dataset.graph} ({args.name} @ scale {args.scale}) -> {args.output}")
    return 0


def _cmd_serve(args) -> int:
    from .serve import (
        GenerationService,
        ModelRegistry,
        autosize_serving,
        serve_forever,
    )

    registry = ModelRegistry(max_loaded=args.max_loaded)
    for path in args.models:
        try:
            registry.register(path.stem, path)
        except (CheckpointError, FileNotFoundError) as exc:
            print(f"error: cannot register {path}: {exc}", file=sys.stderr)
            return 2
    if args.models_dir is not None:
        registry.discover(args.models_dir)
        for path, reason in registry.rejected.items():
            print(f"warning: skipped {path}: {reason}", file=sys.stderr)
    if not registry.names():
        print("error: no models to serve", file=sys.stderr)
        return 2
    autosized = autosize_serving()
    workers = args.workers if args.workers is not None else autosized["workers"]
    worker_processes = (
        args.worker_processes
        if args.worker_processes is not None
        else autosized["worker_processes"]
    )
    generation_threads = (
        args.generation_threads
        if args.generation_threads is not None
        else autosized["generation_threads"]
    )
    service = GenerationService(
        registry,
        workers=workers,
        queue_size=args.queue_size,
        cache_entries=args.cache_entries,
        retry_after_s=args.retry_after,
        generation_threads=generation_threads,
        hier_workers=args.hier_workers,
        max_batch_size=args.max_batch_size,
        request_timeout_s=args.request_timeout,
        worker_processes=worker_processes,
    )
    print(f"Serving {len(registry.names())} model(s): {', '.join(registry.names())}")
    pool = (
        f"worker_processes={worker_processes}"
        if worker_processes
        else f"workers={workers}"
    )
    print(
        f"  {pool} generation_threads={generation_threads} "
        f"hier_workers={args.hier_workers} "
        f"max_batch_size={args.max_batch_size} "
        f"request_timeout={args.request_timeout:g}s"
    )
    print(f"  http://{args.host}:{args.port}/generate  (POST)")
    print(f"  http://{args.host}:{args.port}/models")
    print(f"  http://{args.host}:{args.port}/healthz")
    print(f"  http://{args.host}:{args.port}/metrics")
    # SIGTERM takes the SIGINT path, so serve_forever's cleanup stops the
    # worker processes instead of leaving them orphaned.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        serve_forever(service, args.host, args.port)
    except KeyboardInterrupt:
        print("shutting down")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
