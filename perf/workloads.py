"""The benchmark's four workloads, their output checks and their metrics.

Every workload has the same shape: set up ``SETUP_REPS`` times (the
median is ``setup_s``), warm up, then measure for ``seconds`` of wall time
and check every output.  An untraced run reports the end-to-end metrics.
A traced run alternates untraced and traced operations (the server
workload: an untraced server, then a traced one) and reports the
per-layer metrics, including the tracing's own overhead.

Only public ``repro`` names are used, so the benchmark measures each
layer from outside and survives refactors behind those names.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import inspect
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import CPGAN, CPGANConfig
from repro.core import load_model, save_model
from repro.datasets import load
from repro.graphs import Graph, iter_edge_shards, read_shard_meta, streaming_shard_statistics
from repro.metrics import evaluate_community_preservation, evaluate_generation
from repro.train import Callback

import hooks
import loadgen

__all__ = ["END_TO_END", "PER_LAYER", "PROFILES", "WORKLOADS", "Context"]

SETUP_REPS = 5

#: glibc, for ``malloc_trim``; ``None`` under another C library.
_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))
if hasattr(_LIBC, "malloc_trim"):
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
else:
    _LIBC = None

#: Ladder stage -> the spans whose self time it sums ("gen" is the whole
#: generation call).
STAGES = {
    "features": ("core.decoder.features",),
    "sample": ("core.variational.sample",),
    "topk": ("core.decoder.topk", "hier.topk"),
    "select": ("graphs.assembly.select", "hier.select"),
    "write": ("graphs.io.write",),
}

#: What the paper states for each ladder stage (PAPER.md §2), recorded
#: beside the measured log-log slope in the trace file.
PAPER_COMPLEXITY = {
    "gen": "O(kn + n*s^2) decoding",
    "features": "O(n) decoding",
    "sample": "O(n)",
    "topk": "O(kn + n*s^2)",
    "select": "not stated (sparse assembly replaces O(n^2))",
    "write": "not stated",
}

#: ``repro serve`` as a 2-core host autosizes it, pinned.
SERVE_FLAGS = [
    "--worker-processes", "2",
    "--generation-threads", "1",
    "--max-batch-size", "8",
    "--queue-size", "32",
    "--cache-entries", "128",
]


@dataclass(frozen=True)
class Profile:
    """Input sizes and minimum counts.  ``smoke`` is every path at toy scale."""

    stream_nodes: int
    shard_edges: int
    ladder: tuple[int, ...]  # traced sizes below stream_nodes, for the slopes
    min_graphs: int
    train_scale: float
    quality_epochs: int
    min_traced_epochs: int
    serve_warmup: int
    min_closed: int
    open_rate: float
    min_open: int


PROFILES = {
    "full": Profile(
        stream_nodes=100_000, shard_edges=100_000, ladder=(10_000, 30_000),
        min_graphs=3, train_scale=0.3, quality_epochs=400, min_traced_epochs=20,
        serve_warmup=100, min_closed=50, open_rate=20.0, min_open=100,
    ),
    "smoke": Profile(
        stream_nodes=2_000, shard_edges=1_000, ladder=(1_000, 1_500),
        min_graphs=2, train_scale=0.06, quality_epochs=20, min_traced_epochs=5,
        serve_warmup=10, min_closed=25, open_rate=20.0, min_open=25,
    ),
}


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------
@dataclass
class Context:
    """One run: its inputs, working directory and accumulated outcome."""

    root: Path
    workdir: Path
    seed: int
    seconds: float
    trace: bool
    profile: Profile
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    ladder: dict[int, dict[str, float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)

    def new_seed(self) -> int:
        return int(self.rng.integers(2**31))

    def outcome(self, problem: str | None, where: str) -> bool:
        """Count one attempted operation; a problem fails it."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{where}: {problem}")
        return problem is None

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def repeat_setup(setup, teardown=None):
    """Run ``setup`` ``SETUP_REPS`` times; the last state and the median time.

    ``teardown`` disposes of each earlier state, outside the timing.
    """
    times = []
    for rep in range(SETUP_REPS):
        start = time.monotonic()
        state = setup()
        times.append(time.monotonic() - start)
        if teardown is not None and rep < SETUP_REPS - 1:
            teardown(state)
    return state, statistics.median(times)


def time_boxed(seconds: float, min_ops: int, op) -> None:
    """Call ``op()`` until ``seconds`` have passed and ``min_ops`` ran."""
    start = time.monotonic()
    done = 0
    while done < min_ops or time.monotonic() - start < seconds:
        op()
        done += 1


def reset_peak_rss(*pids) -> None:
    """Restart the VmHWM high-water mark of each process (default: self).

    For this process, free heap the allocator kept from the previous rep
    is handed back first; otherwise each rep's peak would include a
    varying amount of retained heap rather than the rep's working set.
    """
    if not pids and _LIBC is not None:
        _LIBC.malloc_trim(0)
    for pid in pids or ("self",):
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")


def peak_rss_mib(*pids) -> float:
    total_kib = 0
    for pid in pids or ("self",):
        with open(f"/proc/{pid}/status") as handle:
            total_kib += next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    return total_kib / 1024


def target_edges(observed: Graph, n: int) -> int:
    """Edge budget of an ``n``-node generation: the observed density."""
    return max(1, int(round(observed.num_edges * n / observed.num_nodes)))


def canonical_problem(edges: np.ndarray, n: int) -> str | None:
    """Why ``edges`` is not unique, sorted, ``u < v`` and in ``[0, n)``."""
    if edges.size == 0:
        return None
    u, v = edges[:, 0], edges[:, 1]
    if u.min() < 0 or v.max() >= n:
        return "endpoint out of range"
    if not (u < v).all():
        return "edge with u >= v"
    if not (np.diff(u * n + v) > 0).all():
        return "edges not unique and sorted"
    return None


def edge_digest(edges: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(edges, dtype=np.int64).tobytes()).hexdigest()


def check_graphs(ctx: Context, graphs: list[Graph], n: int, where: str) -> None:
    for graph in graphs:
        problem = canonical_problem(graph.edge_array(), n)
        if graph.num_nodes != n:
            problem = f"{graph.num_nodes} nodes, expected {n}"
        ctx.outcome(problem, where)


def quality(ctx: Context, observed: Graph, graphs: list[Graph]) -> None:
    """Louvain NMI (end to end) and MMD diagnostics against ``observed``."""
    ctx.put("nmi", evaluate_community_preservation(observed, graphs).nmi, "ratio")
    report = evaluate_generation(observed, graphs)
    ctx.put("metrics.degree_mmd", report.degree, "1")
    ctx.put("metrics.clustering_mmd", report.clustering, "1")


def put_latencies(ctx: Context, seconds: list[float]) -> None:
    """The median is gated; the tail is printed for reading only, because
    run to run it moves more than any bound the benchmark could hold."""
    ms = 1000 * np.asarray(seconds)
    ctx.put("latency_p50_ms", float(np.percentile(ms, 50)), "ms")
    ctx.notes.append(
        f"latency over n={ms.size}: p95 {np.percentile(ms, 95):.4g} ms, "
        f"p99 {np.percentile(ms, 99):.4g} ms, max {ms.max():.4g} ms"
    )


def span_names() -> list[str]:
    return [*dict.fromkeys(span for __, __, span in hooks.HOOKS), "train.epoch"]


def put_layers(ctx: Context, spans: list[dict], e2e_s: float) -> None:
    """Each span name's self time as a share of the traced end-to-end time."""
    own = hooks.self_times(spans)
    for name in span_names():
        ctx.put(f"{name}.self_frac", own.get(name, 0.0) / e2e_s, "frac")
    covered = sum(t for name, t in own.items() if name != hooks.PROBE_SPAN)
    ctx.put("trace.coverage_frac", covered / e2e_s, "frac")
    ctx.spans = spans


def count_spans(spans: list[dict], name: str) -> int:
    return sum(span["name"] == name for span in spans)


def probe_seconds(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == hooks.PROBE_SPAN)


# ----------------------------------------------------------------------
# stream_flat_100k / stream_hier_100k
# ----------------------------------------------------------------------
class RepairProbe:
    """Prices a selection's repair pass by re-running it without repair.

    Runs under :data:`hooks.PROBE_SPAN` after the traced call returned:
    repair time = select self time - top-k-only time, and the top-k-only
    edge set gives the share of nodes repair had to connect.
    """

    def __init__(self) -> None:
        self.topk_only_s = 0.0
        self.isolated = 0
        self.nodes = 0

    def __call__(self, original, args, kwargs, result) -> None:
        bound = inspect.signature(original).bind(*args, **kwargs)
        bound.arguments["strategy"] = "topk"
        bound.arguments["rng"] = None
        start = time.monotonic()
        edges = original(*bound.args, **bound.kwargs)
        self.topk_only_s += time.monotonic() - start
        n = int(bound.arguments["num_nodes"])
        degree = np.bincount(np.asarray(edges).ravel(), minlength=n)
        self.isolated += int(np.count_nonzero(degree == 0))
        self.nodes += n


def check_stream_output(path: Path, count: int, target: int, n: int, flat: bool):
    """``(problem, record)``: counts agree, edges canonical, flat has no
    isolated node; the record holds the digest and on-disk size."""
    meta = read_shard_meta(path)
    parts = list(iter_edge_shards(path, meta))
    edges = np.concatenate(parts) if parts else np.zeros((0, 2), dtype=np.int64)
    problem = canonical_problem(edges, n)
    if not count == meta["num_edges"] == target == len(edges):
        problem = (
            f"edge counts disagree: returned {count}, manifest "
            f"{meta['num_edges']}, shards {len(edges)}, target {target}"
        )
    elif flat and problem is None:
        isolated = streaming_shard_statistics(path).isolated_nodes
        if isolated:
            problem = f"{isolated} isolated nodes"
    record = {
        "digest": edge_digest(edges),
        "bytes": sum(f.stat().st_size for f in path.iterdir()),
        "shards": len(meta["shards"]),
    }
    return problem, record


def stream(ctx: Context, mode: str) -> None:
    p = ctx.profile
    flat = mode == "sparse"

    def setup():
        observed = load("citeseer", scale=0.06, seed=0).graph
        return observed, CPGAN(CPGANConfig(epochs=1, seed=0)).fit(observed)

    (observed, model), setup_s = repeat_setup(setup)
    ctx.put("setup_s", setup_s, "s")
    # Drawn before the time-boxed loop, whose length varies run to run.
    quality_seeds = [ctx.new_seed() for __ in range(16)]
    cfg = model.generation_config(
        latent_source="prior",
        generation_dtype="float32",
        repair_sampler="factored",
        generation_threads=1,
        generation_mode=mode,
        hier_workers=1,
    )
    out = ctx.workdir / "graph"

    def one_graph(n: int, into: list[dict], seed: int | None = None) -> None:
        seed = ctx.new_seed() if seed is None else seed
        reset_peak_rss()
        start = time.monotonic()
        count = model.generate_to_file(
            out, seed=seed, num_nodes=n, config=cfg, shard_edges=p.shard_edges
        )
        seconds = time.monotonic() - start
        peak = peak_rss_mib()
        problem, record = check_stream_output(out, count, target_edges(observed, n), n, flat)
        shutil.rmtree(out)
        key = f"graph:{n}:{seed}"
        if problem is None and ctx.digests.get(key, record["digest"]) != record["digest"]:
            problem = "differs from the same seed's earlier graph"
        ctx.digests[key] = record["digest"]
        if ctx.outcome(problem, f"{n}-node graph, seed {seed}"):
            into.append({**record, "seconds": seconds, "peak": peak, "edges": count})

    one_graph(p.stream_nodes, [])  # warm-up: lazy imports, allocator growth
    if ctx.trace:
        traced_stream(ctx, one_graph)
    else:
        graphs: list[dict] = []
        time_boxed(ctx.seconds, p.min_graphs, lambda: one_graph(p.stream_nodes, graphs))
        ctx.put("throughput_per_s", statistics.median(g["edges"] / g["seconds"] for g in graphs), "1/s")
        put_latencies(ctx, [g["seconds"] for g in graphs])
        ctx.put("peak_rss_mb", statistics.median(g["peak"] for g in graphs), "MiB")

    # Community preservation needs node identity: posterior latents at the
    # fitted size, through the workload's own generation settings.
    qcfg = model.generation_config(
        generation_dtype="float32", repair_sampler="factored", generation_mode=mode
    )
    fitted = [model.generate(seed=seed, config=qcfg) for seed in quality_seeds]
    check_graphs(ctx, fitted, observed.num_nodes, "fitted-size graph")
    ctx.digests["fitted"] = edge_digest(np.concatenate([g.edge_array() for g in fitted]))
    quality(ctx, observed, fitted)


def traced_stream(ctx: Context, one_graph) -> None:
    """Each seed runs once untraced and once traced, in alternating order:
    the pair does the same work (and must write the same edges), so
    neither host drift, the seed's own cost nor running second leaks into
    ``trace_overhead_frac``."""
    p = ctx.profile
    tracer = hooks.Tracer()
    probe = RepairProbe()
    probes = {"graphs.assembly.select": probe, "hier.select": probe}
    traced: list[dict] = []
    ratios: list[float] = []

    def pair() -> None:
        seed = ctx.new_seed()
        plain: list[dict] = []
        hooked: list[dict] = []
        first = len(tracer.spans)
        for run_traced in (False, True) if len(ratios) % 2 == 0 else (True, False):
            if run_traced:
                with hooks.installed(tracer, probes=probes):
                    one_graph(p.stream_nodes, hooked, seed)
            else:
                one_graph(p.stream_nodes, plain, seed)
        traced.extend(hooked)
        if plain and hooked:
            probe_s = probe_seconds(tracer.spans[first:])
            ratios.append((hooked[0]["seconds"] - probe_s) / plain[0]["seconds"])

    time_boxed(ctx.seconds, p.min_graphs, pair)
    spans = list(tracer.spans)
    with hooks.installed(tracer):
        for n in p.ladder:
            tracer.spans.clear()
            one_graph(n, [])
            ctx.ladder[n] = stage_seconds(tracer.spans)
    graphs = len(traced)
    probe_s = probe_seconds(spans)
    e2e = sum(g["seconds"] for g in traced) - probe_s
    put_layers(ctx, spans, e2e)
    own = hooks.self_times(spans)
    select_s = own.get("graphs.assembly.select", 0.0) + own.get("hier.select", 0.0)
    ctx.put("graphs.assembly.repair_frac", max(select_s - probe.topk_only_s, 0.0) / e2e, "frac")
    ctx.put("graphs.assembly.isolated_frac", probe.isolated / max(probe.nodes, 1), "frac")
    cross = count_spans(spans, "hier.stitch.cross")
    ctx.put("hier.tasks", (count_spans(spans, "hier.topk") + cross) / graphs, "count")
    ctx.put("hier.cross_pairs", cross / graphs, "count")
    ctx.put("community.louvain_calls", count_spans(spans, "community.louvain") / graphs, "count")
    ctx.put("graphs.io.shards", statistics.mean(g["shards"] for g in traced), "count")
    ctx.put("graphs.io.bytes", statistics.mean(g["bytes"] for g in traced), "B")
    ctx.put("trace_overhead_frac", statistics.median(ratios) - 1, "frac")
    ctx.ladder[p.stream_nodes] = {k: v / graphs for k, v in stage_seconds(spans).items()}
    for stage, slope in ladder_slopes(ctx.ladder).items():
        ctx.put(f"slope.{stage}", slope, "1")


def stage_seconds(spans: list[dict]) -> dict[str, float]:
    own = hooks.self_times(spans)
    stages = {stage: sum(own.get(n, 0.0) for n in names) for stage, names in STAGES.items()}
    roots = [s for s in spans if s["name"] == "core.model" and not s["parent"]]
    stages["gen"] = sum(s["end"] - s["start"] for s in roots) - probe_seconds(spans)
    return stages


def ladder_slopes(ladder: dict[int, dict[str, float]]) -> dict[str, float]:
    """Least-squares log-log slope of each stage's time against n."""
    sizes = sorted(ladder)
    slopes = {}
    for stage in ("gen", *STAGES):
        times = [ladder[n].get(stage, 0.0) for n in sizes]
        if len(sizes) >= 2 and min(times) > 0:
            slopes[stage] = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    return slopes


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def serve_documents(ctx: Context, count: int) -> list[dict]:
    """90% fitted-size requests with Zipf(1.3)-popular seeds (mostly cache
    hits); 10% 1000-node requests with unique seeds (always misses)."""
    zipf = ctx.rng.zipf(1.3, size=count) % 256
    misses = ctx.rng.random(count) < 0.1
    return [
        {"model": "citeseer", "seed": 1_000_000 + i, "num_nodes": 1000}
        if misses[i]
        else {"model": "citeseer", "seed": int(zipf[i])}
        for i in range(count)
    ]


def check_response(record, document: dict, fitted_n: int):
    """``(problem, body, edges)`` for one response."""
    if record.status != 200:
        return f"HTTP {record.status}", None, None
    try:
        body = json.loads(record.body)
        edges = np.asarray(body["edges"], dtype=np.int64).reshape(-1, 2)
        n = document.get("num_nodes") or fitted_n
        problem = canonical_problem(edges, n)
        if body["num_nodes"] != n:
            problem = f"{body['num_nodes']} nodes, asked {n}"
        elif body["num_edges"] != len(edges):
            problem = "num_edges != len(edges)"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed body ({exc!r})", None, None
    return problem, body, edges


class ServeRun:
    """The server processes of one run, and the checked requests sent."""

    def __init__(self, ctx: Context, archive: Path, fitted_n: int) -> None:
        self.ctx = ctx
        self.archive = archive
        self.fitted_n = fitted_n
        self.env = loadgen.server_env(ctx.root / "src")
        self.servers: list[loadgen.Server] = []

    def start(self, span_dir: Path | None = None) -> loadgen.Server:
        command = loadgen.serve_command(self.archive, SERVE_FLAGS, span_dir)
        log = self.ctx.workdir / "server.log"
        server = loadgen.start_server(command, self.env, self.ctx.root, log)
        self.servers.append(server)
        return server

    def stop(self, server: loadgen.Server) -> None:
        """Stop through SIGINT; a bad exit or leaked worker fails the stop."""
        self.servers.remove(server)
        problems = loadgen.stop_server(server)
        self.ctx.outcome("; ".join(problems) if problems else None, "server stop")

    def stop_all(self) -> None:
        for server in list(self.servers):
            self.stop(server)

    def checked(self, records, documents) -> list[tuple]:
        """``[(record, body, edges)]``, body ``None`` for failed requests."""
        rows = []
        for record in records:
            document = documents[record.index]
            problem, body, edges = check_response(record, document, self.fitted_n)
            ok = self.ctx.outcome(problem, f"request {document}")
            rows.append((record, body if ok else None, edges))
        return rows

    def closed(self, server, documents, seconds: float, min_count: int):
        records, wall = loadgen.closed_loop(server.port, documents, seconds, min_count)
        return self.checked(records, documents), wall


def serve(ctx: Context) -> None:
    observed = load("citeseer", scale=0.06, seed=0).graph
    run = ServeRun(ctx, ctx.workdir / "citeseer.npz", observed.num_nodes)

    def setup():
        save_model(CPGAN(CPGANConfig(epochs=2, seed=0)).fit(observed), run.archive)
        return run.start()

    try:
        server, setup_s = repeat_setup(setup, teardown=run.stop)
        ctx.put("setup_s", setup_s, "s")
        serve_measure(ctx, run, server, observed)
    finally:
        run.stop_all()


def serve_measure(ctx: Context, run: ServeRun, server, observed: Graph) -> None:
    p = ctx.profile
    documents = serve_documents(ctx, p.serve_warmup + 20_000)
    warmup, documents = documents[: p.serve_warmup], documents[p.serve_warmup :]
    run.closed(server, warmup, 0, len(warmup))
    span_dir = None
    closed_s, open_s = 0.3 * ctx.seconds, 0.7 * ctx.seconds
    if ctx.trace:
        # An untraced baseline for the overhead, then the same traffic
        # against a server started through the traced wrapper.
        closed_s, open_s = 0.2 * ctx.seconds, 0.6 * ctx.seconds
        untraced, __ = run.closed(server, documents, closed_s, p.min_closed)
        documents = documents[len(untraced) :]
        untraced_s = statistics.median(r.done - r.sent for r, __, __ in untraced)
        run.stop(server)
        span_dir = ctx.workdir / "spans"
        span_dir.mkdir()
        server = run.start(span_dir)
        run.closed(server, warmup, 0, len(warmup))
    pids = [server.process.pid, *server.workers]
    reset_peak_rss(*pids)
    window_start = time.monotonic()
    closed, wall = run.closed(server, documents, closed_s, p.min_closed)
    documents = documents[len(closed) :][: max(p.min_open, int(p.open_rate * open_s))]
    opened = run.checked(loadgen.open_loop(server.port, documents, p.open_rate), documents)
    window = (window_start, time.monotonic())
    peak = peak_rss_mib(*pids)

    client = loadgen.Client(server.port)
    status, body = client.post("/generate", {"model": "citeseer", "seed": 0})
    expected = load_model(run.archive).generate(seed=0).edge_array()
    served = json.loads(body)["edges"] if status == 200 else None
    same = served is not None and np.array_equal(np.asarray(served).reshape(-1, 2), expected)
    ctx.outcome(None if same else "differs from load_model(archive).generate(seed=0)", "probe")
    ctx.digests["probe"] = edge_digest(expected)
    server_metrics = json.loads(client.get("/metrics")[1])

    if not ctx.trace:
        ctx.put("throughput_per_s", sum(b is not None for __, b, __ in closed) / wall, "1/s")
        put_latencies(ctx, [r.done - r.due for r, __, __ in opened])
        ctx.put("peak_rss_mb", peak, "MiB")
    else:
        spans = [
            s for s in hooks.load_jsonl_spans(span_dir)
            if window[0] <= s["start"] and s["end"] <= window[1]
        ]
        good = [(r, b) for r, b, __ in closed + opened if b is not None]
        put_layers(ctx, spans, sum(r.done - r.sent for r, __ in good))
        put_serve_layers(ctx, good, spans, server_metrics, [r for r, __, __ in opened])
        traced_s = statistics.median(r.done - r.sent for r, __, __ in closed)
        ctx.put("trace_overhead_frac", traced_s / untraced_s - 1, "frac")
    fitted = {}
    for record, body, edges in closed + opened:
        if body is not None and body["num_nodes"] == run.fitted_n:
            fitted.setdefault(body["seed"], edges)
    quality(ctx, observed, [
        Graph.from_canonical_edges(run.fitted_n, fitted[seed]) for seed in sorted(fitted)[:4]
    ])


def put_serve_layers(ctx: Context, good, spans, server_metrics, opened) -> None:
    """Where request time goes: HTTP transport, IPC and queueing, generation."""
    roots = [s for s in spans if s["name"] == "core.model" and not s["parent"]]
    ipc = []
    for record, body in good:
        if body["cache_hit"] or body["latency_s"] <= 0:
            continue
        inside = [
            s["end"] - s["start"] for s in roots
            if record.sent <= s["start"] and s["end"] <= record.done
        ]
        if inside:
            ipc.append(max(body["latency_s"] - max(inside), 0.0) / body["latency_s"])
    ctx.put("serve.ipc_queue_frac", statistics.median(ipc) if ipc else 0.0, "frac")
    ctx.put("serve.http_frac", statistics.median(
        (r.done - r.sent - body["latency_s"]) / (r.done - r.sent) for r, body in good
    ), "frac")
    ctx.put("serve.cache_hit_frac", statistics.mean(bool(b["cache_hit"]) for __, b in good), "frac")
    ctx.put("serve.response_kib_mean", statistics.mean(len(r.body) for r, __ in good) / 1024, "KiB")
    batching = server_metrics["batching"]
    ctx.put("serve.batch_size_mean", batching["requests"] / max(batching["batches"], 1), "count")
    ctx.put("serve.coalesced_frac", batching["coalesced_fraction"], "frac")
    ctx.put("serve.rejected", server_metrics["requests"]["rejected"], "count")
    ctx.put("serve.worker_restarts", server_metrics["requests"]["worker_restarts"], "count")
    late = sum(r.late is not None and r.late > loadgen.LATE_LIMIT_S for r in opened)
    ctx.put("serve.open_late_frac", late / max(len(opened), 1), "frac")


# ----------------------------------------------------------------------
# train_fit
# ----------------------------------------------------------------------
class EpochClock(Callback):
    """Times each epoch from outside, checks its losses, stops on demand.

    With a ``tracer``, every second epoch runs with the hooks installed
    (installed before and removed after the timed interval), so traced and
    untraced epochs interleave and host drift cancels out of the overhead.
    """

    def __init__(self, stop, tracer: hooks.Tracer | None = None) -> None:
        self.stop = stop
        self.tracer = tracer
        self.durations: list[float] = []
        self.traced: list[bool] = []
        self.bad_epochs = 0

    def on_epoch_start(self, trainer, state) -> None:
        self._handle = None
        if self.tracer is not None and len(self.durations) % 2:
            self._handle = hooks.install(self.tracer)
            self._span = self.tracer.enter("train.epoch")
        self._start = time.monotonic()

    def on_epoch_end(self, trainer, state) -> None:
        self.durations.append(time.monotonic() - self._start)
        self.traced.append(self._handle is not None)
        if self._handle is not None:
            self.tracer.exit(self._span)
            hooks.uninstall(self._handle)
        if not all(math.isfinite(v) for v in state.last_metrics.values()):
            self.bad_epochs += 1
        if self.stop(self):
            state.stop_training = True


def train(ctx: Context) -> None:
    p = ctx.profile

    def setup():
        observed = load("citeseer", scale=p.train_scale, seed=0).graph
        # The epoch cap is never reached: an EpochClock ends each fit call.
        model = CPGAN(CPGANConfig(epochs=1_000_000, seed=0))
        model.fit(observed, callbacks=[EpochClock(lambda clock: True)])  # warm-up epoch
        return observed, model

    (observed, model), setup_s = repeat_setup(setup)
    ctx.put("setup_s", setup_s, "s")
    reset_peak_rss()
    # Quality is scored at a fixed epoch count, so a faster trainer changes
    # how long that takes but never the model that is scored.
    fixed = EpochClock(lambda clock: len(clock.durations) >= p.quality_epochs)
    model.fit(observed, callbacks=[fixed])
    fitted = [model.generate(seed=ctx.new_seed()) for __ in range(3)]
    check_graphs(ctx, fitted, observed.num_nodes, "posterior graph")
    losses = np.asarray(model.history.total, dtype=np.float64)
    edges = np.concatenate([g.edge_array() for g in fitted])
    ctx.digests["fit"] = hashlib.sha256(losses.tobytes() + edge_digest(edges).encode()).hexdigest()
    quality(ctx, observed, fitted)

    remaining = ctx.seconds - sum(fixed.durations)
    min_rest = 2 * p.min_traced_epochs if ctx.trace else 0
    rest = EpochClock(
        lambda clock: len(clock.durations) >= min_rest and sum(clock.durations) >= remaining,
        hooks.Tracer() if ctx.trace else None,
    )
    if min_rest or remaining > 0:
        model.fit(observed, callbacks=[rest])
    peak = peak_rss_mib()
    bad = fixed.bad_epochs + rest.bad_epochs
    ctx.attempted += len(fixed.durations) + len(rest.durations)
    ctx.failed += bad
    if bad:
        ctx.problems.append(f"training: {bad} epochs with a non-finite loss")
    if not ctx.trace:
        epochs = fixed.durations + rest.durations
        ctx.put("throughput_per_s", len(epochs) / sum(epochs), "1/s")
        put_latencies(ctx, epochs)
        ctx.put("peak_rss_mb", peak, "MiB")
    else:
        traced = [d for d, on in zip(rest.durations, rest.traced) if on]
        untraced = [d for d, on in zip(rest.durations, rest.traced) if not on]
        put_layers(ctx, rest.tracer.spans, sum(traced))
        ctx.put("trace_overhead_frac", statistics.median(traced) / statistics.median(untraced) - 1, "frac")


# ----------------------------------------------------------------------
WORKLOADS = {
    "stream_flat_100k": lambda ctx: stream(ctx, "sparse"),
    "stream_hier_100k": lambda ctx: stream(ctx, "hierarchical"),
    "serve_mixed": serve,
    "train_fit": train,
}

#: Every untraced run reports each of these, with this unit.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("nmi", "ratio"),
)

#: Every traced run reports each of these.  A layer a workload never
#: enters reads 0, which is why none of them is an absolute time.
PER_LAYER = (
    *((f"{name}.self_frac", "frac") for name in span_names()),
    ("trace.coverage_frac", "frac"),
    ("trace_overhead_frac", "frac"),
    ("graphs.assembly.repair_frac", "frac"),
    ("graphs.assembly.isolated_frac", "frac"),
    ("hier.tasks", "count"),
    ("hier.cross_pairs", "count"),
    ("community.louvain_calls", "count"),
    ("graphs.io.shards", "count"),
    ("graphs.io.bytes", "B"),
    *((f"slope.{stage}", "1") for stage in ("gen", *STAGES)),
    ("serve.http_frac", "frac"),
    ("serve.ipc_queue_frac", "frac"),
    ("serve.cache_hit_frac", "frac"),
    ("serve.response_kib_mean", "KiB"),
    ("serve.batch_size_mean", "count"),
    ("serve.coalesced_frac", "frac"),
    ("serve.rejected", "count"),
    ("serve.worker_restarts", "count"),
    ("serve.open_late_frac", "frac"),
    ("metrics.degree_mmd", "1"),
    ("metrics.clustering_mmd", "1"),
)
