"""Hot-path micro-benchmark: training epoch, generation, MMD evaluation.

The paper's headline claim is *efficiency* (Tables 7-9: CPGAN trains and
generates orders of magnitude faster than GraphRNN/NetGAN), so the three
code paths that dominate wall-clock time are tracked as first-class,
regression-gated quantities:

* ``train_epoch`` — one full CPGAN generator + discriminator step on the
  synthetic Citeseer stand-in (autograd forward/backward + optimizer step);
* ``generation``  — prior-mode sampling of a graph of the fitted size
  (decode + categorical/top-k assembly, §III-G);
* ``generation_large`` — the same pipeline asked for a graph ``6x`` the
  fitted size: the regime the candidate-pruned sparse kernel exists for,
  where a dense n×n decode would dominate;
* ``generation_xlarge`` — streaming generation at production scale
  (100k nodes by default): ``generate_to_file`` into a sharded edge
  directory with float32 scoring and the factored repair sampler, run
  under ``tracemalloc`` with a fixed peak-memory budget.  The budget is
  asserted inside the timed region, so both a baseline measurement and
  ``--check`` fail loudly if streaming ever starts materialising
  super-linear intermediates;
* ``generation_hier`` — the hierarchical pipeline at the *same* node
  count, dtype, sampler and memory budget as ``generation_xlarge``:
  community-parallel generation through ``repro.hier`` (plan →
  super-graph → per-community sparse top-k → factored stitching), so the
  committed baseline records the hierarchical-vs-flat wall-clock ratio
  at equal scale;
* ``generation_xxlarge`` — the million-node cell: the same streaming
  pipeline at 1M nodes into CSR shards, under its own fixed tracemalloc
  budget.  This is the regime the factored rejection sampler exists for —
  a dense repair pass would be O(isolated x n) score-row materialisations;
* ``mmd_eval``    — the GraphRNN-protocol degree + clustering MMD between
  two graph samples (the ``Deg.``/``Clus.`` columns of Table IV).

The streaming cells also report the repair pass's accounting (wall-clock,
isolated count, proposal/acceptance totals), counted by one
:func:`repro.trace.counting` block around the timed repetitions, so a
sampler-efficiency regression is visible in the committed baseline even
when total wall-clock hides it.

Timings are written to ``BENCH_hotpath.json`` at the repository root by
``benchmarks/bench_hotpath.py``.  Because absolute seconds are machine
dependent, every timing is also reported *normalized* by a NumPy matmul
calibration constant.  The calibration is re-measured right after every
timed repetition, interleaved with them — a single startup calibration
on a cool, idle CPU paired with timings taken minutes later on a hot one
inflates every normalized value, and a host that slows down for a while
slows the calibration next to the repetition as well.  A cell's
``normalized`` value is the median over its repetitions of
``seconds / calibration``, so one repetition hit by a scheduler stall
cannot move it; ``mean_s``/``std_s`` still report the raw seconds.
:mod:`repro.bench.regression` compares normalized values, so the
committed baseline is meaningful across machines.
"""

from __future__ import annotations

import platform
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..core import CPGAN, CPGANConfig
from ..datasets import load
from ..graphs import Graph
from ..metrics import clustering_mmd, degree_mmd
from ..trace import counting
from ..train import Callback, EpochTimer, Trainer, TrainState
from .memory import measure_peak_memory

__all__ = [
    "HotpathSettings",
    "QUICK_SETTINGS",
    "DEFAULT_SETTINGS",
    "DEFAULT_BASELINE_PATH",
    "SCHEMA_VERSION",
    "calibrate_matmul",
    "run_hotpath_bench",
]

SCHEMA_VERSION = 1

#: Node-count multiplier for the ``generation_large`` hot path.
_LARGE_NODE_FACTOR = 6

#: Committed baseline location (repository root).
DEFAULT_BASELINE_PATH = Path(__file__).resolve().parents[3] / "BENCH_hotpath.json"


@dataclass(frozen=True)
class HotpathSettings:
    """Knobs for one harness run."""

    repeats: int = 5          # timed repetitions per hot path
    scale: float = 0.06       # Citeseer stand-in fraction (~200 nodes)
    mmd_graphs: int = 6       # graphs per side for the MMD timing
    seed: int = 0
    threads: int = 1          # generation_threads for the sparse top-k
    #   kernel on the generation/generation_large paths; the output graphs
    #   are bit-identical at every value, so this is a pure wall-clock axis
    repair_sampler: str = "dense"  # isolated-node repair draw for the
    #   generation/generation_large paths; "dense" keeps those cells
    #   bit-comparable with the historical baseline (contract v1)
    xlarge_nodes: int = 100_000   # generation_xlarge target size
    xlarge_repeats: int = 1       # its own repeat count — one rep is
    #   seconds-to-minutes at full scale, and the normalized ratio
    #   tolerates single-rep noise
    xlarge_dtype: str = "float32"  # the scaling precision under test;
    #   CI additionally gates the float64 streaming path via --xlarge-dtype
    xlarge_sampler: str = "factored"  # repair sampler for the streaming
    #   cells — factored is the scaling configuration (a dense repair at
    #   100k+ nodes materialises one score row per isolated node);
    #   CI additionally gates dense via --xlarge-sampler
    xlarge_shard_edges: int = 100_000  # edges per output shard
    xlarge_budget_mb: int = 512   # tracemalloc peak budget — FIXED, does not
    #   scale with xlarge_nodes; exceeding it raises inside the timed region
    hier_workers: int = 1  # worker threads for the generation_hier cell's
    #   per-community tasks; output is bit-identical at every value, so
    #   like `threads` this is a pure wall-clock axis.  The cell itself
    #   reuses the xlarge knobs (nodes/dtype/sampler/shards/budget) so the
    #   hierarchical and flat streaming cells compare at equal node counts.
    xxlarge_nodes: int = 1_000_000  # generation_xxlarge: the million-node cell
    xxlarge_repeats: int = 1
    xxlarge_dtype: str = "float32"
    xxlarge_shard_edges: int = 1_000_000  # edges per CSR shard
    xxlarge_budget_mb: int = 4608  # fixed ceiling for the 1M stream
    #   (measured peak 1543 MiB at 1M nodes with the row-chunked feature
    #   decode, 2-vCPU host)


DEFAULT_SETTINGS = HotpathSettings()

#: Tiny configuration for smoke tests and the regression gate's self-test:
#: seven repeats of the millisecond cells (their median is what the gate
#: reads; one repeat let a single stall fail it), a ~66-node graph, three
#: graphs per MMD side.  The xlarge
#: path still runs (the regression gate requires every tracked hot path in
#: every fresh run) but at a small node count; the memory budget stays at
#: its production value — it is a fixed ceiling, not a scaled one.
QUICK_SETTINGS = HotpathSettings(
    repeats=7,
    scale=0.02,
    mmd_graphs=3,
    xlarge_nodes=2_500,
    xlarge_repeats=1,
    xlarge_shard_edges=2_000,
    xxlarge_nodes=2_000,
    xxlarge_repeats=1,
    xxlarge_shard_edges=1_500,
)


def calibrate_matmul(size: int = 192, repeats: int = 5) -> float:
    """Seconds for one ``size``x``size`` float64 matmul (best of ``repeats``).

    Taking the minimum gives the least-noisy estimate of raw machine speed;
    dividing hot-path means by this constant yields a dimensionless number
    comparable across hosts.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(size, size))
    b = rng.normal(size=(size, size))
    a @ b  # warm up BLAS thread pools / caches
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return best


#: One timed repetition: ``(seconds, calibration_s)``, the calibration
#: measured right after the repetition.
_Rep = tuple[float, float]


def _timeit(fn: Callable[[], None], repeats: int) -> list[_Rep]:
    """Time ``repeats`` calls of ``fn``, each followed by a calibration."""
    reps = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        seconds = time.perf_counter() - start
        reps.append((seconds, calibrate_matmul()))
    return reps


class _CalibrateEachEpoch(Callback):
    """Interleaves a matmul calibration after every training epoch (the
    trainer's epoch timer covers the epoch function only)."""

    def __init__(self) -> None:
        self.values: list[float] = []

    def on_epoch_end(self, trainer: Trainer, state: TrainState) -> None:
        self.values.append(calibrate_matmul())


def _summary(reps: list[_Rep]) -> dict[str, float]:
    """A cell's timing fields; ``normalized`` is the median per-rep ratio."""
    seconds = np.array([s for s, __ in reps])
    calibration = np.array([c for __, c in reps])
    return {
        "mean_s": float(seconds.mean()),
        "std_s": float(seconds.std()),
        "calibration_s": float(np.median(calibration)),
        "normalized": float(np.median(seconds / calibration)),
    }


def _bench_config(settings: HotpathSettings) -> CPGANConfig:
    return CPGANConfig(epochs=1, seed=settings.seed)


def _fitted_model(graph: Graph, settings: HotpathSettings) -> CPGAN:
    """One-epoch fit: initialises features, embedding and ground truth."""
    model = CPGAN(_bench_config(settings))
    model.fit(graph)
    return model


def _time_train_epoch(graph: Graph, settings: HotpathSettings) -> list[_Rep]:
    model = _fitted_model(graph, settings)
    # Continue the model's live training session through the shared Trainer
    # and read its built-in per-epoch wall times; skip=1 drops the warm-up
    # epoch (first call pays sparse-structure setup costs).  A fresh
    # TrainState keeps the bench epochs out of the model's history.
    timer = EpochTimer(skip=1)
    calibrate = _CalibrateEachEpoch()
    Trainer(max_epochs=settings.repeats + 1, callbacks=[timer, calibrate]).fit(
        model._epoch_fn(model._session), state=TrainState()
    )
    return list(zip(timer.durations, calibrate.values[1:]))


def _time_generation(
    graph: Graph, settings: HotpathSettings, node_factor: int = 1
) -> list[_Rep]:
    model = _fitted_model(graph, settings)
    # Per-call config snapshot (the thread-safe serving entry) instead of
    # mutating the shared model.config.
    cfg = model.generation_config(
        latent_source="prior",
        generation_threads=settings.threads,
        repair_sampler=settings.repair_sampler,
    )
    num_nodes = graph.num_nodes * node_factor
    counter = {"seed": 0}

    def generate() -> None:
        counter["seed"] += 1
        model.generate(seed=counter["seed"], num_nodes=num_nodes, config=cfg)

    generate()  # warm up
    return _timeit(generate, settings.repeats)


def _time_generation_streaming(
    graph: Graph,
    settings: HotpathSettings,
    *,
    name: str,
    nodes: int,
    repeats: int,
    dtype: str,
    sampler: str,
    shard_edges: int,
    shard_format: str,
    budget_mb: int,
    generation_mode: str = "sparse",
    hier_workers: int = 1,
) -> tuple[list[_Rep], dict[str, float]]:
    """Streaming generation at ``nodes`` under a fixed memory budget.

    The shared timer behind ``generation_xlarge`` and
    ``generation_xxlarge``: times ``generate_to_file`` into a sharded edge
    directory — the production streaming path — with ``tracemalloc``
    active for the whole timed region.  The peak is checked against
    ``budget_mb`` on every repetition and a breach raises, so the budget
    is enforced both when recording a baseline and under ``--check``.
    tracemalloc's per-allocation hook is part of the measured workload on
    both sides of a comparison, so normalized ratios stay honest.

    The extras dict carries the tracemalloc peak plus the repair pass's
    accounting summed over the repetitions (sampler name, wall-clock,
    isolated/proposal/acceptance counts).
    """
    model = _fitted_model(graph, settings)
    cfg = model.generation_config(
        latent_source="prior",
        generation_threads=settings.threads,
        generation_dtype=dtype,
        repair_sampler=sampler,
        generation_mode=generation_mode,
        hier_workers=hier_workers,
    )
    budget_bytes = budget_mb * 2**20
    counter = {"seed": 0}
    peaks: list[int] = []
    tmp = Path(tempfile.mkdtemp(prefix=f"repro-bench-{name}-"))
    try:

        def generate() -> None:
            counter["seed"] += 1
            out = tmp / f"run_{counter['seed']}"
            __, peak = measure_peak_memory(
                lambda: model.generate_to_file(
                    out,
                    seed=counter["seed"],
                    num_nodes=nodes,
                    config=cfg,
                    shard_edges=shard_edges,
                    shard_format=shard_format,
                )
            )
            peaks.append(peak)
            if peak > budget_bytes:
                raise RuntimeError(
                    f"{name} peak memory {peak / 2**20:.1f} MiB "
                    f"exceeds the {budget_mb} MiB budget "
                    f"(nodes={nodes}, dtype={dtype}, sampler={sampler})"
                )
            shutil.rmtree(out)

        with counting() as counts:
            reps = _timeit(generate, repeats)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    extras: dict[str, float] = {
        "peak_mb": max(peaks) / 2**20,
        "budget_mb": float(budget_mb),
        "repair_sampler": sampler,
    }
    # Every streaming cell runs the repair pass; the dense sampler simply
    # never counts proposals.
    for key in (
        "repair_s",
        "repair_isolated",
        "repair_drawn",
        "repair_proposals",
        "repair_accepted",
        "repair_fallback",
    ):
        extras[key] = counts.get(key, 0)
    for key in (
        "hier_communities",
        "hier_cross_pairs",
        "hier_intra_edges",
        "hier_cross_edges",
        "hier_budget_clipped",
        "cross_proposals",
        "cross_filled",
    ):
        if key in counts:
            extras[key] = counts[key]
    return reps, extras


def _time_mmd_eval(settings: HotpathSettings) -> list[_Rep]:
    observed = [
        load("citeseer", scale=settings.scale, seed=s).graph
        for s in range(settings.mmd_graphs)
    ]
    generated = [
        load("citeseer", scale=settings.scale, seed=100 + s).graph
        for s in range(settings.mmd_graphs)
    ]

    def evaluate() -> None:
        degree_mmd(observed, generated)
        clustering_mmd(observed, generated)

    evaluate()  # warm up
    return _timeit(evaluate, settings.repeats)


def run_hotpath_bench(settings: HotpathSettings | None = None) -> dict:
    """Run all three hot paths and return the JSON-ready result document."""
    settings = settings or DEFAULT_SETTINGS
    calibration = calibrate_matmul()
    graph = load("citeseer", scale=settings.scale, seed=settings.seed).graph

    hot_paths: dict[str, dict[str, float]] = {}
    timers: dict[str, Callable[[], tuple]] = {
        "train_epoch": lambda: _time_train_epoch(graph, settings),
        "generation": lambda: _time_generation(graph, settings),
        "generation_large": lambda: _time_generation(
            graph, settings, node_factor=_LARGE_NODE_FACTOR
        ),
        "generation_xlarge": lambda: _time_generation_streaming(
            graph,
            settings,
            name="generation_xlarge",
            nodes=settings.xlarge_nodes,
            repeats=settings.xlarge_repeats,
            dtype=settings.xlarge_dtype,
            sampler=settings.xlarge_sampler,
            shard_edges=settings.xlarge_shard_edges,
            shard_format="edgelist",
            budget_mb=settings.xlarge_budget_mb,
        ),
        "generation_hier": lambda: _time_generation_streaming(
            graph,
            settings,
            name="generation_hier",
            nodes=settings.xlarge_nodes,
            repeats=settings.xlarge_repeats,
            dtype=settings.xlarge_dtype,
            sampler=settings.xlarge_sampler,
            shard_edges=settings.xlarge_shard_edges,
            shard_format="edgelist",
            budget_mb=settings.xlarge_budget_mb,
            generation_mode="hierarchical",
            hier_workers=settings.hier_workers,
        ),
        "generation_xxlarge": lambda: _time_generation_streaming(
            graph,
            settings,
            name="generation_xxlarge",
            nodes=settings.xxlarge_nodes,
            repeats=settings.xxlarge_repeats,
            dtype=settings.xxlarge_dtype,
            sampler=settings.xlarge_sampler,
            shard_edges=settings.xxlarge_shard_edges,
            shard_format="csr",
            budget_mb=settings.xxlarge_budget_mb,
        ),
        "mmd_eval": lambda: _time_mmd_eval(settings),
    }
    for name, timer in timers.items():
        # Timers return their repetitions, the streaming ones with a dict
        # of extra fields (the tracemalloc peak, the repair accounting).
        result = timer()
        reps, extras = result if isinstance(result, tuple) else (result, {})
        hot_paths[name] = {**_summary(reps), **extras}

    return {
        "schema": SCHEMA_VERSION,
        "settings": asdict(settings),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "calibration_matmul_s": calibration,
        "hot_paths": hot_paths,
    }
