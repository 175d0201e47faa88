"""Experiment runner and table formatting shared by the benchmarks.

Each ``benchmarks/bench_*.py`` file regenerates one table or figure of the
paper.  This module centralises:

* the model roster (constructors matched to the paper's rows),
* the scale / seed configuration via environment variables,
* running one (model, dataset) cell with the memory guard and aggregating
  mean ± std over seeds,
* paper-style row formatting.

Environment knobs:

``REPRO_SCALE``   — ``small`` (default), ``medium`` or ``full``: dataset
                    fraction and training epochs per cell.
``REPRO_SEEDS``   — generation seeds per cell (default 2).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..baselines import (
    BTER,
    BarabasiAlbert,
    ChungLu,
    CondGenR,
    DegreeCorrectedSBM,
    ErdosRenyi,
    Graphite,
    GraphRNNS,
    KroneckerGraph,
    MemoryBudgetExceeded,
    MixedMembershipSBM,
    NetGAN,
    SBMGNN,
    StochasticBlockModel,
    VGAE,
)
from ..baselines.base import GraphGenerator
from ..core import CPGAN, CPGANConfig, CheckpointError
from ..datasets import Dataset, load
from ..graphs import Graph
from ..metrics import (
    evaluate_community_preservation,
    evaluate_generation,
)
from ..train import Checkpoint, JsonlRunLog
from .memory import check_memory, scaled_budget

__all__ = [
    "BenchSettings",
    "settings_from_env",
    "make_model",
    "TRADITIONAL_MODELS",
    "LEARNED_MODELS",
    "ALL_MODELS",
    "CommunityCell",
    "QualityCell",
    "run_community_cell",
    "run_quality_cell",
    "format_mean_std",
]


@dataclass(frozen=True)
class BenchSettings:
    """Resolved bench configuration."""

    scale: float
    epochs: int
    seeds: int
    datasets: tuple[str, ...]
    label: str
    #: When set, every autograd-trained experiment writes per-epoch JSONL
    #: run telemetry (``repro.train.JsonlRunLog``) into this directory.
    run_log_dir: Path | None = None
    #: Checkpoint cadence (epochs) for resumable bench cells.  When > 0 and
    #: ``run_log_dir`` is set, every autograd-trained experiment writes a
    #: resumable checkpoint next to its run log and *resumes from it* on the
    #: next bench invocation — an interrupted bench run picks up its cells
    #: mid-training instead of restarting from scratch, and a completed
    #: cell's fit collapses to a no-op.
    checkpoint_every: int = 0

    @property
    def budget(self) -> int:
        return scaled_budget(self.scale)


_PRESETS = {
    # label: (dataset scale, CPGAN/learned epochs, datasets)
    "small": (0.06, 400, ("citeseer", "ppi", "point_cloud")),
    "medium": (0.12, 500, ("citeseer", "pubmed", "ppi", "point_cloud")),
    "full": (
        1.0,
        800,
        ("citeseer", "pubmed", "ppi", "point_cloud", "facebook", "google"),
    ),
}


def settings_from_env() -> BenchSettings:
    """Read REPRO_SCALE / REPRO_SEEDS into a :class:`BenchSettings`."""
    label = os.environ.get("REPRO_SCALE", "small")
    if label not in _PRESETS:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(_PRESETS)}")
    scale, epochs, datasets = _PRESETS[label]
    seeds = int(os.environ.get("REPRO_SEEDS", "2"))
    return BenchSettings(
        scale=scale, epochs=epochs, seeds=seeds, datasets=datasets, label=label
    )


# ----------------------------------------------------------------------
# model roster
# ----------------------------------------------------------------------

#: Bench-time CPGAN architecture: the paper's kernel size (128) and the
#: matching latent widths; noise_scale tempers the posterior σ at generation.
_CPGAN_BENCH = dict(
    hidden_dim=128,
    latent_dim=64,
    node_embedding_dim=48,
    noise_scale=0.2,
    # The paper's 1e-3 assumes thousands of GPU epochs; at the bench's CPU
    # epoch budget the equivalent optimisation point needs a higher rate.
    learning_rate=5e-3,
)


def make_model(name: str, settings: BenchSettings, **overrides) -> GraphGenerator:
    """Instantiate a roster model configured for the bench scale."""
    epochs = overrides.pop("epochs", settings.epochs)
    factories: dict[str, Callable[[], GraphGenerator]] = {
        "E-R": ErdosRenyi,
        "B-A": BarabasiAlbert,
        "Chung-Lu": ChungLu,
        "SBM": StochasticBlockModel,
        "DCSBM": DegreeCorrectedSBM,
        "BTER": BTER,
        "Kronecker": KroneckerGraph,
        "MMSB": MixedMembershipSBM,
        "VGAE": lambda: VGAE(epochs=min(epochs, 300), **overrides),
        "Graphite": lambda: Graphite(epochs=min(epochs, 300), **overrides),
        "SBMGNN": lambda: SBMGNN(epochs=min(epochs, 300), **overrides),
        "GraphRNN-S": lambda: GraphRNNS(epochs=max(min(epochs // 8, 40), 2), **overrides),
        "NetGAN": lambda: NetGAN(**overrides),
        "CondGen-R": lambda: CondGenR(epochs=min(epochs, 300), **overrides),
        "CPGAN": lambda: CPGAN(
            CPGANConfig(epochs=epochs, **{**_CPGAN_BENCH, **overrides})
        ),
        "CPGAN-C": lambda: CPGAN(
            CPGANConfig(
                epochs=epochs,
                decoder_mode="concat",
                **{**_CPGAN_BENCH, **overrides},
            )
        ),
        "CPGAN-noV": lambda: CPGAN(
            CPGANConfig(
                epochs=epochs,
                use_variational=False,
                **{**_CPGAN_BENCH, **overrides},
            )
        ),
        "CPGAN-noH": lambda: CPGAN(
            CPGANConfig(
                epochs=epochs,
                use_hierarchy=False,
                **{**_CPGAN_BENCH, **overrides},
            )
        ),
    }
    if name not in factories:
        raise KeyError(f"unknown model {name!r}")
    return factories[name]()


TRADITIONAL_MODELS = (
    "E-R", "B-A", "Chung-Lu", "SBM", "DCSBM", "BTER", "Kronecker", "MMSB",
)
LEARNED_MODELS = (
    "VGAE", "Graphite", "SBMGNN", "GraphRNN-S", "NetGAN", "CondGen-R", "CPGAN",
)
ALL_MODELS = TRADITIONAL_MODELS + LEARNED_MODELS


# ----------------------------------------------------------------------
# experiment cells
# ----------------------------------------------------------------------
@dataclass
class CommunityCell:
    """One Table III cell: NMI/ARI mean ± std over seeds (or OOM)."""

    nmi_mean: float = float("nan")
    nmi_std: float = 0.0
    ari_mean: float = float("nan")
    ari_std: float = 0.0
    oom: bool = False

    def row_fragment(self) -> str:
        if self.oom:
            return f"{'OOM':>11} {'OOM':>11}"
        return (
            f"{self.nmi_mean * 100:5.1f}±{self.nmi_std * 100:4.1f} "
            f"{self.ari_mean * 100:5.1f}±{self.ari_std * 100:4.1f}"
        )


@dataclass
class QualityCell:
    """One Table IV cell group: Deg/Clus/CPL/GINI/PWE (or OOM)."""

    degree: float = float("nan")
    clustering: float = float("nan")
    cpl: float = float("nan")
    gini: float = float("nan")
    pwe: float = float("nan")
    oom: bool = False

    def row_fragment(self) -> str:
        if self.oom:
            return "    ".join(["OOM"] * 5)
        return (
            f"{self.degree:.2e} {self.clustering:.2e} {self.cpl:7.2f} "
            f"{self.gini:.2e} {self.pwe:.2e}"
        )


def _cell_fit_kwargs(
    model: GraphGenerator,
    model_name: str,
    dataset: Dataset,
    settings: BenchSettings,
) -> dict:
    """Extra ``fit`` kwargs wiring telemetry and resumable checkpoints.

    Every ``uses_autograd_training`` model has the one learned-model
    signature ``fit(graph, *, callbacks=(), resume_from=None)``; it logs to
    ``<stem>.jsonl`` and, with ``settings.checkpoint_every > 0``, writes a
    resumable ``<stem>.ckpt.npz`` (final write at fit end) into
    ``run_log_dir`` — and resumes from that file when a previous bench run
    left it, instead of refitting from scratch.
    """
    if settings.run_log_dir is None or not model.uses_autograd_training:
        return {}
    log_dir = Path(settings.run_log_dir)
    log_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{model_name}__{dataset.name}__{settings.label}".replace("/", "-")
    callbacks = [
        JsonlRunLog(log_dir / f"{stem}.jsonl", meta={"model": model_name})
    ]
    kwargs: dict = {"callbacks": callbacks}
    if settings.checkpoint_every > 0:
        ckpt = log_dir / f"{stem}.ckpt.npz"
        callbacks.append(
            Checkpoint(ckpt, every=settings.checkpoint_every, at_fit_end=True)
        )
        if ckpt.exists():
            kwargs["resume_from"] = ckpt
    return kwargs


def _generate_with_guard(
    model_name: str,
    dataset: Dataset,
    settings: BenchSettings,
    seeds: Sequence[int],
) -> list[Graph] | None:
    """Fit one model on the dataset and generate one graph per seed.

    Returns None on (simulated) OOM.
    """
    model = make_model(model_name, settings)
    try:
        check_memory(model, dataset.graph.num_nodes, settings.budget)
        kwargs = _cell_fit_kwargs(model, model_name, dataset, settings)
        try:
            model.fit(dataset.graph, **kwargs)
        except CheckpointError:
            # A stale or incompatible cell checkpoint (scale/config changed
            # between bench runs, or a write was killed mid-archive): drop
            # it and refit the cell from scratch.
            stale = kwargs.pop("resume_from", None)
            if stale is None:
                raise
            Path(stale).unlink(missing_ok=True)
            model = make_model(model_name, settings)
            model.fit(dataset.graph, **kwargs)
        return [model.generate(seed=s) for s in seeds]
    except MemoryBudgetExceeded:
        return None


def run_community_cell(
    model_name: str, dataset: Dataset, settings: BenchSettings
) -> CommunityCell:
    """Table III protocol: Louvain NMI/ARI of generated vs observed."""
    graphs = _generate_with_guard(
        model_name, dataset, settings, range(settings.seeds)
    )
    if graphs is None:
        return CommunityCell(oom=True)
    nmis, aris = [], []
    for g in graphs:
        report = evaluate_community_preservation(dataset.graph, g)
        nmis.append(report.nmi)
        aris.append(report.ari)
    return CommunityCell(
        nmi_mean=float(np.mean(nmis)),
        nmi_std=float(np.std(nmis)),
        ari_mean=float(np.mean(aris)),
        ari_std=float(np.std(aris)),
    )


def run_quality_cell(
    model_name: str, dataset: Dataset, settings: BenchSettings
) -> QualityCell:
    """Table IV protocol: structural distances of generated vs observed."""
    graphs = _generate_with_guard(
        model_name, dataset, settings, range(settings.seeds)
    )
    if graphs is None:
        return QualityCell(oom=True)
    report = evaluate_generation(dataset.graph, graphs)
    return QualityCell(
        degree=report.degree,
        clustering=report.clustering,
        cpl=report.cpl,
        gini=report.gini,
        pwe=report.pwe,
    )


def format_mean_std(values: Sequence[float], scale: float = 1.0) -> str:
    """``mean±std`` with a display multiplier."""
    arr = np.asarray(list(values), dtype=float)
    return f"{arr.mean() * scale:.2f}±{arr.std() * scale:.2f}"


def load_dataset(name: str, settings: BenchSettings, seed: int = 0) -> Dataset:
    """Load one stand-in at the bench scale."""
    return load(name, scale=settings.scale, seed=seed)
