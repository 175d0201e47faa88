"""Save / load trained CPGAN models and resumable training checkpoints.

Two archive kinds share one on-disk container (a compressed ``.npz`` with a
JSON metadata blob):

* **model** (:func:`save_model` / :func:`load_model`) — a *fitted* CPGAN:
  configuration, parameter arrays of the four modules (in deterministic
  discovery order), the node embedding table, cached spectral features, the
  Louvain ground-truth hierarchy, and the posterior latent snapshots.
  Everything a consumer of the synthetic graphs needs, nothing more.
* **training checkpoint** (:func:`save_training_checkpoint` /
  :func:`restore_training_checkpoint`) — a *mid-training* snapshot: the
  model arrays plus the full optimizer moments, the learning-rate schedule,
  the training RNG's bit-generator state, the
  :class:`~repro.train.TrainState` traces and every training graph's edge
  list.  Restoring one and finishing the remaining epochs reproduces the
  uninterrupted run bit-for-bit.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .. import nn
from ..graphs import Graph
from .config import CPGANConfig
from .decoder import GraphDecoder
from .discriminator import Discriminator
from .encoder import LadderEncoder
from .model import CPGAN
from .multigraph import CPGANMultiGraph
from .variational import LatentDistributions, VariationalInference

__all__ = [
    "CheckpointError",
    "save_model",
    "load_model",
    "read_archive_meta",
    "save_training_checkpoint",
    "restore_training_checkpoint",
]

_FORMAT_VERSION = 1
_CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """A model or checkpoint archive is unreadable, corrupt, or incompatible.

    Everything the loaders can diagnose — a non-npz file, a missing metadata
    blob, a format-version mismatch, missing or misshapen parameter arrays,
    an unknown config field — surfaces as this one typed error with the
    offending path in the message, so consumers (the serving registry, the
    bench resume path, the CLI) can reject a bad archive gracefully instead
    of crashing on a raw ``KeyError``.  Subclasses :class:`ValueError` for
    backward compatibility with callers that caught that.
    """


# ----------------------------------------------------------------------
# shared archive container
# ----------------------------------------------------------------------
def write_archive(
    path: str | Path, arrays: dict[str, np.ndarray], meta: dict
) -> None:
    """One compressed npz holding named arrays plus a JSON metadata blob."""
    payload = dict(arrays)
    payload["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(Path(path), **payload)


def read_archive(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Load an archive written by :func:`write_archive` into memory.

    Raises :class:`CheckpointError` when the file exists but is not a valid
    archive (missing files still raise :class:`FileNotFoundError`).
    """
    path = Path(path)
    try:
        with np.load(path) as archive:
            meta = _archive_meta(path, archive)
            arrays = {
                name: archive[name].copy()
                for name in archive.files
                if name != "meta_json"
            }
    except (CheckpointError, FileNotFoundError):
        raise
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read archive {path}: {exc}") from exc
    return arrays, meta


def read_archive_meta(path: str | Path) -> dict:
    """Load only the JSON metadata blob of an archive (arrays stay on disk).

    ``np.load`` on an npz decompresses members lazily, so this is cheap even
    for large models — the serving registry uses it to describe archives
    without pulling their parameter arrays into memory.
    """
    path = Path(path)
    try:
        with np.load(path) as archive:
            return _archive_meta(path, archive)
    except (CheckpointError, FileNotFoundError):
        raise
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read archive {path}: {exc}") from exc


def _archive_meta(path: Path, archive) -> dict:
    if "meta_json" not in archive.files:
        raise CheckpointError(
            f"{path} is not a repro archive (no metadata blob)"
        )
    try:
        meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"{path} has a corrupt metadata blob: {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path} metadata is not a JSON object")
    return meta


def _module_arrays(model: CPGAN) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for prefix, module in _modules(model):
        for i, array in enumerate(module.state_dict()):
            arrays[f"{prefix}_{i}"] = array
    return arrays


def _load_module_arrays(model: CPGAN, arrays: dict[str, np.ndarray]) -> None:
    for prefix, module in _modules(model):
        state = []
        i = 0
        while f"{prefix}_{i}" in arrays:
            state.append(arrays[f"{prefix}_{i}"])
            i += 1
        module.load_state_dict(state)


# ----------------------------------------------------------------------
# fitted models
# ----------------------------------------------------------------------
def save_model(model: CPGAN, path: str | Path) -> None:
    """Serialise a fitted CPGAN to ``path`` (.npz)."""
    observed = model._require_fitted()
    arrays = _module_arrays(model)
    arrays["node_embedding"] = model.node_embedding.data
    arrays["features"] = model._features
    for i, mu in enumerate(model._latents.mus):
        arrays[f"latent_mu_{i}"] = mu
    for i, sigma in enumerate(model._latents.sigmas):
        arrays[f"latent_sigma_{i}"] = sigma
    for i, labels in enumerate(model._ground_truth or []):
        arrays[f"ground_truth_{i}"] = labels
    arrays["observed_edges"] = observed.edge_array()
    meta = {
        "version": _FORMAT_VERSION,
        "config": asdict(model.config),
        "num_levels": len(model._latents.mus),
        "num_ground_truth": len(model._ground_truth or []),
        "num_nodes": observed.num_nodes,
        "num_edges": observed.num_edges,
        # Fit provenance: where the archive came from, for the serving
        # registry's /models listing (absent in v0 archives — read via .get).
        "provenance": {
            "model": model.name,
            "epochs_trained": len(model.history.total),
            "seed": model.config.seed,
        },
    }
    write_archive(path, arrays, meta)


def load_model(path: str | Path) -> CPGAN:
    """Restore a CPGAN saved with :func:`save_model`.

    Raises :class:`CheckpointError` on any corrupt, truncated, or
    version-mismatched archive.
    """
    arrays, meta = read_archive(path)
    if meta.get("kind") == "training_checkpoint":
        raise CheckpointError(
            f"{path} is a training checkpoint, not a fitted model — "
            "resume it with fit(resume_from=...) instead"
        )
    if meta.get("version") != _FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported model format version {meta.get('version')}"
        )
    try:
        config = CPGANConfig(**meta["config"])
        model = CPGAN(config)
        _load_module_arrays(model, arrays)
        model.node_embedding = nn.Parameter(arrays["node_embedding"])
        model._features = arrays["features"]
        model._latents = LatentDistributions(
            mus=[arrays[f"latent_mu_{i}"] for i in range(meta["num_levels"])],
            sigmas=[
                arrays[f"latent_sigma_{i}"] for i in range(meta["num_levels"])
            ],
        )
        model._ground_truth = [
            arrays[f"ground_truth_{i}"]
            for i in range(meta["num_ground_truth"])
        ]
        observed = Graph.from_edges(
            meta["num_nodes"], arrays["observed_edges"]
        )
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(
            f"{path} is corrupt or incompatible: {exc!r}"
        ) from exc
    model._mark_fitted(observed)
    return model


# ----------------------------------------------------------------------
# training checkpoints
# ----------------------------------------------------------------------
def save_training_checkpoint(model: CPGAN, path: str | Path) -> None:
    """Snapshot an in-progress training session for bit-identical resume.

    Stores every training graph as ``graph_edges_{i}`` with its node count
    in ``graph_nodes`` (epochs round-robin over the set, so the full set is
    part of the resumable state); a plain :class:`CPGAN` fit is the
    one-graph case of the same layout.
    """
    session = model._session
    if session is None:
        raise RuntimeError(
            "no active training session — save_training_checkpoint only "
            "works during or after fit()"
        )
    arrays = _module_arrays(model)
    arrays["node_embedding"] = model.node_embedding.data
    arrays["features"] = model._features
    for i, labels in enumerate(model._ground_truth or []):
        arrays[f"ground_truth_{i}"] = labels
    for i, graph in enumerate(session.graphs):
        arrays[f"graph_edges_{i}"] = graph.edge_array()
    opt_meta = {}
    for name, opt in (("opt_gen", session.opt_gen), ("opt_disc", session.opt_disc)):
        state = opt.state_dict()
        for i, m in enumerate(state["m"]):
            arrays[f"{name}_m_{i}"] = m
        for i, v in enumerate(state["v"]):
            arrays[f"{name}_v_{i}"] = v
        opt_meta[name] = {"lr": state["lr"], "t": state["t"]}
    meta = {
        "version": _CHECKPOINT_VERSION,
        "kind": "training_checkpoint",
        "config": asdict(model.config),
        "num_ground_truth": len(model._ground_truth or []),
        "graph_nodes": [graph.num_nodes for graph in session.graphs],
        "optimizers": opt_meta,
        "sched": session.sched.state_dict(),
        "rng_state": session.rng.bit_generator.state,
        "train_state": session.state.snapshot(),
    }
    write_archive(path, arrays, meta)


def restore_training_checkpoint(
    model: CPGAN, path: str | Path, graph=None
) -> None:
    """Rebuild ``model``'s training session from a checkpoint, in place.

    The checkpoint's configuration wins (modules are rebuilt from it); pass
    ``graph`` — one Graph or the training graph sequence — to verify it
    matches the training set stored in the checkpoint, or omit it to
    restore the set from the stored edge lists.  A checkpoint of more than
    one graph resumes only into a
    :class:`~repro.core.multigraph.CPGANMultiGraph`.
    """
    arrays, meta = read_archive(path)
    if meta.get("kind") != "training_checkpoint":
        raise CheckpointError(f"{path} is not a training checkpoint")
    if meta.get("version") != _CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {meta.get('version')}"
        )
    try:
        graph_nodes = meta["graph_nodes"]
        if len(graph_nodes) > 1 and not isinstance(model, CPGANMultiGraph):
            raise CheckpointError(
                f"{path} is a CPGANMultiGraph checkpoint — resume it with "
                "CPGANMultiGraph().fit(resume_from=...)"
            )
        graphs = [
            Graph.from_edges(n, arrays[f"graph_edges_{i}"])
            for i, n in enumerate(graph_nodes)
        ]
        if graph is not None:
            passed = [graph] if isinstance(graph, Graph) else list(graph)
            if len(passed) != len(graphs) or any(
                p.num_nodes != g.num_nodes
                or not np.array_equal(p.edge_array(), g.edge_array())
                for p, g in zip(passed, graphs)
            ):
                raise CheckpointError(
                    f"graphs passed to resume do not match the training "
                    f"set stored in {path}"
                )
            graphs = passed
        config = CPGANConfig(**meta["config"])
        model.config = config
        init_rng = np.random.default_rng(config.seed)
        model.encoder = LadderEncoder(config, init_rng)
        model.vi = VariationalInference(config, init_rng)
        model.decoder = GraphDecoder(config, init_rng)
        model.discriminator = Discriminator(config, init_rng)
        _load_module_arrays(model, arrays)
        model.node_embedding = nn.Parameter(arrays["node_embedding"])
        model._features = arrays["features"]
        model._ground_truth = [
            arrays[f"ground_truth_{i}"]
            for i in range(meta["num_ground_truth"])
        ]
        session = model._build_session(
            graphs, np.random.default_rng(config.seed)
        )
        session.rng.bit_generator.state = meta["rng_state"]
        for name, opt in (
            ("opt_gen", session.opt_gen),
            ("opt_disc", session.opt_disc),
        ):
            opt.load_state_dict(
                {
                    "lr": meta["optimizers"][name]["lr"],
                    "t": meta["optimizers"][name]["t"],
                    "m": _indexed(arrays, f"{name}_m_"),
                    "v": _indexed(arrays, f"{name}_v_"),
                }
            )
        session.sched.load_state_dict(meta["sched"])
        session.state.restore(meta["train_state"])
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(
            f"{path} is corrupt or incompatible: {exc!r}"
        ) from exc
    model._session = session


def _indexed(arrays: dict[str, np.ndarray], prefix: str) -> list[np.ndarray]:
    out = []
    i = 0
    while f"{prefix}{i}" in arrays:
        out.append(arrays[f"{prefix}{i}"])
        i += 1
    return out


def _modules(model: CPGAN):
    return (
        ("encoder", model.encoder),
        ("vi", model.vi),
        ("decoder", model.decoder),
        ("discriminator", model.discriminator),
    )
