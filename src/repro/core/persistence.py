"""Save / load trained CPGAN models and resumable training checkpoints.

Two archive kinds share one on-disk container (a compressed ``.npz`` with a
JSON metadata blob, written crash-safe by :func:`write_archive`):

* **model** (:func:`save_model` / :func:`load_model`) — a *fitted* CPGAN:
  configuration, parameter arrays of the four modules (in deterministic
  discovery order), the node embedding table, cached spectral features, the
  Louvain ground-truth hierarchy, and the posterior latent snapshots.
  Everything a consumer of the synthetic graphs needs, nothing more.
* **training checkpoint** — a *mid-training* snapshot of any learned model
  (:func:`write_training_checkpoint` / :func:`read_training_checkpoint` /
  :func:`restore_session`): training graphs, Adam moments, RNG state and
  :class:`~repro.train.TrainState` traces, plus the model's own arrays —
  CPGAN's via :func:`save_training_checkpoint`, a baseline's via
  ``repro.baselines.learned.common.run_training``.  Resuming one
  reproduces the uninterrupted run bit-for-bit.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import asdict
from pathlib import Path
from typing import Mapping

import numpy as np

from .. import nn
from ..graphs import Graph
from ..train import TrainState
from .config import CPGANConfig
from .model import CPGAN
from .multigraph import CPGANMultiGraph
from .variational import LatentDistributions

__all__ = [
    "CheckpointError",
    "save_model",
    "load_model",
    "read_archive_meta",
    "save_training_checkpoint",
    "restore_training_checkpoint",
    "write_training_checkpoint",
    "read_training_checkpoint",
    "restore_session",
    "indexed_arrays",
]

_FORMAT_VERSION = 1
_CHECKPOINT_VERSION = 2

#: Former CPGANConfig fields that older archives and checkpoints still
#: store; loading drops them.  Any other unknown key is still an error.
_RETIRED_CONFIG_KEYS = frozenset({"candidate_factor"})


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
    """One compressed npz holding named arrays plus a JSON metadata blob.

    Crash-safe: written to a temp file beside ``path``, fsynced, then
    renamed over it.  Like ``np.savez``, appends a missing ``.npz``.
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    payload = dict(arrays)
    payload["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as handle:
            np.savez_compressed(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_archive(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Load an archive written by :func:`write_archive` into memory.

    Raises :class:`CheckpointError` when the file exists but is not a valid
    archive (missing files still raise :class:`FileNotFoundError`).
    """

    def read(path: Path, archive) -> tuple[dict[str, np.ndarray], dict]:
        names = [name for name in archive.files if name != "meta_json"]
        arrays = {name: archive[name].copy() for name in names}
        return arrays, _archive_meta(path, archive)

    return _open_archive(path, read)


def read_archive_meta(path: str | Path) -> dict:
    """Load only the JSON metadata blob of an archive (arrays stay on disk).

    ``np.load`` on an npz decompresses members lazily, so this is cheap even
    for large models — the serving registry uses it to describe archives
    without pulling their parameter arrays into memory.
    """
    return _open_archive(path, _archive_meta)


def _open_archive(path: str | Path, read):
    """``read(path, npz)``; any failure to parse the file is a CheckpointError.

    Damaged bytes fail below ``np.load`` as ``BadZipFile``, ``zlib.error``,
    ``EOFError``, ``OSError``, ``NotImplementedError`` (compression method),
    ``RuntimeError`` (encryption flag), ..., hence the broad catch.
    """
    path = Path(path)
    try:
        with np.load(path) as archive:
            return read(path, archive)
    except (CheckpointError, FileNotFoundError):
        raise
    except Exception as exc:
        raise CheckpointError(f"cannot read archive {path}: {exc!r}") from exc


def _archive_meta(path: Path, archive) -> dict:
    if "meta_json" not in archive.files:
        raise CheckpointError(
            f"{path} is not a repro archive (no metadata blob)"
        )
    meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path} metadata is not a JSON object")
    return meta


def _model_arrays(model: CPGAN) -> dict[str, np.ndarray]:
    """Module weights, embedding, features and ground truth."""
    arrays: dict[str, np.ndarray] = {}
    for prefix, module in _modules(model):
        for i, array in enumerate(module.state_dict()):
            arrays[f"{prefix}_{i}"] = array
    arrays["node_embedding"] = model.node_embedding.data
    arrays["features"] = model._features
    for i, labels in enumerate(model._ground_truth or []):
        arrays[f"ground_truth_{i}"] = labels
    return arrays


def _load_model_arrays(
    model: CPGAN, arrays: dict[str, np.ndarray], meta: dict
) -> None:
    for prefix, module in _modules(model):
        module.load_state_dict(indexed_arrays(arrays, f"{prefix}_"))
    model.node_embedding = nn.Parameter(arrays["node_embedding"])
    model._features = arrays["features"]
    model._ground_truth = [
        arrays[f"ground_truth_{i}"] for i in range(meta["num_ground_truth"])
    ]


# ----------------------------------------------------------------------
# fitted models
# ----------------------------------------------------------------------
def save_model(model: CPGAN, path: str | Path) -> None:
    """Serialise a fitted CPGAN to ``path`` (.npz)."""
    observed = model._require_fitted()
    arrays = _model_arrays(model)
    for i, mu in enumerate(model._latents.mus):
        arrays[f"latent_mu_{i}"] = mu
    for i, sigma in enumerate(model._latents.sigmas):
        arrays[f"latent_sigma_{i}"] = sigma
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


def _config_from_meta(meta: Mapping) -> CPGANConfig:
    """The stored config, minus :data:`_RETIRED_CONFIG_KEYS`."""
    config = dict(meta["config"])
    kept = config.keys() - _RETIRED_CONFIG_KEYS
    return CPGANConfig(**{key: config[key] for key in kept})


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
        model = CPGAN(_config_from_meta(meta))
        _load_model_arrays(model, arrays, meta)
        levels = range(meta["num_levels"])
        model._latents = LatentDistributions(
            mus=[arrays[f"latent_mu_{i}"] for i in levels],
            sigmas=[arrays[f"latent_sigma_{i}"] for i in levels],
        )
        observed = Graph.from_edges(
            meta["num_nodes"], arrays["observed_edges"]
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(
            f"{path} is corrupt or incompatible: {exc!r}"
        ) from exc
    model._mark_fitted(observed)
    return model


# ----------------------------------------------------------------------
# training checkpoints
# ----------------------------------------------------------------------
def write_training_checkpoint(
    path: str | Path,
    graphs: list[Graph],
    optimizers: Mapping[str, nn.Adam],
    rng: np.random.Generator,
    state: TrainState,
    arrays: dict[str, np.ndarray],
    meta: dict,
) -> None:
    """Write a training checkpoint: the model's own ``arrays`` and ``meta``
    plus the shared part — ``graph_edges_{i}`` / ``graph_nodes``, each
    optimizer's ``{name}_m_{i}`` / ``{name}_v_{i}`` with its lr and step
    count, the RNG's bit-generator state and the TrainState snapshot."""
    arrays = dict(arrays)
    for i, graph in enumerate(graphs):
        arrays[f"graph_edges_{i}"] = graph.edge_array()
    opt_meta = {}
    for name, opt in optimizers.items():
        opt_state = opt.state_dict()
        for i, m in enumerate(opt_state["m"]):
            arrays[f"{name}_m_{i}"] = m
        for i, v in enumerate(opt_state["v"]):
            arrays[f"{name}_v_{i}"] = v
        opt_meta[name] = {"lr": opt_state["lr"], "t": opt_state["t"]}
    meta = {
        "version": _CHECKPOINT_VERSION,
        "kind": "training_checkpoint",
        **meta,
        "graph_nodes": [graph.num_nodes for graph in graphs],
        "optimizers": opt_meta,
        "rng_state": rng.bit_generator.state,
        "train_state": state.snapshot(),
    }
    write_archive(path, arrays, meta)


def read_training_checkpoint(
    path: str | Path, graph=None
) -> tuple[dict[str, np.ndarray], dict, list[Graph]]:
    """Load a training checkpoint as ``(arrays, meta, training graphs)``.

    Checks the archive kind and version.  ``graph`` — one Graph or a
    sequence — must match the stored training set and is returned in its
    place; omit it to rebuild the set from the stored edge lists.
    """
    arrays, meta = read_archive(path)
    if meta.get("kind") != "training_checkpoint":
        raise CheckpointError(f"{path} is not a training checkpoint")
    if meta.get("version") != _CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {meta.get('version')}"
        )
    try:
        graphs = [
            Graph.from_edges(n, arrays[f"graph_edges_{i}"])
            for i, n in enumerate(meta["graph_nodes"])
        ]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(
            f"{path} is corrupt or incompatible: {exc!r}"
        ) from exc
    if graph is None:
        return arrays, meta, graphs
    passed = [graph] if isinstance(graph, Graph) else list(graph)
    if passed != graphs:
        raise CheckpointError(
            f"graphs passed to resume do not match the training set "
            f"stored in {path}"
        )
    return arrays, meta, passed


def restore_session(
    path: str | Path,
    arrays: dict[str, np.ndarray],
    meta: dict,
    optimizers: Mapping[str, nn.Adam],
    rng: np.random.Generator,
    state: TrainState,
) -> None:
    """Restore the shared part of a checkpoint in place: optimizer state,
    the RNG's bit-generator state and the TrainState."""
    try:
        for name, opt in optimizers.items():
            opt.load_state_dict(
                {
                    **meta["optimizers"][name],
                    "m": indexed_arrays(arrays, f"{name}_m_"),
                    "v": indexed_arrays(arrays, f"{name}_v_"),
                }
            )
        rng.bit_generator.state = meta["rng_state"]
        state.restore(meta["train_state"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(
            f"{path} is corrupt or incompatible: {exc!r}"
        ) from exc


def save_training_checkpoint(model: CPGAN, path: str | Path) -> None:
    """Snapshot an in-progress CPGAN training session for bit-identical
    resume (a plain :class:`CPGAN` fit is the one-graph training set)."""
    session = model._session
    if session is None:
        raise RuntimeError(
            "no active training session — save_training_checkpoint only "
            "works during or after fit()"
        )
    meta = {
        "config": asdict(model.config),
        "num_ground_truth": len(model._ground_truth or []),
        "sched": session.sched.state_dict(),
    }
    write_training_checkpoint(
        path, session.graphs, session.optimizers, session.rng,
        session.state, _model_arrays(model), meta,
    )


def restore_training_checkpoint(
    model: CPGAN, path: str | Path, graph=None
) -> None:
    """Rebuild ``model``'s training session from a checkpoint, in place.

    The checkpoint's configuration wins (modules are rebuilt from it); see
    :func:`read_training_checkpoint` for ``graph``.  A checkpoint of more
    than one graph resumes only into a
    :class:`~repro.core.multigraph.CPGANMultiGraph`.
    """
    arrays, meta, graphs = read_training_checkpoint(path, graph)
    if "model" in meta:
        raise CheckpointError(
            f"{path} is a {meta['model']} checkpoint, not a CPGAN one"
        )
    if len(graphs) > 1 and not isinstance(model, CPGANMultiGraph):
        raise CheckpointError(
            f"{path} is a CPGANMultiGraph checkpoint — resume it with "
            "CPGANMultiGraph().fit(resume_from=...)"
        )
    try:
        # Resuming replaces the whole model, starting from a fresh one with
        # the checkpoint's config.
        model.__init__(_config_from_meta(meta))
        _load_model_arrays(model, arrays, meta)
        session = model._build_session(
            graphs, np.random.default_rng(model.config.seed)
        )
        session.sched.load_state_dict(meta["sched"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(
            f"{path} is corrupt or incompatible: {exc!r}"
        ) from exc
    restore_session(
        path, arrays, meta, session.optimizers, session.rng, session.state
    )
    model._session = session


def indexed_arrays(
    arrays: dict[str, np.ndarray], prefix: str
) -> list[np.ndarray]:
    """``arrays[f"{prefix}0"]``, ``arrays[f"{prefix}1"]``, ... up to a gap."""
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
