"""Shared building blocks of the learning-based baselines.

Every deep baseline in the paper's comparison (VGAE, Graphite, SBMGNN,
CondGen) follows the same skeleton: a GCN encoder over the observed graph,
a dense edge decoder, and full-graph training with a class-balanced BCE.
The dense n×n target/score matrices are the reason these models OOM on the
paper's large datasets — the ``dense_square_bytes`` helper feeds that same
O(n²) accounting into the memory model of the benches.

All baseline epoch loops run through :func:`run_training`, the thin wrapper
over the shared :class:`repro.train.Trainer` — one epoch-loop implementation
(timing, telemetry, callbacks) and one resumable checkpoint format (CPGAN's,
in :mod:`repro.core.persistence`) instead of one per model.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from ... import nn
from ...train import Callback, Trainer, TrainState

__all__ = [
    "GCNEncoder",
    "balanced_bce_weight",
    "dense_square_bytes",
    "baseline_parameters",
    "run_training",
]


def baseline_parameters(model) -> list[nn.Parameter]:
    """All trainable parameters of a baseline, in deterministic order.

    Baselines are plain objects (not :class:`~repro.nn.Module`) holding a
    mix of :class:`~repro.nn.Parameter` attributes and nested modules, so
    this walks ``vars(model)`` with the same attribute-name ordering and
    dedup rules :meth:`Module.parameters` uses — the order is a function of
    the model's structure alone and therefore stable across processes.
    """
    params: list[nn.Parameter] = []
    seen: set[int] = set()

    def visit(value) -> None:
        if isinstance(value, nn.Parameter):
            if id(value) not in seen:
                seen.add(id(value))
                params.append(value)
        elif isinstance(value, nn.Module):
            for p in value.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    params.append(p)
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)

    for name in sorted(vars(model)):
        visit(getattr(model, name))
    return params


def run_training(
    model,
    graph,
    epoch_fn: Callable[[TrainState], "Mapping[str, float] | None"],
    optimizers: Mapping[str, nn.Adam],
    rng: np.random.Generator,
    callbacks: Iterable[Callback] = (),
    resume_from: str | Path | None = None,
) -> TrainState:
    """Drive a baseline's epoch body through the shared Trainer.

    Runs up to ``model.epochs`` epochs and returns the final
    :class:`TrainState`, whose traces the models expose as ``losses``.  A
    stock :class:`~repro.train.Checkpoint` callback writes CPGAN's training
    checkpoint format with the weights as ``param_{i}`` (in
    :func:`baseline_parameters` order) and the class name as
    ``meta["model"]``; ``resume_from`` restores weights, Adam, RNG and
    traces into the freshly built model and finishes the run bit-exactly.
    """
    # core imports baselines.base, so persistence is imported on use.
    from ...core import persistence

    params = baseline_parameters(model)
    name = type(model).__name__
    state = TrainState()
    if resume_from is not None:
        arrays, meta, __ = persistence.read_training_checkpoint(
            resume_from, graph
        )
        if meta.get("model") != name:
            raise persistence.CheckpointError(
                f"{resume_from} is a {meta.get('model', 'CPGAN')} "
                f"checkpoint, not a {name} one"
            )
        weights = persistence.indexed_arrays(arrays, "param_")
        if [w.shape for w in weights] != [p.data.shape for p in params]:
            raise persistence.CheckpointError(
                f"{resume_from} does not hold this {name}'s parameters"
            )
        for w, p in zip(weights, params):
            p.data[...] = w
        persistence.restore_session(
            resume_from, arrays, meta, optimizers, rng, state
        )

    def save(path: Path, state: TrainState) -> None:
        weights = {f"param_{i}": p.data for i, p in enumerate(params)}
        persistence.write_training_checkpoint(
            path, [graph], optimizers, rng, state, weights, {"model": name}
        )

    return Trainer(
        max_epochs=model.epochs, callbacks=callbacks, checkpoint_fn=save
    ).fit(epoch_fn, state=state, target_epochs=model.epochs)


class GCNEncoder(nn.Module):
    """Two-layer GCN producing node hidden states."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
    ) -> None:
        self.conv1 = nn.GraphConv(in_dim, hidden_dim, rng, activation="relu")
        self.conv2 = nn.GraphConv(hidden_dim, hidden_dim, rng, activation="identity")

    def forward(self, adj_norm, features) -> nn.Tensor:
        x = nn.as_tensor(features)
        return self.conv2(self.conv1(x, adj_norm), adj_norm)


def balanced_bce_weight(target: np.ndarray) -> np.ndarray:
    """Per-entry weights balancing the sparse positive class."""
    num_pos = target.sum()
    n2 = target.size
    pos_weight = (n2 - num_pos) / num_pos if num_pos > 0 else 1.0
    weight = np.where(target > 0, pos_weight, 1.0)
    return weight / weight.mean()


def dense_square_bytes(num_nodes: int, copies: int = 4) -> int:
    """Bytes for ``copies`` dense float64 n×n matrices."""
    return copies * 8 * num_nodes * num_nodes
