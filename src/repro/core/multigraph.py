"""Training CPGAN on a *set* of graphs (paper §III-A).

The paper frames CPGAN as learning "the community structure of a set of
graphs using adjacency matrices A in the training set"; the evaluation then
uses one observed graph per dataset.  :class:`CPGANMultiGraph` provides the
set-of-graphs surface: all networks (encoder / VI / decoder / discriminator)
are shared across graphs — this parameter sharing is what transmits
community structure between graphs — while each graph keeps its own rows in
one concatenated identity-embedding table and its own posterior latents.

Epochs round-robin over the training graphs; everything else (losses,
subgraph sampling, §III-G generation) is inherited from :class:`CPGAN`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import nn
from ..community import hierarchical_labels
from ..graphs import Graph, spectral_embedding
from ..train import Trainer, TrainState
from .encoder import LadderEncoder
from .model import CPGAN, _TrainSession
from .variational import LatentDistributions

__all__ = ["CPGANMultiGraph"]


class CPGANMultiGraph(CPGAN):
    """CPGAN trained jointly on several observed graphs."""

    name = "CPGAN-multi"

    def __init__(self, config=None) -> None:
        super().__init__(config)
        self._graphs: list[Graph] = []
        self._offsets: list[int] = []
        self._per_graph_latents: list[LatentDistributions] = []

    # ------------------------------------------------------------------
    def fit(
        self,
        graphs: Sequence[Graph] | Graph | None = None,
        *,
        callbacks=(),
        checkpoint_path=None,
        checkpoint_every: int = 0,
        run_log_path=None,
        resume_from=None,
    ) -> "CPGANMultiGraph":
        """Train jointly on a set of graphs through the shared Trainer.

        Accepts the same checkpoint/resume surface as :meth:`CPGAN.fit`:
        ``checkpoint_path``/``checkpoint_every`` write resumable training
        checkpoints (the archive stores every training graph, the shared
        optimizer moments, the scheduler and the RNG state), and
        ``resume_from`` restores one and runs the remaining epochs —
        reproducing the uninterrupted run bit for bit.  ``graphs`` may be
        omitted only with ``resume_from`` (the set is restored from the
        checkpoint; pass it to verify it matches).
        """
        resuming = resume_from is not None
        if resuming:
            from .persistence import restore_training_checkpoint

            restore_training_checkpoint(self, resume_from, graphs)
            if not self._graphs:
                # A plain single-graph CPGAN checkpoint: the degenerate
                # one-graph round-robin is the same training loop.
                self._graphs = [self._session.graph]
                self._offsets = [0]
            graphs = self._graphs
        else:
            if graphs is None:
                raise ValueError(
                    "fit() needs graphs unless resume_from is given"
                )
            if isinstance(graphs, Graph):
                graphs = [graphs]
            graphs = list(graphs)
            if not graphs:
                raise ValueError("need at least one training graph")
            cfg = self.config
            rng = np.random.default_rng(cfg.seed)
            self._graphs = graphs
            self._offsets = list(
                np.concatenate(
                    [[0], np.cumsum([g.num_nodes for g in graphs])[:-1]]
                )
            )
            total_nodes = sum(g.num_nodes for g in graphs)
            self._features = np.vstack(
                [spectral_embedding(g, dim=cfg.input_dim) for g in graphs]
            )
            from ..nn import init as nn_init

            self.node_embedding = nn.Parameter(
                nn_init.xavier_uniform(
                    (total_nodes, cfg.node_embedding_dim), rng
                )
            )
            pooling_steps = max(cfg.effective_levels - 1, 0)
            if pooling_steps:
                per_level: list[list[np.ndarray]] = [
                    [] for _ in range(pooling_steps)
                ]
                for g in graphs:
                    levels = hierarchical_labels(g, pooling_steps, seed=cfg.seed)
                    for level, labels in enumerate(levels):
                        per_level[level].append(labels)
                # Concatenate with disjoint label spaces per graph.
                self._ground_truth = []
                for level_labels in per_level:
                    shifted, shift = [], 0
                    for labels in level_labels:
                        shifted.append(labels + shift)
                        shift += labels.max() + 1
                    self._ground_truth.append(np.concatenate(shifted))
            else:
                self._ground_truth = []

            # Epochs round-robin over the training graphs through the shared
            # Trainer; the session makes repeated fit calls continue training.
            self._session = self._build_session(graphs[0], rng)
        cfg = self.config  # after restore: the checkpoint's config wins
        session = self._session
        Trainer(
            max_epochs=cfg.epochs,
            callbacks=self._fit_callbacks(
                callbacks, checkpoint_path, checkpoint_every, run_log_path
            ),
            checkpoint_fn=lambda path, state: self.save_training_checkpoint(
                path
            ),
        ).fit(
            self._epoch_fn(session),
            state=session.state,
            target_epochs=cfg.epochs if resuming else None,
        )

        self._per_graph_latents = []
        for graph, offset in zip(graphs, self._offsets):
            self._per_graph_latents.append(
                self._infer_latents_for(graph, offset, session.rng)
            )
        # Default generation target: the first graph.
        self._latents = self._per_graph_latents[0]
        self._mark_fitted(graphs[0])
        return self

    def _epoch_fn(self, session: _TrainSession):
        def epoch_fn(state: TrainState) -> dict[str, float]:
            index = state.epoch % len(self._graphs)
            graph = self._graphs[index]
            offset = self._offsets[index]
            local_nodes, sub = self._training_view(graph, session.rng)
            metrics = self._train_epoch(
                sub,
                offset + local_nodes,
                session.opt_gen,
                session.opt_disc,
                session.rng,
            )
            session.sched.step()
            return metrics

        return epoch_fn

    def _infer_latents_for(
        self, graph: Graph, offset: int, rng: np.random.Generator
    ) -> LatentDistributions:
        adj_norm = LadderEncoder.prepare_adjacency(
            graph, self.config.adjacency_power
        )
        with nn.no_grad():
            features = self._node_features(offset + np.arange(graph.num_nodes))
            out = self.encoder(adj_norm, features)
            __, ___, snapshot = self._latent_pass(out, rng)
        return snapshot

    # ------------------------------------------------------------------
    @property
    def num_graphs(self) -> int:
        return len(self._graphs)

    def generate(
        self,
        seed: int = 0,
        num_nodes: int | None = None,
        graph_index: int = 0,
        *,
        config=None,
    ) -> Graph:
        """Generate a simulation of training graph ``graph_index``.

        The graph's snapshot goes to the pipeline for this call only; the
        model's default (the first graph) is never swapped.
        """
        if not self._graphs:
            return super().generate(seed, num_nodes, config=config)
        if not 0 <= graph_index < len(self._graphs):
            raise IndexError(f"graph_index {graph_index} out of range")
        snapshot = self._graphs[graph_index], self._per_graph_latents[graph_index]
        ((n, edges, __),) = self._sample_edges(
            (seed,), [num_nodes], config or self.config, snapshot
        )
        return Graph.from_canonical_edges(n, edges)
