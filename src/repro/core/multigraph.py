"""Training CPGAN on a *set* of graphs (paper §III-A).

The paper frames CPGAN as learning "the community structure of a set of
graphs using adjacency matrices A in the training set"; the evaluation then
uses one observed graph per dataset.  :class:`CPGAN` already trains on a
set, and :meth:`CPGAN.fit` is its one-graph case.  :class:`CPGANMultiGraph`
only exposes that set: ``fit`` takes a sequence of graphs and ``generate``
takes the index of the training graph to simulate.  All networks (encoder /
VI / decoder / discriminator) are shared across graphs — this parameter
sharing is what transmits community structure between graphs — while each
graph keeps its own rows in one concatenated identity-embedding table and
its own posterior latents.  Epochs round-robin over the training graphs.
"""

from __future__ import annotations

from typing import Sequence

from ..graphs import Graph
from .model import CPGAN

__all__ = ["CPGANMultiGraph"]


class CPGANMultiGraph(CPGAN):
    """CPGAN trained jointly on several observed graphs."""

    name = "CPGAN-multi"

    def fit(
        self,
        graphs: Sequence[Graph] | Graph | None = None,
        *,
        callbacks=(),
        resume_from=None,
    ) -> "CPGANMultiGraph":
        """Train jointly on a set of graphs through the shared Trainer.

        Same contract as :meth:`CPGAN.fit`: repeated calls with the same
        graph objects continue training, a stock
        :class:`~repro.train.Checkpoint` callback writes resumable
        checkpoints (every training graph is stored), and ``resume_from``
        restores one and runs the remaining epochs bit for bit.  ``graphs``
        may be omitted only with ``resume_from`` (the set is restored from
        the checkpoint; pass it to verify it matches).
        """
        if isinstance(graphs, Graph):
            graphs = [graphs]
        return self._fit(
            None if graphs is None else list(graphs),
            callbacks=callbacks,
            resume_from=resume_from,
        )

    @property
    def num_graphs(self) -> int:
        return len(self._per_graph_latents)

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
        if not self._per_graph_latents:
            return super().generate(seed, num_nodes, config=config)
        if not 0 <= graph_index < self.num_graphs:
            raise IndexError(f"graph_index {graph_index} out of range")
        snapshot = (
            self._session.graphs[graph_index],
            self._per_graph_latents[graph_index],
        )
        n, edges, __ = self._sample_edges(
            seed, num_nodes, config or self.config, snapshot
        )
        return Graph.from_canonical_edges(n, edges)
