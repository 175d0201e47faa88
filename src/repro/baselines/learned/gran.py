"""GRAN-lite — Graph Recurrent Attention Network (Liao et al. 2019).

The paper's related work (§II-B2) positions GRAN as GraphRNN's scalable
successor: instead of one node per step, it "generates one block of nodes
and associated edges at each step in auto-regressive methods" — but is
"still not permutation-invariant".  This is a faithful-in-structure,
CPU-sized implementation:

* nodes are serialised by BFS and emitted in blocks of ``block_size``;
* at every step the *partial* generated graph is encoded with a graph
  convolution over simple structural features (normalised degree +
  position), giving existing-node states;
* each new node in the block gets a query vector from its in-block
  position and the current graph summary;
* an MLP scores (existing state, query) pairs for cross edges and
  (query, query) pairs for within-block edges;
* training is teacher-forced block-wise BCE (unweighted, so the edge
  probabilities stay calibrated); generation samples Bernoulli edges block
  by block.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ... import nn
from ...graphs import Graph
from ..base import GraphGenerator, rng_from_seed
from .common import run_training
from .graphrnn import bfs_order

__all__ = ["GRANLite"]


class GRANLite(GraphGenerator):
    """Block-wise auto-regressive graph generator."""

    name = "GRAN"
    uses_autograd_training = True

    def __init__(
        self,
        block_size: int = 8,
        hidden_dim: int = 32,
        epochs: int = 40,
        learning_rate: float = 5e-3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.block_size = block_size
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self.losses: list[float] = []

    # ------------------------------------------------------------------
    def _build(self, rng: np.random.Generator) -> None:
        d = self.hidden_dim
        self.feature_proj = nn.Linear(2, d, rng)
        self.context_conv = nn.GraphConv(d, d, rng, activation="relu")
        self.query_mlp = nn.MLP([d + 2, d, d], rng)
        self.cross_edge_mlp = nn.MLP([2 * d, d, 1], rng)
        self.block_edge_mlp = nn.MLP([2 * d, d, 1], rng)

    def _parameters(self):
        for module in (
            self.feature_proj, self.context_conv, self.query_mlp,
            self.cross_edge_mlp, self.block_edge_mlp,
        ):
            yield from module.parameters()

    # ------------------------------------------------------------------
    def _node_states(
        self, partial_adj: sp.csr_matrix, num_existing: int, total: int
    ) -> nn.Tensor:
        """Encode the partial graph: degree + position features -> GCN."""
        degrees = np.asarray(partial_adj.sum(axis=1)).ravel()[:num_existing]
        features = np.column_stack(
            [
                degrees / (degrees.max() + 1.0),
                np.arange(num_existing) / max(total, 1),
            ]
        )
        adj_norm = nn.normalized_adjacency(
            partial_adj[:num_existing, :num_existing]
        )
        h = self.feature_proj(nn.Tensor(features))
        return self.context_conv(h, adj_norm)

    def _queries(self, h: nn.Tensor, block: int, total: int, start: int) -> nn.Tensor:
        """Query vectors for the ``block`` new nodes."""
        summary = h.mean(axis=0, keepdims=True) if h.shape[0] else nn.Tensor(
            np.zeros((1, self.hidden_dim))
        )
        rows = []
        for k in range(block):
            position = np.array([[k / max(self.block_size, 1),
                                  (start + k) / max(total, 1)]])
            rows.append(nn.concat([summary, nn.Tensor(position)], axis=1))
        return self.query_mlp(nn.concat(rows, axis=0))

    # ------------------------------------------------------------------
    def fit(
        self, graph: Graph, *, callbacks=(), resume_from=None
    ) -> "GRANLite":
        rng = np.random.default_rng(self.seed)
        self._build(rng)
        order = bfs_order(graph)
        n = graph.num_nodes
        # Reorder the adjacency by BFS position once.
        perm = np.empty(n, dtype=np.int64)
        perm[order] = np.arange(n)
        reordered = Graph.from_edges(
            n, [(int(perm[u]), int(perm[v])) for u, v in graph.edges()]
        )
        adj = reordered.adjacency
        dense = reordered.to_dense()
        self._num_nodes = n
        self._num_edges = graph.num_edges
        opt = nn.Adam(list(self._parameters()), lr=self.learning_rate)
        blocks = list(range(0, n, self.block_size))

        def epoch_fn(state):
            epoch_losses = []
            for start in blocks:
                stop = min(start + self.block_size, n)
                block = stop - start
                target_cross = dense[start:stop, :start]       # (block, start)
                iu, ju = np.triu_indices(block, k=1)
                target_within = dense[start:stop, start:stop][iu, ju]
                if start == 0 and target_within.size == 0:
                    continue
                h = (
                    self._node_states(adj, start, n)
                    if start
                    else nn.Tensor(np.zeros((0, self.hidden_dim)))
                )
                q = self._queries(h, block, n, start)
                losses = []
                if start:
                    # Cross-edge logits: all (new, existing) pairs at once.
                    h_rep = nn.concat([h] * block, axis=0)
                    q_rep = nn.concat(
                        [q[k : k + 1] * np.ones((start, 1)) for k in range(block)],
                        axis=0,
                    )
                    logits = self.cross_edge_mlp(
                        nn.concat([h_rep, q_rep], axis=1)
                    ).reshape(block * start)
                    target = target_cross.reshape(-1)
                    # Unweighted BCE keeps the probabilities calibrated so
                    # Bernoulli generation hits the right edge density.
                    losses.append(
                        nn.bce_with_logits(logits, target)
                    )
                if target_within.size:
                    pair = nn.concat([q[iu], q[ju]], axis=1)
                    logits_w = self.block_edge_mlp(pair).reshape(len(iu))
                    losses.append(
                        nn.bce_with_logits(
                            logits_w, target_within
                        )
                    )
                if not losses:
                    continue
                loss = losses[0]
                for piece in losses[1:]:
                    loss = loss + piece
                opt.zero_grad()
                loss.backward()
                opt.step()
                epoch_losses.append(float(loss.data))
                state.step({"loss": epoch_losses[-1]})
            return {"loss": float(np.mean(epoch_losses))}

        state = run_training(
            self, graph, epoch_fn, {"opt": opt}, rng, callbacks, resume_from
        )
        self.losses = state.trace("loss")
        self._mark_fitted(graph)
        return self

    # ------------------------------------------------------------------
    def generate(self, seed: int = 0) -> Graph:
        self._require_fitted()
        rng = rng_from_seed(seed)
        n = self._num_nodes
        lil = sp.lil_matrix((n, n))
        with nn.no_grad():
            for start in range(0, n, self.block_size):
                stop = min(start + self.block_size, n)
                block = stop - start
                h = (
                    self._node_states(lil.tocsr(), start, n)
                    if start
                    else nn.Tensor(np.zeros((0, self.hidden_dim)))
                )
                q = self._queries(h, block, n, start)
                if start:
                    h_rep = nn.concat([h] * block, axis=0)
                    q_rep = nn.concat(
                        [q[k : k + 1] * np.ones((start, 1)) for k in range(block)],
                        axis=0,
                    )
                    probs = (
                        self.cross_edge_mlp(nn.concat([h_rep, q_rep], axis=1))
                        .sigmoid()
                        .data.reshape(block, start)
                    )
                    hits = rng.random((block, start)) < probs
                    for k, j in zip(*np.nonzero(hits)):
                        lil[start + k, j] = 1.0
                        lil[j, start + k] = 1.0
                iu, ju = np.triu_indices(block, k=1)
                if iu.size:
                    pair = nn.concat([q[iu], q[ju]], axis=1)
                    probs_w = (
                        self.block_edge_mlp(pair).sigmoid().data.ravel()
                    )
                    hits_w = rng.random(iu.size) < probs_w
                    for idx in np.flatnonzero(hits_w):
                        u = start + int(iu[idx])
                        v = start + int(ju[idx])
                        lil[u, v] = 1.0
                        lil[v, u] = 1.0
        return Graph(lil.tocsr())

    def estimated_peak_memory(self, num_nodes: int) -> int:
        # Block × existing-node pair states dominate: O(n · block · d).
        return 8 * num_nodes * self.block_size * self.hidden_dim * 4
