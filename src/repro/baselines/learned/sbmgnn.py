"""SBMGNN baseline (Mehta, Carin & Rai, ICML 2019).

"Stochastic blockmodels meet graph neural networks": a GCN encoder infers
*sparse non-negative mixed-membership* vectors s_i over K latent blocks, and
edges are scored through a learnable block-interaction matrix:

    p(A_ij) = σ( s_iᵀ B s_j + b0 )

The graph neural network only infers the parameters of the overlapping
stochastic block model — the paper (§II-B2) stresses that this is *not*
directly a community-preserving objective, which is why SBMGNN shows no
NMI/ARI advantage over other deep baselines in Table III.
"""

from __future__ import annotations

import numpy as np

from ... import nn
from ...graphs import Graph, assemble_graph, spectral_embedding
from ..base import GraphGenerator, rng_from_seed
from .common import (
    GCNEncoder,
    balanced_bce_weight,
    dense_square_bytes,
    run_training,
)

__all__ = ["SBMGNN"]


class SBMGNN(GraphGenerator):
    """Deep overlapping-SBM generator."""

    name = "SBMGNN"
    uses_autograd_training = True

    def __init__(
        self,
        num_blocks: int = 24,
        hidden_dim: int = 32,
        feature_dim: int = 8,
        epochs: int = 150,
        learning_rate: float = 1e-2,
        sparsity: float = 1e-3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.num_blocks = num_blocks
        self.hidden_dim = hidden_dim
        self.feature_dim = feature_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.sparsity = sparsity
        self.seed = seed
        self._memberships: np.ndarray | None = None
        self.losses: list[float] = []

    def fit(self, graph: Graph, *, callbacks=(), resume_from=None) -> "SBMGNN":
        rng = np.random.default_rng(self.seed)
        features = spectral_embedding(graph, dim=self.feature_dim)
        self.node_embedding = nn.Parameter(
            rng.normal(scale=0.1, size=(graph.num_nodes, self.feature_dim))
        )
        self.encoder = GCNEncoder(2 * self.feature_dim, self.hidden_dim, rng)
        self.head_membership = nn.Linear(self.hidden_dim, self.num_blocks, rng)
        self.block_matrix = nn.Parameter(
            np.eye(self.num_blocks) * 2.0
            + rng.normal(scale=0.05, size=(self.num_blocks, self.num_blocks))
        )
        self.bias = nn.Parameter(np.array([-2.0]))
        adj_norm = nn.normalized_adjacency(graph.adjacency)
        target = graph.to_dense()
        weight = balanced_bce_weight(target)
        params = [self.node_embedding, self.block_matrix, self.bias]
        params += list(self.encoder.parameters())
        params += list(self.head_membership.parameters())
        opt = nn.Adam(params, lr=self.learning_rate)

        def epoch_fn(state):
            logits = self._edge_logits(adj_norm, features)
            loss = nn.bce_with_logits(logits, target, weight)
            # Sparse-membership prior (the model's stick-breaking shrinkage,
            # approximated with an L1 penalty on the memberships).
            loss = loss + self.sparsity * self._last_memberships.sum() * (
                1.0 / target.shape[0]
            )
            opt.zero_grad()
            loss.backward()
            opt.step()
            return {"loss": float(loss.data)}

        state = run_training(
            self, graph, epoch_fn, {"opt": opt}, rng, callbacks, resume_from
        )
        self.losses = state.trace("loss")
        with nn.no_grad():
            self._edge_logits(adj_norm, features)
            self._memberships = self._last_memberships.data.copy()
        self._mark_fitted(graph)
        return self

    def _edge_logits(self, adj_norm, features: np.ndarray) -> nn.Tensor:
        x = nn.concat([nn.Tensor(features), self.node_embedding], axis=1)
        h = self.encoder(adj_norm, x)
        s = self.head_membership(h).relu()  # non-negative memberships
        self._last_memberships = s
        sym_b = (self.block_matrix + self.block_matrix.T) * 0.5
        return s @ sym_b @ s.T + self.bias

    def generate(self, seed: int = 0) -> Graph:
        observed = self._require_fitted()
        rng = rng_from_seed(seed)
        s = self._memberships
        # DGLFRM samples *binary* IBP gates over the block memberships at
        # generation time: re-draw each gate (keep probability tied to the
        # membership magnitude) and jitter the kept magnitudes.
        magnitude = s / (s.max() + 1e-12)
        gates = rng.random(s.shape) < (0.5 + 0.5 * magnitude)
        s = s * gates + rng.normal(
            scale=0.25 * (s.std() + 1e-9), size=s.shape
        )
        s = np.maximum(s, 0.0)
        b = (self.block_matrix.data + self.block_matrix.data.T) / 2.0
        logits = s @ b @ s.T + self.bias.data[0]
        scores = 1.0 / (1.0 + np.exp(-logits))
        np.fill_diagonal(scores, 0.0)
        return assemble_graph(scores, observed.num_edges, rng, "topk")

    def edge_probabilities(self, pairs: np.ndarray, seed: int = 0) -> np.ndarray:
        """Posterior-mean edge scores for the reconstruction NLL."""
        self._require_fitted()
        s = self._memberships
        b = (self.block_matrix.data + self.block_matrix.data.T) / 2.0
        pairs = np.asarray(pairs)
        logits = (
            np.sum((s[pairs[:, 0]] @ b) * s[pairs[:, 1]], axis=1)
            + self.bias.data[0]
        )
        return 1.0 / (1.0 + np.exp(-logits))

    def estimated_peak_memory(self, num_nodes: int) -> int:
        return dense_square_bytes(num_nodes, copies=5)
