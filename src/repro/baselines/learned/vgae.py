"""VGAE and Graphite baselines (Kipf & Welling 2016; Grover et al. 2019).

Both are variational graph autoencoders trained on the full dense adjacency:

* **VGAE** — GCN encoder to per-node (μ, log σ²); inner-product decoder
  ``p(A_ij) = σ(z_iᵀ z_j)``; ELBO = balanced BCE + KL.
* **Graphite** — VGAE plus an iterative refinement decoder: the sampled
  latents are propagated over the *soft* generated adjacency before the
  final inner product, letting the decoder model some higher-order
  structure.

Because these models assume a fixed vertex set and materialise n×n scores,
they reproduce the paper's OOM behaviour on large graphs via the
O(n²) memory estimate.
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

__all__ = ["VGAE", "Graphite"]


class VGAE(GraphGenerator):
    """Variational graph autoencoder with inner-product decoder."""

    name = "VGAE"
    uses_autograd_training = True

    def __init__(
        self,
        hidden_dim: int = 32,
        latent_dim: int = 16,
        feature_dim: int = 8,
        epochs: int = 150,
        learning_rate: float = 1e-2,
        beta_kl: float | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        self.feature_dim = feature_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.beta_kl = beta_kl
        self.seed = seed
        self._mu: np.ndarray | None = None
        self._sigma: np.ndarray | None = None
        self.losses: list[float] = []

    # ------------------------------------------------------------------
    def _build(self, rng: np.random.Generator, in_dim: int) -> list[nn.Module]:
        """Create the layers; returns them in optimizer order."""
        self.encoder = GCNEncoder(in_dim, self.hidden_dim, rng)
        self.head_mu = nn.Linear(self.hidden_dim, self.latent_dim, rng)
        self.head_logvar = nn.Linear(self.hidden_dim, self.latent_dim, rng)
        return [self.encoder, self.head_mu, self.head_logvar]

    def _decode(self, z: nn.Tensor) -> nn.Tensor:
        """Inner-product edge logits (overridden by Graphite)."""
        return z @ z.T

    def fit(self, graph: Graph, *, callbacks=(), resume_from=None) -> "VGAE":
        rng = np.random.default_rng(self.seed)
        features = np.concatenate(
            [
                spectral_embedding(graph, dim=self.feature_dim // 2),
                rng.normal(
                    scale=0.1, size=(graph.num_nodes, self.feature_dim // 2)
                ),
            ],
            axis=1,
        )
        # Free per-node parameters (identity-feature equivalent).
        self.node_embedding = nn.Parameter(
            rng.normal(scale=0.1, size=(graph.num_nodes, self.feature_dim))
        )
        self._features = features
        modules = self._build(rng, 2 * self.feature_dim)
        adj_norm = nn.normalized_adjacency(graph.adjacency)
        target = graph.to_dense()
        weight = balanced_bce_weight(target)
        # Standard VGAE ELBO: the KL term carries weight 1/n relative to
        # the mean edge reconstruction (Kipf & Welling reference code).
        beta = self.beta_kl if self.beta_kl is not None else 1.0 / graph.num_nodes
        params = [self.node_embedding]
        for module in modules:
            params += list(module.parameters())
        opt = nn.Adam(params, lr=self.learning_rate)

        def epoch_fn(state):
            x = nn.concat(
                [nn.Tensor(features), self.node_embedding], axis=1
            )
            h = self.encoder(adj_norm, x)
            mu = self.head_mu(h)
            logvar = self.head_logvar(h).clip(-10.0, 10.0)
            eps = rng.normal(size=(graph.num_nodes, self.latent_dim))
            z = mu + (logvar * 0.5).exp() * nn.Tensor(eps)
            logits = self._decode(z)
            loss = nn.bce_with_logits(logits, target, weight)
            loss = loss + beta * nn.kl_standard_normal(mu, logvar)
            opt.zero_grad()
            loss.backward()
            opt.step()
            return {"loss": float(loss.data)}

        state = run_training(
            self, graph, epoch_fn, {"opt": opt}, rng, callbacks, resume_from
        )
        self.losses = state.trace("loss")
        with nn.no_grad():
            x = nn.concat([nn.Tensor(features), self.node_embedding], axis=1)
            h = self.encoder(adj_norm, x)
            self._mu = self.head_mu(h).data.copy()
            self._sigma = (self.head_logvar(h).clip(-10, 10) * 0.5).exp().data.copy()
        self._mark_fitted(graph)
        return self

    def generate(self, seed: int = 0) -> Graph:
        observed = self._require_fitted()
        rng = rng_from_seed(seed)
        z = self._mu + self._sigma * rng.normal(size=self._mu.shape)
        with nn.no_grad():
            logits = self._decode(nn.Tensor(z)).data
        scores = 1.0 / (1.0 + np.exp(-logits))
        np.fill_diagonal(scores, 0.0)
        return assemble_graph(scores, observed.num_edges, rng, "topk")

    def edge_probabilities(self, pairs: np.ndarray, seed: int = 0) -> np.ndarray:
        """P(edge) at the posterior mean — for reconstruction NLL."""
        self._require_fitted()
        with nn.no_grad():
            logits = self._decode(nn.Tensor(self._mu)).data
        pairs = np.asarray(pairs)
        return 1.0 / (1.0 + np.exp(-logits[pairs[:, 0], pairs[:, 1]]))

    def estimated_peak_memory(self, num_nodes: int) -> int:
        return dense_square_bytes(num_nodes, copies=6)


class Graphite(VGAE):
    """Graphite: VGAE with one round of iterative decoder refinement."""

    name = "Graphite"

    def _build(self, rng: np.random.Generator, in_dim: int) -> list[nn.Module]:
        modules = super()._build(rng, in_dim)
        self.refine1 = nn.Linear(self.latent_dim, self.latent_dim, rng)
        self.refine2 = nn.Linear(self.latent_dim, self.latent_dim, rng)
        return modules + [self.refine1, self.refine2]

    def _decode(self, z: nn.Tensor) -> nn.Tensor:
        # Soft adjacency from the raw latents (row-normalised attention-like
        # propagation), one refinement pass, then inner product.
        soft = (z @ z.T).sigmoid()
        degree = soft.sum(axis=1, keepdims=True) + 1.0
        propagated = (soft @ self.refine1(z).relu()) / degree
        refined = z + self.refine2(propagated).relu()
        return refined @ refined.T

    def estimated_peak_memory(self, num_nodes: int) -> int:
        return dense_square_bytes(num_nodes, copies=7)
