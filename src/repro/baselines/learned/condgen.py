"""CondGen-R baseline (Yang et al., NeurIPS 2019 — the scalable variant).

CondGen handles graph generation in embedding space with a GCN encoder and
a graph-level variational bottleneck (this is what gives it permutation
invariance, §II-B2 of the paper).  Node latents are reconstructed from the
*graph-level* code plus i.i.d. noise, so fine per-node structure — and in
particular community membership — is only weakly preserved; the paper's
Tables III–V show CondGen trailing VGAE-family models on a single large
graph, and this implementation reproduces that behaviour.

Training: ELBO with balanced BCE plus an adversarial feature-matching term
(the GAN part of CondGen) between encoded real and generated graphs.
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

__all__ = ["CondGenR"]


class CondGenR(GraphGenerator):
    """Graph-level variational GAN generator."""

    name = "CondGen-R"
    uses_autograd_training = True

    def __init__(
        self,
        hidden_dim: int = 32,
        latent_dim: int = 16,
        feature_dim: int = 8,
        epochs: int = 150,
        learning_rate: float = 1e-2,
        beta_kl: float | None = None,
        gamma_adv: float = 0.1,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        self.feature_dim = feature_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.beta_kl = beta_kl
        self.gamma_adv = gamma_adv
        self.seed = seed
        self._graph_mu: np.ndarray | None = None
        self._graph_sigma: np.ndarray | None = None
        self.losses: list[float] = []

    def fit(
        self, graph: Graph, *, callbacks=(), resume_from=None
    ) -> "CondGenR":
        rng = np.random.default_rng(self.seed)
        n = graph.num_nodes
        features = spectral_embedding(graph, dim=self.feature_dim)
        self.encoder = GCNEncoder(self.feature_dim, self.hidden_dim, rng)
        self.head_mu = nn.Linear(self.hidden_dim, self.latent_dim, rng)
        self.head_logvar = nn.Linear(self.hidden_dim, self.latent_dim, rng)
        # Node decoder: graph code ⊕ per-node noise -> node latent.
        self.node_decoder = nn.MLP(
            [2 * self.latent_dim, self.hidden_dim, self.latent_dim], rng
        )
        adj_norm = nn.normalized_adjacency(graph.adjacency)
        target = graph.to_dense()
        weight = balanced_bce_weight(target)
        params = list(self.encoder.parameters())
        params += list(self.head_mu.parameters())
        params += list(self.head_logvar.parameters())
        params += list(self.node_decoder.parameters())
        beta = self.beta_kl if self.beta_kl is not None else 1.0 / n
        opt = nn.Adam(params, lr=self.learning_rate)

        def epoch_fn(state):
            h = self.encoder(adj_norm, features)
            pooled = h.mean(axis=0, keepdims=True)           # graph-level
            mu = self.head_mu(pooled)
            logvar = self.head_logvar(pooled).clip(-10.0, 10.0)
            eps = rng.normal(size=(1, self.latent_dim))
            code = mu + (logvar * 0.5).exp() * nn.Tensor(eps)
            noise = nn.Tensor(rng.normal(size=(n, self.latent_dim)))
            broadcast = code + nn.Tensor(np.zeros((n, 1)))
            z = self.node_decoder(nn.concat([broadcast, noise], axis=1))
            logits = z @ z.T
            loss = nn.bce_with_logits(logits, target, weight)
            loss = loss + beta * nn.kl_standard_normal(mu, logvar)
            # Feature matching: encoded fake graph vs encoded real graph.
            fake_probs = logits.sigmoid()
            deg = fake_probs.sum(axis=1, keepdims=True) + 1.0
            fake_h = self.encoder(fake_probs / deg, features)
            loss = loss + self.gamma_adv * nn.l2_diff(
                fake_h.mean(axis=0), h.mean(axis=0).detach()
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
            h = self.encoder(adj_norm, features)
            pooled = h.mean(axis=0, keepdims=True)
            self._graph_mu = self.head_mu(pooled).data.copy()
            self._graph_sigma = (
                (self.head_logvar(pooled).clip(-10, 10) * 0.5).exp().data.copy()
            )
        self._mark_fitted(graph)
        return self

    def generate(self, seed: int = 0) -> Graph:
        observed = self._require_fitted()
        rng = rng_from_seed(seed)
        n = observed.num_nodes
        code = self._graph_mu + self._graph_sigma * rng.normal(
            size=self._graph_mu.shape
        )
        with nn.no_grad():
            broadcast = nn.Tensor(np.repeat(code, n, axis=0))
            noise = nn.Tensor(rng.normal(size=(n, self.latent_dim)))
            z = self.node_decoder(nn.concat([broadcast, noise], axis=1))
            logits = (z @ z.T).data
        scores = 1.0 / (1.0 + np.exp(-logits))
        np.fill_diagonal(scores, 0.0)
        return assemble_graph(scores, observed.num_edges, rng, "topk")

    def edge_probabilities(self, pairs: np.ndarray, seed: int = 0) -> np.ndarray:
        """Posterior-mean edge scores for the reconstruction NLL."""
        observed = self._require_fitted()
        rng = np.random.default_rng(self.seed)
        n = observed.num_nodes
        with nn.no_grad():
            broadcast = nn.Tensor(np.repeat(self._graph_mu, n, axis=0))
            noise = nn.Tensor(rng.normal(size=(n, self.latent_dim)))
            z = self.node_decoder(nn.concat([broadcast, noise], axis=1))
            logits = (z @ z.T).data
        pairs = np.asarray(pairs)
        return 1.0 / (1.0 + np.exp(-logits[pairs[:, 0], pairs[:, 1]]))

    def estimated_peak_memory(self, num_nodes: int) -> int:
        return dense_square_bytes(num_nodes, copies=6)
