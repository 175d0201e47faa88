"""Full adversarial NetGAN (Bojchevski et al. 2018) on the NumPy substrate.

Unlike :class:`~repro.baselines.learned.netgan.NetGAN` (the Rendsburg
low-rank equivalence, used as the bench roster's default because it is
orders of magnitude cheaper), this class implements the actual GAN of the
original paper:

* **Generator** — a GRU over walk steps; at each step a projection of the
  hidden state gives logits over the node vocabulary, the next node is
  drawn with *Gumbel-softmax* (differentiable, straight-through in spirit),
  and its (soft) embedding is fed back as the next input.
* **Discriminator** — a second GRU consuming the node-embedding sequence of
  a walk, ending in a binary real/fake logit.
* **Training** — alternating non-saturating GAN steps on batches of real
  random walks vs generated walks.
* **Assembly** — generated walks are accumulated into a transition-count
  score matrix; the graph is assembled exactly like NetGAN's step 3.

This is the "optional full-fidelity" variant promised in DESIGN.md; the
``bench_ablation_netgan.py`` bench compares it against the low-rank
equivalence, empirically confirming the Rendsburg et al. observation that
the two produce graphs of similar quality.
"""

from __future__ import annotations

import numpy as np

from ... import nn
from ...graphs import Graph, assemble_graph
from ..base import GraphGenerator, rng_from_seed
from .common import run_training
from .netgan import sample_random_walks

__all__ = ["NetGANAdversarial"]


class _WalkGenerator(nn.Module):
    """GRU walk generator with Gumbel-softmax node sampling."""

    def __init__(
        self, num_nodes: int, embed_dim: int, hidden_dim: int, latent_dim: int,
        rng: np.random.Generator,
    ) -> None:
        from ...nn import init

        self.num_nodes = num_nodes
        self.embedding = nn.Parameter(
            init.xavier_uniform((num_nodes, embed_dim), rng)
        )
        self.init_proj = nn.Linear(latent_dim, hidden_dim, rng)
        self.gru = nn.GRUCell(embed_dim, hidden_dim, rng)
        self.out_proj = nn.Linear(hidden_dim, num_nodes, rng)
        self.latent_dim = latent_dim
        self.hidden_dim = hidden_dim
        self.embed_dim = embed_dim

    def rollout(
        self,
        batch: int,
        length: int,
        rng: np.random.Generator,
        tau: float = 1.0,
    ) -> tuple[list[nn.Tensor], np.ndarray]:
        """Generate soft walks.

        Returns (list of per-step soft node distributions (batch, n),
        hard node indices (batch, length)).
        """
        z = nn.Tensor(rng.normal(size=(batch, self.latent_dim)))
        h = self.init_proj(z).tanh()
        x = nn.Tensor(np.zeros((batch, self.embed_dim)))
        softs: list[nn.Tensor] = []
        hard = np.zeros((batch, length), dtype=np.int64)
        for step in range(length):
            h = self.gru(h, x)
            logits = self.out_proj(h)
            gumbel = -np.log(
                -np.log(rng.random(size=logits.shape) + 1e-12) + 1e-12
            )
            soft = ((logits + nn.Tensor(gumbel)) * (1.0 / tau)).softmax(axis=-1)
            softs.append(soft)
            hard[:, step] = soft.data.argmax(axis=1)
            x = soft @ self.embedding  # soft embedding feedback
        return softs, hard


class _WalkDiscriminator(nn.Module):
    """GRU walk classifier (real walk -> 1, generated walk -> 0)."""

    def __init__(
        self, embed_dim: int, hidden_dim: int, rng: np.random.Generator
    ) -> None:
        self.gru = nn.GRUCell(embed_dim, hidden_dim, rng)
        self.head = nn.Linear(hidden_dim, 1, rng)
        self.hidden_dim = hidden_dim

    def forward(self, step_embeddings: list[nn.Tensor]) -> nn.Tensor:
        batch = step_embeddings[0].shape[0]
        h = nn.Tensor(np.zeros((batch, self.hidden_dim)))
        for x in step_embeddings:
            h = self.gru(h, x)
        return self.head(h)


class NetGANAdversarial(GraphGenerator):
    """The original walk-GAN NetGAN, trained end to end."""

    name = "NetGAN-adv"
    uses_autograd_training = True

    def __init__(
        self,
        embed_dim: int = 16,
        hidden_dim: int = 32,
        latent_dim: int = 16,
        walk_length: int = 12,
        batch_size: int = 32,
        epochs: int = 150,
        learning_rate: float = 3e-3,
        assembly_walks: int = 3000,
        tau: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        self.walk_length = walk_length
        self.batch_size = batch_size
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.assembly_walks = assembly_walks
        self.tau = tau
        self.seed = seed
        self.generator_losses: list[float] = []
        self.discriminator_losses: list[float] = []

    def fit(
        self, graph: Graph, *, callbacks=(), resume_from=None
    ) -> "NetGANAdversarial":
        rng = np.random.default_rng(self.seed)
        n = graph.num_nodes
        self.generator = _WalkGenerator(
            n, self.embed_dim, self.hidden_dim, self.latent_dim, rng
        )
        self.discriminator = _WalkDiscriminator(
            self.embed_dim, self.hidden_dim, rng
        )
        opt_g = nn.Adam(self.generator.parameters(), lr=self.learning_rate)
        opt_d = nn.Adam(self.discriminator.parameters(), lr=self.learning_rate)

        def epoch_fn(state):
            real = sample_random_walks(
                graph, self.batch_size, self.walk_length, rng
            )
            # ---- discriminator step --------------------------------
            with nn.no_grad():
                fake_soft, __ = self.generator.rollout(
                    self.batch_size, self.walk_length, rng, self.tau
                )
                fake_embed_data = [
                    (s @ self.generator.embedding).data for s in fake_soft
                ]
            real_embed = [
                nn.Tensor(self.generator.embedding.data[real[:, t]])
                for t in range(self.walk_length)
            ]
            fake_embed = [nn.Tensor(e) for e in fake_embed_data]
            d_real = self.discriminator(real_embed).reshape(-1)
            d_fake = self.discriminator(fake_embed).reshape(-1)
            d_loss = nn.bce_with_logits(
                d_real, np.ones(self.batch_size)
            ) + nn.bce_with_logits(
                d_fake, np.zeros(self.batch_size)
            )
            opt_d.zero_grad()
            d_loss.backward()
            opt_d.step()
            # ---- generator step ------------------------------------
            fake_soft, __ = self.generator.rollout(
                self.batch_size, self.walk_length, rng, self.tau
            )
            fake_embed = [s @ self.generator.embedding for s in fake_soft]
            g_logit = self.discriminator(fake_embed).reshape(-1)
            g_loss = nn.bce_with_logits(
                g_logit, np.ones(self.batch_size)
            )
            opt_g.zero_grad()
            self.discriminator.zero_grad()
            g_loss.backward()
            opt_g.step()
            return {
                "generator": float(g_loss.data),
                "discriminator": float(d_loss.data),
            }

        optimizers = {"opt_g": opt_g, "opt_d": opt_d}
        state = run_training(
            self, graph, epoch_fn, optimizers, rng, callbacks, resume_from
        )
        self.generator_losses = state.trace("generator")
        self.discriminator_losses = state.trace("discriminator")
        self._mark_fitted(graph)
        return self

    def generate(self, seed: int = 0) -> Graph:
        observed = self._require_fitted()
        rng = rng_from_seed(seed)
        n = observed.num_nodes
        counts = np.zeros((n, n))
        remaining = self.assembly_walks
        with nn.no_grad():
            while remaining > 0:
                batch = min(self.batch_size * 4, remaining)
                __, hard = self.generator.rollout(
                    batch, self.walk_length, rng, self.tau
                )
                src = hard[:, :-1].ravel()
                dst = hard[:, 1:].ravel()
                np.add.at(counts, (src, dst), 1.0)
                remaining -= batch
        scores = counts + counts.T
        np.fill_diagonal(scores, 0.0)
        return assemble_graph(
            scores, observed.num_edges, rng, "categorical_topk"
        )

    def estimated_peak_memory(self, num_nodes: int) -> int:
        # Node-logit projection (hidden × n) dominates, plus the n² score
        # matrix at assembly — same OOM regime as the low-rank variant.
        return 8 * num_nodes * num_nodes * 2 + 8 * num_nodes * self.hidden_dim * 6
