"""Variational inference over the hierarchical node features (paper §III-D).

For each hierarchy level the reconstructed node features ``Z_rec^(l)`` are
mapped by MLPs ``g_mu`` / ``g_sigma`` to Gaussian posteriors
``q(z_i) = N(μ_i, diag(σ̄²))``: a *per-node* mean and the *pooled* variance
``σ̄² = (1/n²) Σ g_σ(Z_rec)_i²`` of Eq. 12 (the variance shrinks with n,
which keeps representations away from the zero-centre — the sparsity effect
§III-D highlights).

Note on Eq. 12: read literally the equation also pools the means, which
would make all node latents i.i.d. and reconstruction of specific edges
(Eq. 14) impossible; per-node means are required for the bijective-mapping
NMI/ARI protocol of §II-A, so we keep them (matching the VGAE-style encoder
the architecture builds on) and pool only the variance.

Sampling uses the reparameterisation trick.  The per-level posterior
snapshots are stored after training; generating a graph of arbitrary size
bootstraps node latents from those snapshots (or from the N(0, I) prior).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from .config import CPGANConfig

__all__ = ["VariationalInference", "LatentDistributions", "StreamedLevel"]


class _LevelDraw:
    """The one latent draw of one level: ``mu[rows] + sigma · eps``.

    Called with the posterior rows of a run of generated nodes; draws
    ``eps`` for exactly those rows from ``rng``.
    """

    def __init__(
        self, mu: np.ndarray, sigma: np.ndarray, rng: np.random.Generator
    ) -> None:
        self.mu = mu
        self.sigma = sigma
        self.rng = rng
        # N(0, I) prior: mu[rows] + 1·eps == eps bit-for-bit, so the dead
        # fancy-index / multiply / add are skipped.
        self.prior = not mu.any() and not (sigma != 1.0).any()

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        # standard_normal: same stream and bits as normal(), minus the
        # per-sample loc/scale application.
        eps = self.rng.standard_normal(size=(rows.size, self.sigma.size))
        if not self.prior:
            eps *= self.sigma
            eps += self.mu[rows]
        return eps


class StreamedLevel:
    """A latent level drawn row chunk by row chunk, once, in order.

    Returned as the last level by ``LatentDistributions.sample(...,
    stream_last=True)``.  :meth:`take` draws rows ``[start, stop)``;
    chunks must be contiguous and ascending from row 0, so the RNG stream
    is consumed exactly as by the one-shot draw.  A chunk read out of
    order, or a second read of the level, raises ``RuntimeError``.
    """

    def __init__(self, draw: _LevelDraw, rows: np.ndarray) -> None:
        self._draw = draw
        self._rows = rows
        self._next = 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self._rows.size, self._draw.sigma.size)

    def take(self, start: int, stop: int) -> np.ndarray:
        """Draw the latents of rows ``[start, stop)``."""
        if start != self._next or not start < stop <= self._rows.size:
            raise RuntimeError(
                f"streamed latent level read at rows [{start}, {stop}) "
                f"but its next unread row is {self._next} of "
                f"{self._rows.size}; it is drawn once, in ascending order"
            )
        self._next = stop
        return self._draw(self._rows[start:stop])


@dataclass
class LatentDistributions:
    """Per-level posterior snapshots used at generation time."""

    mus: list[np.ndarray]      # each (n, latent_dim) — per-node means
    sigmas: list[np.ndarray]   # each (latent_dim,) — pooled std deviations

    @property
    def num_nodes(self) -> int:
        return self.mus[0].shape[0] if self.mus else 0

    def sample(
        self,
        num_nodes: int,
        rng: np.random.Generator,
        keep_identity: bool = True,
        with_rows: bool = False,
        stream_last: bool = False,
    ) -> list | tuple[np.ndarray, list]:
        """Draw (num_nodes, latent_dim) node latents per level.

        With ``keep_identity`` and a matching node count, node *i* samples
        from its own posterior — this is the path that preserves the
        bijective node mapping for the community metrics.  Otherwise node
        latents are bootstrapped (sampled rows with replacement), enabling
        generation at arbitrary sizes.

        ``with_rows`` additionally returns the posterior row index each
        generated node sampled from (``(rows, latents)``) — the
        hierarchical pipeline maps these through the observed community
        labels to place every generated node in a community.  The RNG
        stream is identical either way.

        ``stream_last`` leaves the last level undrawn: it comes back as a
        :class:`StreamedLevel` that draws its rows in ascending chunks as a
        reader asks for them.  The RNG draws the levels one after another,
        so the chunks consume the same stream, give the same values and
        leave ``rng`` in the same state as the one-shot draw — provided
        nothing else draws from ``rng`` until the level is read in full.
        """
        if keep_identity and num_nodes == self.num_nodes:
            rows = np.arange(num_nodes)
        else:
            rows = rng.integers(0, self.num_nodes, size=num_nodes)
        draws = [
            _LevelDraw(mu, sigma, rng) for mu, sigma in zip(self.mus, self.sigmas)
        ]
        out: list = [draw(rows) for draw in draws[: -1 if stream_last else None]]
        if stream_last and draws:
            out.append(StreamedLevel(draws[-1], rows))
        if with_rows:
            return np.asarray(rows, dtype=np.int64), out
        return out

    @classmethod
    def standard_prior(
        cls, num_nodes: int, latent_dim: int, levels: int
    ) -> "LatentDistributions":
        """The N(0, I) prior of Eq. 16's ``Z_s`` path."""
        return cls(
            mus=[np.zeros((num_nodes, latent_dim)) for _ in range(levels)],
            sigmas=[np.ones(latent_dim) for _ in range(levels)],
        )


class VariationalInference(nn.Module):
    """Per-level inference model g(Z_rec; φ) (Eq. 12)."""

    def __init__(self, config: CPGANConfig, rng: np.random.Generator) -> None:
        self.config = config
        levels = config.effective_levels
        self.g_mu = [
            nn.MLP([config.hidden_dim, config.hidden_dim, config.latent_dim], rng)
            for _ in range(levels)
        ]
        self.g_sigma = [
            nn.MLP([config.hidden_dim, config.hidden_dim, config.latent_dim], rng)
            for _ in range(levels)
        ]

    def forward(
        self,
        z_rec: list[nn.Tensor],
        rng: np.random.Generator,
    ) -> tuple[list[nn.Tensor], nn.Tensor, LatentDistributions]:
        """Return (sampled latents per level, KL loss, posterior snapshots)."""
        latents: list[nn.Tensor] = []
        kl_terms: list[nn.Tensor] = []
        mus: list[np.ndarray] = []
        sigmas: list[np.ndarray] = []
        for level, z in enumerate(z_rec):
            n = z.shape[0]
            mu = self.g_mu[level](z)                                # (n, d')
            g_s = self.g_sigma[level](z)
            # Eq. 12: pooled variance, shrinking as 1/n².
            var_bar = (g_s * g_s).sum(axis=0) * (1.0 / float(n * n))
            log_var = (var_bar + 1e-8).log()
            sigma_bar = (var_bar + 1e-12).sqrt()
            eps = rng.normal(size=(n, self.config.latent_dim))
            z_vae = mu + sigma_bar * nn.Tensor(eps)
            latents.append(z_vae)
            # KL(q || N(0, I)) with shared variance, averaged over nodes.
            log_var_full = log_var.reshape(1, -1) + nn.Tensor(np.zeros((n, 1)))
            kl_terms.append(nn.kl_standard_normal(mu, log_var_full))
            mus.append(mu.data.copy())
            sigmas.append(sigma_bar.data.copy())
        kl = kl_terms[0]
        for term in kl_terms[1:]:
            kl = kl + term
        return latents, kl, LatentDistributions(mus=mus, sigmas=sigmas)
