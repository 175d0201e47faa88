"""CPGAN — the Community-Preserving Generative Adversarial Network.

This module wires the ladder encoder (§III-C), variational inference
(§III-D), hierarchical decoder (§III-E) and discriminator (§III-F) into the
training procedure of Eqs. 16–19 and the generation procedure of §III-G:

* **Generator objective** — the ELBO of the hierarchical graph VAE
  (edge likelihood of Eq. 14 + the KL prior term of Eq. 19), the clustering
  consistency ``L_clus`` constraining the DiffPool assignments with Louvain
  ground truth (§III-F2), the adversarial non-saturating term against the
  shared-encoder discriminator (Eq. 18), and the CycleGAN-style mapping
  consistency ``L_rec = ||E(A) − E(A')||²`` (Eq. 18).
* **Discriminator objective** — Eq. 17: real graphs to 1; reconstructed
  graphs and graphs decoded from the N(0, I) prior to 0.
* **Subgraph training** — on graphs larger than ``config.sample_size`` every
  epoch trains on an induced subgraph of ``n_s`` nodes drawn without
  replacement with probability ∝ degree (§III-E), keeping the per-epoch
  cost O(k·n_s + n_s²) as the paper claims.
* **Generation** — posterior (identity-preserving, used by the community-
  preservation protocol) or prior latents are decoded into edge scores and
  assembled with the categorical + top-k strategy (§III-G).  Pairs are
  scored by a chunked top-K kernel, so no dense n×n matrix is
  materialised (only the ``bernoulli`` assembly ablation decodes one).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .. import nn
from ..baselines.base import GraphGenerator, rng_from_seed
from ..community import hierarchical_labels
from ..graphs import (
    Graph,
    assemble_graph,
    assemble_graph_sparse,  # noqa: F401 -- perf/hooks.py traces it by name
    sample_subgraph,
    select_edges_sparse,
    spectral_embedding,
)
from ..nn.tensor import _stable_sigmoid
from ..trace import count
from ..train import Callback, ConvergenceStopping, Trainer, TrainState
from .config import CPGANConfig
from .decoder import (
    GraphDecoder,
    PairScorer,
    topk_pair_candidates,
    topk_pair_candidates_batch,  # noqa: F401 -- perf/hooks.py traces it by name
)
from .discriminator import Discriminator
from .encoder import EncoderOutput, LadderEncoder
from .variational import LatentDistributions, StreamedLevel, VariationalInference

__all__ = ["CPGAN", "TrainingHistory"]

_DENSE_GENERATION_LIMIT = 4096

_TRACE_NAMES = (
    "total",
    "reconstruction",
    "kl",
    "clustering",
    "adversarial",
    "mapping",
    "discriminator",
)


@dataclass
class TrainingHistory:
    """Per-epoch loss traces (useful for the robustness bench, Fig. 6).

    The lists are shared with the training session's
    :class:`~repro.train.TrainState` history, so the Trainer's metric
    recording updates both views at once.
    """

    total: list[float] = field(default_factory=list)
    reconstruction: list[float] = field(default_factory=list)
    kl: list[float] = field(default_factory=list)
    clustering: list[float] = field(default_factory=list)
    adversarial: list[float] = field(default_factory=list)
    mapping: list[float] = field(default_factory=list)
    discriminator: list[float] = field(default_factory=list)

    def as_dict(self) -> dict[str, list[float]]:
        """Name -> trace mapping sharing the underlying list objects."""
        return {name: getattr(self, name) for name in _TRACE_NAMES}


@dataclass
class _TrainSession:
    """Everything CPGAN training carries across epochs *and* fit calls.

    Holding the RNG, optimizers and scheduler here (instead of rebuilding
    them inside ``fit``) is what makes repeated ``fit`` calls continue
    training, and what a checkpoint must capture for bit-identical resume.
    ``graphs`` is the training set (one graph for :meth:`CPGAN.fit`);
    ``offsets[i]`` is graph ``i``'s first row in the shared spectral
    feature and identity-embedding tables.
    """

    graphs: list[Graph]
    offsets: list[int]
    rng: np.random.Generator
    opt_gen: nn.Adam
    opt_disc: nn.Adam
    sched: nn.StepDecay
    state: TrainState

    @property
    def optimizers(self) -> dict[str, nn.Adam]:
        """The optimizers by checkpoint name."""
        return {"opt_gen": self.opt_gen, "opt_disc": self.opt_disc}


class _Prepared(NamedTuple):
    """One seed's latent draw; see :meth:`CPGAN._prepare_generation`.

    ``latents`` holds the drawn levels, the last one as a
    :class:`~repro.core.variational.StreamedLevel` the decode draws.
    """

    n: int
    target_edges: int
    rng: np.random.Generator
    latents: list | None
    rows: np.ndarray
    observed: Graph


class CPGAN(GraphGenerator):
    """Community-preserving GAN graph generator.

    Usage::

        model = CPGAN(CPGANConfig(epochs=100)).fit(graph)
        simulated = model.generate(seed=1)
    """

    name = "CPGAN"
    uses_autograd_training = True

    def __init__(self, config: CPGANConfig | None = None) -> None:
        super().__init__()
        self.config = config or CPGANConfig()
        rng = np.random.default_rng(self.config.seed)
        self.encoder = LadderEncoder(self.config, rng)
        self.vi = VariationalInference(self.config, rng)
        self.decoder = GraphDecoder(self.config, rng)
        self.discriminator = Discriminator(self.config, rng)
        self.history = TrainingHistory()
        self.node_embedding: nn.Parameter | None = None
        self._latents: LatentDistributions | None = None
        self._per_graph_latents: list[LatentDistributions] = []
        self._features: np.ndarray | None = None
        self._ground_truth: list[np.ndarray] | None = None
        self._session: _TrainSession | None = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        graph: Graph | None = None,
        *,
        callbacks: tuple[Callback, ...] | list[Callback] = (),
        resume_from: str | Path | None = None,
    ) -> "CPGAN":
        """Train on one observed graph through the shared Trainer.

        Repeated calls with the same ``graph`` object *continue* training
        (the RNG, optimizers and scheduler live in the session, not the
        call).  A stock :class:`~repro.train.Checkpoint` callback writes
        resumable checkpoints; ``resume_from`` restores one and runs the
        remaining epochs, reproducing the uninterrupted run's trace
        bit-for-bit.  ``graph`` may be omitted only with ``resume_from``
        (the observed graph is restored from the checkpoint).
        """
        return self._fit(
            None if graph is None else [graph],
            callbacks=callbacks,
            resume_from=resume_from,
        )

    def _fit(
        self, graphs: list[Graph] | None, *, callbacks, resume_from
    ) -> "CPGAN":
        """The one training loop, over a set of graphs (paper §III-A).

        The session continues when ``graphs`` holds the same graph objects
        as the live session's, element by element; otherwise a fresh one
        starts.  Graph 0 becomes the default generation target.
        """
        resuming = resume_from is not None
        if resuming:
            from .persistence import restore_training_checkpoint

            restore_training_checkpoint(self, resume_from, graphs)
        elif graphs is None:
            raise ValueError("fit() needs a graph unless resume_from is given")
        elif not graphs:
            raise ValueError("need at least one training graph")
        else:
            live = self._session.graphs if self._session else []
            if len(live) != len(graphs) or any(
                a is not b for a, b in zip(live, graphs)
            ):
                self._session = self._start_session(graphs)
        cfg = self.config  # after restore: the checkpoint's config wins
        session = self._session
        callbacks = list(callbacks)
        if cfg.early_stopping:
            callbacks.append(self._convergence_callback())
        trainer = Trainer(
            max_epochs=cfg.epochs,
            callbacks=callbacks,
            checkpoint_fn=lambda path, state: self.save_training_checkpoint(
                path
            ),
        )
        trainer.fit(
            self._epoch_fn(session),
            state=session.state,
            target_epochs=cfg.epochs if resuming else None,
        )
        self._per_graph_latents = [
            self._infer_latents(graph, offset, session.rng)
            for graph, offset in zip(session.graphs, session.offsets)
        ]
        self._latents = self._per_graph_latents[0]
        self._mark_fitted(session.graphs[0])
        return self

    def _start_session(self, graphs: list[Graph]) -> _TrainSession:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._features = np.vstack(
            [spectral_embedding(g, dim=cfg.input_dim) for g in graphs]
        )
        # Identity node features (§III-C) as a factorised embedding table,
        # one row per node of every training graph.
        from ..nn import init as nn_init

        self.node_embedding = nn.Parameter(
            nn_init.xavier_uniform(
                (sum(g.num_nodes for g in graphs), cfg.node_embedding_dim),
                rng,
            )
        )
        pooling_steps = max(cfg.effective_levels - 1, 0)
        per_graph = [
            hierarchical_labels(g, pooling_steps, seed=cfg.seed)
            for g in graphs
        ] if pooling_steps else []
        # Louvain ground truth per level, with disjoint label spaces per graph.
        self._ground_truth = []
        for level in zip(*per_graph):
            shifted, shift = [], 0
            for labels in level:
                shifted.append(labels + shift)
                shift += int(labels.max()) + 1
            self._ground_truth.append(np.concatenate(shifted))
        return self._build_session(graphs, rng)

    def _build_session(
        self, graphs: list[Graph], rng: np.random.Generator
    ) -> _TrainSession:
        cfg = self.config
        offsets = np.cumsum([0] + [g.num_nodes for g in graphs[:-1]]).tolist()
        opt_gen = nn.Adam(self._generator_parameters(), lr=cfg.learning_rate)
        opt_disc = nn.Adam(
            self.discriminator.parameters(), lr=cfg.learning_rate
        )
        sched = nn.StepDecay(opt_gen, cfg.lr_decay_every, cfg.lr_decay_gamma)
        state = TrainState(history=self.history.as_dict())
        return _TrainSession(
            graphs, offsets, rng, opt_gen, opt_disc, sched, state
        )

    def _generator_parameters(self) -> list[nn.Parameter]:
        params = [self.node_embedding]
        params += list(self.encoder.parameters())
        params += list(self.vi.parameters())
        params += list(self.decoder.parameters())
        return params

    def _epoch_fn(self, session: _TrainSession):
        def epoch_fn(state: TrainState) -> dict[str, float]:
            # Epochs round-robin over the training graphs.
            index = state.epoch % len(session.graphs)
            nodes, sub = self._training_view(
                session.graphs[index], session.rng
            )
            metrics = self._train_epoch(
                sub,
                session.offsets[index] + nodes,
                session.opt_gen,
                session.opt_disc,
                session.rng,
            )
            session.sched.step()
            return metrics

        return epoch_fn

    def _convergence_callback(self) -> ConvergenceStopping:
        """§III-F2 stopping rule: L_clus *and* the discriminator's real-graph
        score must both be flat over the last ``patience`` epochs."""
        cfg = self.config
        return ConvergenceStopping(
            monitors=("clustering", "discriminator"),
            patience=cfg.patience,
            tol=cfg.convergence_tol,
            skip_if_zero=("clustering",),
        )

    def _converged(self) -> bool:
        return self._convergence_callback().converged(self.history.as_dict())

    def save_training_checkpoint(self, path: str | Path) -> None:
        """Write a resumable mid-training checkpoint (see persistence)."""
        from .persistence import save_training_checkpoint

        save_training_checkpoint(self, path)

    def _training_view(
        self, graph: Graph, rng: np.random.Generator
    ) -> tuple[np.ndarray, Graph]:
        """One training subgraph (the whole graph when small)."""
        if graph.num_nodes <= self.config.sample_size:
            return np.arange(graph.num_nodes), graph
        return sample_subgraph(
            graph, self.config.sample_size, rng, self.config.sampling_strategy
        )

    def _train_epoch(
        self,
        sub: Graph,
        nodes: np.ndarray,
        opt_gen: nn.Adam,
        opt_disc: nn.Adam,
        rng: np.random.Generator,
    ) -> dict[str, float]:
        cfg = self.config
        adj_norm = LadderEncoder.prepare_adjacency(sub, cfg.adjacency_power)
        features = self._node_features(nodes)
        target = sub.to_dense()
        n = sub.num_nodes
        num_pos = target.sum()
        pos_weight = (
            (n * n - num_pos) / num_pos if num_pos > 0 else 1.0
        )
        weight = np.where(target > 0, pos_weight, 1.0)
        weight = weight / weight.mean()

        # ---------------- generator / VAE step -----------------------
        out = self.encoder(adj_norm, features)
        latents, kl, __ = self._latent_pass(out, rng)
        logits = self.decoder.edge_logits(self.decoder.node_features(latents))
        recon = nn.bce_with_logits(logits, target, weight)
        clus = self._clustering_loss(out, nodes)
        probs = logits.sigmoid()
        fake_adj = LadderEncoder.prepare_dense_adjacency(probs)
        fake_out = self.encoder(fake_adj, features)
        adv = nn.bce_with_logits(
            self.discriminator(fake_out.readout).reshape(1), np.ones(1)
        )
        mapping = nn.l2_diff(fake_out.readout, out.readout.detach())

        loss = recon + cfg.gamma_adv * adv + cfg.delta_mapping * mapping
        if kl is not None:
            loss = loss + cfg.beta_kl * kl
        if clus is not None:
            loss = loss + cfg.lambda_clus * clus
        opt_gen.zero_grad()
        self.discriminator.zero_grad()
        loss.backward()
        opt_gen.step()

        # ---------------- discriminator step (Eq. 17) ----------------
        with nn.no_grad():
            real_readout = self.encoder(adj_norm, features).readout.data
            rec_probs = probs.data
            prior = LatentDistributions.standard_prior(
                n, cfg.latent_dim, cfg.effective_levels
            )
            prior_probs = self.decoder.decode_numpy(prior.sample(n, rng, False))
            fake_readouts = []
            for p in (rec_probs, prior_probs):
                dense = LadderEncoder.prepare_dense_adjacency(nn.Tensor(p))
                fake_readouts.append(self.encoder(dense, features).readout.data)
        d_loss = nn.bce_with_logits(
            self.discriminator(nn.Tensor(real_readout)).reshape(1), np.ones(1)
        )
        for fake in fake_readouts:
            d_loss = d_loss + nn.bce_with_logits(
                self.discriminator(nn.Tensor(fake)).reshape(1), np.zeros(1)
            )
        opt_disc.zero_grad()
        d_loss.backward()
        opt_disc.step()

        return {
            "total": float(loss.data),
            "reconstruction": float(recon.data),
            "kl": float(kl.data) if kl is not None else 0.0,
            "clustering": float(clus.data) if clus is not None else 0.0,
            "adversarial": float(adv.data),
            "mapping": float(mapping.data),
            "discriminator": float(d_loss.data),
        }

    def _node_features(self, nodes: np.ndarray) -> nn.Tensor:
        """Spectral features concatenated with the identity embedding rows."""
        spectral = nn.Tensor(self._features[nodes])
        return nn.concat([spectral, self.node_embedding[nodes]], axis=1)

    def _latent_pass(
        self, out: EncoderOutput, rng: np.random.Generator
    ) -> tuple[list[nn.Tensor], nn.Tensor | None, LatentDistributions]:
        """VI sampling, or deterministic means for CPGAN-noV."""
        if self.config.use_variational:
            return self.vi(out.z_rec, rng)
        # noV: deterministic projection through g_mu, no noise, no KL.
        latents = [self.vi.g_mu[i](z) for i, z in enumerate(out.z_rec)]
        snapshot = LatentDistributions(
            mus=[z.data.copy() for z in latents],
            sigmas=[np.zeros(self.config.latent_dim) for _ in latents],
        )
        return latents, None, snapshot

    def _clustering_loss(
        self, out: EncoderOutput, nodes: np.ndarray
    ) -> nn.Tensor | None:
        """L_clus: composed assignments vs Louvain ground truth (§III-F2)."""
        if not out.assignments or not self._ground_truth:
            return None
        terms = []
        for assign, truth in zip(out.assignments, self._ground_truth):
            labels = truth[nodes]
            __, codes = np.unique(labels, return_inverse=True)
            codes = codes % assign.shape[1]
            terms.append(nn.cross_entropy_rows(assign, codes))
        loss = terms[0]
        for term in terms[1:]:
            loss = loss + term
        return loss

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def _infer_latents(
        self, graph: Graph, offset: int, rng: np.random.Generator
    ) -> LatentDistributions:
        """Posterior snapshot of one full training graph (sparse pass);
        its feature rows start at ``offset``."""
        adj_norm = LadderEncoder.prepare_adjacency(
            graph, self.config.adjacency_power
        )
        with nn.no_grad():
            features = self._node_features(offset + np.arange(graph.num_nodes))
            out = self.encoder(adj_norm, features)
            __, ___, snapshot = self._latent_pass(out, rng)
        return snapshot

    def generation_config(self, **overrides) -> CPGANConfig:
        """A validated per-call copy of ``config`` with ``overrides`` applied.

        Concurrent servers must not mutate the shared ``model.config``
        between requests (another worker may be mid-generate); they build a
        snapshot here and pass it to :meth:`generate` instead.  Validation
        happens through ``CPGANConfig.__post_init__``, so an unknown field
        raises ``TypeError`` and a bad value raises ``ValueError`` before
        any work is queued.
        """
        return replace(self.config, **overrides)

    def generate(
        self,
        seed: int = 0,
        num_nodes: int | None = None,
        *,
        config: CPGANConfig | None = None,
    ) -> Graph:
        """Sample a new graph (§III-G).

        By default the fitted node count and the posterior latents are used
        (identity-preserving — the paper's community-preservation protocol);
        set ``config.latent_source = 'prior'`` or pass a different
        ``num_nodes`` to sample from the latent distributions instead.

        Generation runs through the candidate-pruned sparse pipeline
        (chunked top-K scoring + sparse assembly, no n×n allocation), or
        the two-level ``repro.hier`` pipeline when
        ``config.generation_mode == 'hierarchical'``.  Only the
        ``bernoulli`` assembly strategy decodes the full n×n matrix, so it
        is limited to ``_DENSE_GENERATION_LIMIT`` nodes.
        ``config.generation_threads`` parallelises the sparse kernel's
        row-block scoring; the result is bit-identical at every thread
        count.  This is ``generate_batch((seed,), ...)[0]``.

        **Thread safety.**  On a fitted model this method is safe to call
        from concurrent threads: it only *reads* the fitted snapshot
        (latents, decoder weights, observed graph) and derives every random
        draw from ``seed`` via a private PCG64 stream, so the same
        ``(seed, num_nodes, config)`` yields a bit-identical graph no matter
        which thread runs it or what runs beside it.  Per-request overrides
        must come in through ``config=`` (see :meth:`generation_config`) —
        mutating ``self.config`` concurrently is the one thing that breaks
        this guarantee.  Calling ``fit`` concurrently with ``generate`` is
        not supported.
        """
        return self.generate_batch((seed,), num_nodes, config=config)[0]

    def generate_batch(
        self,
        seeds,
        num_nodes: int | None | list | tuple = None,
        *,
        config: CPGANConfig | None = None,
    ) -> list[Graph]:
        """Sample one graph per request seed.

        The serving tier's micro-batching entry point.  Each seed runs the
        solo pipeline on its own PCG64 stream, so every returned graph is
        **bit-identical** to ``generate(seed, num_nodes, config=...)`` for
        that seed, regardless of batch composition or
        ``config.generation_threads`` — which is what keeps the serving
        sample cache and the per-request determinism contract sound.  No
        work is shared between seeds.

        ``num_nodes`` may be a single value applied to every seed or a
        per-seed sequence.
        """
        seeds = list(seeds)
        if not isinstance(num_nodes, (list, tuple)):
            num_nodes = [num_nodes] * len(seeds)
        if len(num_nodes) != len(seeds):
            raise ValueError(
                f"num_nodes sequence has {len(num_nodes)} entries for "
                f"{len(seeds)} seeds"
            )
        cfg = config or self.config
        graphs = []
        for seed, size in zip(seeds, num_nodes):
            n, edges, __ = self._sample_edges(seed, size, cfg)
            graphs.append(Graph.from_canonical_edges(n, edges))
        return graphs

    def generate_to_file(
        self,
        path,
        seed: int = 0,
        num_nodes: int | None = None,
        *,
        config: CPGANConfig | None = None,
        shard_edges: int | None = None,
        shard_format: str = "edgelist",
    ) -> int:
        """Stream a generated graph to disk (§III-H future work).

        The paper notes CPGAN's simulation step still assumes the output
        graph fits in device memory and names out-of-core generation as
        future work.  This implements it on the sparse pipeline: the
        decoder features are decoded in row chunks in
        ``config.generation_dtype``, the chunked kernel scores row-blocks
        into a bounded candidate buffer in that precision and the shared
        selection core picks the final edge set — peak memory is
        O(row_block · n + K) regardless of the output size.  The one
        O(n)-wide array past the decode is the ``(n, latent_dim)`` feature
        matrix: the decode draws the last latent level chunk by chunk as it
        reaches the rows, and the latents are dropped once decoded, so only
        the earlier levels (one float64 level of two at the default depth)
        are alive next to it, and only during the decode.  The
        edge set is exactly the one :meth:`generate` returns for the same
        seed (both run :meth:`_sample_edges`), and the returned count
        equals the number of edges written.

        ``shard_edges`` (default ``config.generation_shard_edges``) selects
        the output layout: 0 writes a single edge-list file plus a
        ``<path>.meta.json`` sidecar; > 0 writes ``path`` as a *directory*
        of ~``shard_edges``-edge shards (``shard_format`` ``"edgelist"`` or
        ``"csr"``) with a ``meta.json`` manifest.  Both record num_nodes,
        num_edges, the scoring dtype and the seed, so
        :func:`repro.graphs.read_edge_list` round-trips the graph exactly —
        including trailing isolated nodes.
        """
        from ..graphs.io import EdgeShardWriter, _write_edge_file

        cfg = config or self.config
        if shard_edges is None:
            shard_edges = cfg.generation_shard_edges
        n, edges, dtype = self._sample_edges(seed, num_nodes, cfg)
        meta = {"dtype": dtype, "seed": int(seed)}
        if shard_edges > 0:
            with EdgeShardWriter(
                path, n, shard_edges, shard_format, meta=meta
            ) as writer:
                writer.write(edges)
        else:
            _write_edge_file(path, n, edges, meta)
        return len(edges)

    # -- shared generation pipeline ------------------------------------
    def _sample_edges(
        self,
        seed: int,
        num_nodes: int | None,
        cfg: CPGANConfig,
        snapshot: tuple[Graph, LatentDistributions] | None = None,
    ) -> tuple[int, np.ndarray, str]:
        """The one generation pipeline: ``(n, edges, dtype)`` for one seed.

        ``edges`` is canonical (unique, ``u < v``, sorted by ``(u, v)``);
        ``dtype`` is the precision the pair scores were computed in.  The
        one sparse decode is here: the features are decoded once, in row
        chunks and in the scoring dtype, for the flat path (top-k
        kernel and repair scorer) and the hierarchical one alike, and the
        latents are dropped before any scoring starts.
        """
        p = self._prepare_generation(seed, num_nodes, cfg, snapshot)
        dtype = cfg.generation_dtype
        hierarchical = cfg.generation_mode == "hierarchical"
        if not hierarchical and cfg.assembly_strategy == "bernoulli":
            # The dense path has no float32 form.
            graph = self._generate_dense(p, "bernoulli")
            return p.n, graph.edge_array(), "float64"
        features = self.decoder.edge_features_numpy(p.latents, dtype)
        p = p._replace(latents=None)
        if hierarchical:
            from ..hier import generate_hierarchical

            return p.n, generate_hierarchical(self, seed, p, features, cfg), dtype
        candidates = topk_pair_candidates(
            features,
            p.target_edges,
            threads=cfg.generation_threads,
            score_dtype=dtype,
        )
        edges = select_edges_sparse(
            p.n,
            candidates,
            p.target_edges,
            p.rng,
            cfg.assembly_strategy,
            score_rows=PairScorer(features),
            assume_unique=True,
            repair_sampler=cfg.repair_sampler,
        )
        return p.n, edges, dtype

    def _prepare_generation(
        self,
        seed: int,
        num_nodes: int | None,
        cfg: CPGANConfig,
        snapshot: tuple[Graph, LatentDistributions] | None = None,
    ) -> _Prepared:
        """One seed's latent draw, shared by every generation path.

        ``snapshot`` is the ``(observed graph, posterior latents)`` pair to
        simulate, the fitted one by default.  ``rows`` (the posterior row
        each node bootstrapped from) is what the hierarchical planner maps
        to communities.  Every generated graph passes through here exactly
        once, so this is where ``samples`` is counted, and where a
        ``num_nodes`` below 1 is rejected.  The last latent level is left
        to the decode to draw (``stream_last``), so it never exists at
        full height; nothing may draw from ``rng`` before it is read.
        """
        observed, posterior = snapshot or (self._require_fitted(), self._latents)
        if num_nodes is not None and num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        count(samples=1)
        rng = rng_from_seed(seed)
        n = observed.num_nodes if num_nodes is None else num_nodes
        target_edges = max(
            1, int(round(observed.num_edges * n / observed.num_nodes))
        )
        if cfg.latent_source == "prior":
            source = LatentDistributions.standard_prior(
                posterior.num_nodes, cfg.latent_dim, cfg.effective_levels
            )
        else:
            source = posterior
        if cfg.noise_scale != 1.0 and cfg.latent_source == "posterior":
            source = LatentDistributions(
                mus=source.mus,
                sigmas=[s * cfg.noise_scale for s in source.sigmas],
            )
        keep_identity = n == observed.num_nodes and cfg.latent_source == "posterior"
        rows, latents = source.sample(
            n, rng, keep_identity=keep_identity, with_rows=True, stream_last=True
        )
        return _Prepared(n, target_edges, rng, latents, rows, observed)

    def _generate_dense(self, prepared: _Prepared, strategy: str) -> Graph:
        """Decode the full n×n score matrix and assemble it densely.

        The ``bernoulli`` assembly path, and the reference the sparse
        pipeline is tested against: for any sparse strategy it returns
        the same graph as :meth:`generate_batch` for the same draw.
        """
        n = prepared.n
        if n > _DENSE_GENERATION_LIMIT:
            raise ValueError(
                f"dense generation materialises an n×n matrix and is capped "
                f"at {_DENSE_GENERATION_LIMIT} nodes (requested {n}); use a "
                f"sparse assembly strategy"
            )
        latents = [
            z.take(0, n) if isinstance(z, StreamedLevel) else z
            for z in prepared.latents
        ]
        scores = self.decoder.decode_numpy(latents)
        np.fill_diagonal(scores, 0.0)
        return assemble_graph(
            scores, prepared.target_edges, prepared.rng, strategy
        )

    # ------------------------------------------------------------------
    def edge_probabilities(self, pairs: np.ndarray, seed: int = 0) -> np.ndarray:
        """P(edge) for specific (u, v) pairs under the posterior mean.

        Powers the reconstruction NLL of Table V.
        """
        self._require_fitted()
        h = self.decoder.edge_features_numpy(self._latents.mus)
        pairs = np.asarray(pairs)
        logits = np.sum(h[pairs[:, 0]] * h[pairs[:, 1]], axis=1)
        return 1.0 / (1.0 + np.exp(-logits))

    def estimated_peak_memory(self, num_nodes: int) -> int:
        """Training working set: O(n) features + O(n_s²) dense subgraph."""
        cfg = self.config
        dense = 6 * 8 * cfg.sample_size**2
        per_node = 8 * num_nodes * (cfg.input_dim + 2 * cfg.hidden_dim + 8)
        return dense + per_node
