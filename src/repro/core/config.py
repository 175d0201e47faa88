"""Configuration for CPGAN training and its ablation variants."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CPGANConfig"]


@dataclass
class CPGANConfig:
    """Hyper-parameters of CPGAN (defaults follow §IV-A, scaled for CPU).

    The paper trains with graph-convolution kernel size 128, pooling size
    256, two hierarchy levels, spectral input dimension 4, learning rate
    0.001 with decay 0.3 every 400 epochs.  The structural hyper-parameters
    are identical here; the widths default smaller because the NumPy
    substrate runs on CPU (raise ``hidden_dim``/``epochs`` to match the
    paper exactly).
    """

    # Architecture ----------------------------------------------------
    input_dim: int = 4          # spectral embedding size (Fig. 5: 4 is best)
    node_embedding_dim: int = 32  # identity-feature embedding (§III-C: the
    #   paper's default X = I_n gives every node free parameters; a learned
    #   n×d table is the factorised equivalent that stays O(n·d))
    hidden_dim: int = 64        # GCN kernel size (paper: 128)
    latent_dim: int = 32        # variational latent width
    num_levels: int = 2         # hierarchy levels incl. input level (Fig. 5: 2)
    pool_size: int = 32         # clusters at the first coarsening (paper: 256)
    adjacency_power: int = 1    # use A (+A² when 2) in GCN propagation
    pooling: str = "diffpool"   # "topk" = Graph U-Nets pooling (extension
    #   ablation; §II-B2 argues node-selection pooling cannot represent
    #   community structure — no soft assignments, so no L_clus either)

    # Variants (ablation table VI) -------------------------------------
    use_variational: bool = True    # False -> CPGAN-noV
    use_hierarchy: bool = True      # False -> CPGAN-noH
    decoder_mode: str = "gru"       # "concat" -> CPGAN-C

    # Training ----------------------------------------------------------
    epochs: int = 200
    # §III-F2: "our training process stops only when both L_clus and
    # log(D(A)) converge" — with early_stopping, epochs is the *maximum*
    # and training ends once both traces are flat over `patience` epochs.
    early_stopping: bool = False
    patience: int = 30
    convergence_tol: float = 0.02
    learning_rate: float = 1e-3
    lr_decay_every: int = 400
    lr_decay_gamma: float = 0.3
    sample_size: int = 256      # n_s — nodes per training subgraph (§III-E)
    sampling_strategy: str = "degree"   # or "uniform" (ablation)

    # Loss weights --------------------------------------------------------
    beta_kl: float = 1e-4           # KL(q || N(0, I)) weight (Eq. 19)
    lambda_clus: float = 1.0        # clustering consistency L_clus (§III-F2)
    gamma_adv: float = 0.05          # adversarial generator term (Eq. 18)
    delta_mapping: float = 0.1      # mapping consistency L_rec (Eq. 18)

    # Generation -----------------------------------------------------------
    assembly_strategy: str = "categorical_topk"    # §III-G
    latent_source: str = "posterior"  # "posterior" | "prior"
    noise_scale: float = 1.0   # temperature on the posterior σ at generation
    generation_mode: str = "sparse"  # "sparse" = candidate-pruned top-k
    #   pipeline (O(block·n + K) memory, the default).  "hierarchical" =
    #   two-level community-parallel generation (repro.hier): a
    #   community-level super-graph first, then independent per-community
    #   sparse top-k runs plus factored cross-community stitching —
    #   O(Σ n_c·k_c) scoring instead of O(n·K).  Neither mode decodes the
    #   n×n matrix; only "bernoulli" assembly does (it needs the full
    #   random matrix), and only below the dense generation limit.
    generation_threads: int = 1  # scoring threads for the sparse top-k
    #   kernel (1 = serial).  Row-blocks are independent and NumPy releases
    #   the GIL inside the block matmuls; the fold stays in deterministic
    #   block order, so generated graphs are bit-identical at every thread
    #   count — this is purely a wall-clock knob.
    generation_dtype: str = "float64"  # scoring precision of the sparse
    #   pipeline.  "float64" (default) is bit-identical to the historical
    #   pipeline; "float32" halves scoring/repair memory and roughly
    #   doubles GEMM throughput for large graphs (exact top-k of the
    #   float32 scores, deterministic at every thread count, but not
    #   bit-comparable to float64 output).
    generation_shard_edges: int = 0  # edges per output shard when
    #   streaming a generated graph to disk (generate_to_file).  0 writes
    #   a single edge-list file; > 0 writes a shard directory with a JSON
    #   meta sidecar (see repro.graphs.io.write_edge_shards).
    hier_workers: int = 1  # worker threads for the hierarchical pipeline's
    #   per-community generation tasks.  Every community (and cross-pair)
    #   draws from its own PCG64 stream split off (seed, community_id), so
    #   output is bit-identical at every worker count and schedule — like
    #   generation_threads, purely a wall-clock knob.
    hier_level: int = 0  # which level of the trained hierarchical
    #   assignments plans the partition (0 = finest).  Levels past the
    #   coarsest clamp to the coarsest available partition.
    repair_sampler: str = "dense"  # isolated-node repair partner draw.
    #   "dense" (reproducibility contract v1, default): materialise each
    #   isolated node's score row and draw by inverse CDF — the float64
    #   stream is bit-stable across releases (golden-trace guarded).
    #   "factored" (contract v2): rejection-sample partners from a
    #   norm-bound envelope with one dot product per proposal — the same
    #   distribution (statistically indistinguishable graphs) at
    #   O(isolated · E[proposals]) instead of O(isolated · n) cost,
    #   deterministic for a fixed seed at every thread count, but with a
    #   different RNG consumption pattern, so draws differ from "dense".

    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        if self.decoder_mode not in ("gru", "concat"):
            raise ValueError("decoder_mode must be 'gru' or 'concat'")
        if self.latent_source not in ("posterior", "prior"):
            raise ValueError("latent_source must be 'posterior' or 'prior'")
        if self.pooling not in ("diffpool", "topk"):
            raise ValueError("pooling must be 'diffpool' or 'topk'")
        if self.assembly_strategy not in ("categorical_topk", "topk", "bernoulli"):
            raise ValueError(
                f"unknown assembly_strategy {self.assembly_strategy!r}"
            )
        if self.generation_mode not in ("sparse", "hierarchical"):
            raise ValueError(
                "generation_mode must be 'sparse' or 'hierarchical'"
            )
        if (
            self.generation_mode == "hierarchical"
            and self.assembly_strategy == "bernoulli"
        ):
            raise ValueError(
                "hierarchical generation needs a sparse assembly strategy; "
                "'bernoulli' requires the dense random matrix"
            )
        if self.hier_workers < 1:
            raise ValueError("hier_workers must be >= 1")
        if self.hier_level < 0:
            raise ValueError("hier_level must be >= 0")
        if self.generation_threads < 1:
            raise ValueError("generation_threads must be >= 1")
        if self.generation_dtype not in ("float64", "float32"):
            raise ValueError(
                "generation_dtype must be 'float64' or 'float32'"
            )
        if self.generation_shard_edges < 0:
            raise ValueError("generation_shard_edges must be >= 0")
        if self.repair_sampler not in ("dense", "factored"):
            raise ValueError(
                "repair_sampler must be 'dense' or 'factored'"
            )
        if not self.use_hierarchy:
            self.num_levels = 1

    @property
    def effective_levels(self) -> int:
        """Number of representation levels fed to the decoder."""
        return self.num_levels if self.use_hierarchy else 1

    @property
    def encoder_input_dim(self) -> int:
        """Width of the encoder input: spectral + identity embedding."""
        return self.input_dim + self.node_embedding_dim
